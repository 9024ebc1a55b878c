//! `alloc-churn`: a seeded grow-and-evict program of about 1200
//! `cudaMalloc`/`cudaFree` calls with log-uniform sizes of 256 B–256 KiB and
//! 200–800 objects live at once, mixed with host/device copies, memsets, a
//! caching-pool tensor phase and tiny kernels touching 1–3 objects.
//! Profiled object-level, the `drgpum run` default.
//!
//! Every operation touches an object's first [`PREFIX`] elements (memsets
//! up to [`MEMSET_MAX`] bytes), and nothing reads an object before
//! something wrote that prefix, so the host mirror stays exact.
//!
//! Planted inefficiencies: `leak*` objects are never freed (the exact leak
//! count), `unused*` objects and the pool's `unused_tensor` are never
//! touched, `dw*` objects are memset and then overwritten by a copy (dead
//! write), and `ea*` objects see another API between allocation and first
//! use (early allocation).

use crate::program::{
    input_values, log_uniform, program_rng, reference_checksum, stratified, Buffer, Kernel, Op,
    Program, Region,
};
use drgpum_core::PatternKind;
use gpu_sim::SplitMix64;

/// `cudaMalloc` calls per program; as many `cudaFree`s, minus the leaks.
const MALLOCS: usize = 600;
/// Copies, memsets, readbacks and kernels after each allocation.
const OPS_PER_MALLOC: usize = 3;
/// Operations in the caching-pool phase.
const POOL_OPS: usize = 200;
const MIN_BYTES: u64 = 256;
const MAX_BYTES: u64 = 256 * 1024;
/// Elements every copy, readback and kernel touches, from offset 0.
const PREFIX: u64 = 64;
const MEMSET_MAX: u64 = 16 * 1024;
const MEMSET_VALUES: [u8; 3] = [0x00, 0x3F, 0x40];
const POOL_SLAB: u64 = 8 << 20;
const MAX_TENSOR: u64 = 32 * 1024;
/// Live-tensor limits that keep a first-fit hole of `MAX_TENSOR` bytes in
/// the slab whatever the fragmentation: at most 61 holes share ≥ 6 MiB.
const POOL_LIVE_TENSORS: usize = 60;
const POOL_LIVE_BYTES: u64 = 2 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    Normal,
    Leak,
    Unused,
    DeadWrite,
    Early,
}

#[derive(Debug, Clone, Copy)]
struct Live {
    slot: usize,
    plan: Plan,
    /// The prefix holds written data and may be read.
    init: bool,
}

struct Gen {
    rng: SplitMix64,
    buffers: Vec<Buffer>,
    inputs: Vec<Vec<f32>>,
    ops: Vec<Op>,
    planted: Vec<(String, PatternKind)>,
}

impl Gen {
    fn buffer(&mut self, prefix: &str, bytes: u64) -> usize {
        let slot = self.buffers.len();
        self.buffers.push(Buffer {
            label: format!("{prefix}{slot}"),
            bytes,
        });
        slot
    }

    fn plant(&mut self, slot: usize, kind: PatternKind) {
        self.planted.push((self.buffers[slot].label.clone(), kind));
    }

    fn upload(&mut self, slot: usize) {
        self.inputs.push(input_values(&mut self.rng, PREFIX));
        self.ops.push(Op::Upload {
            slot,
            input: self.inputs.len() - 1,
        });
    }

    fn memset(&mut self, slot: usize) {
        let value = MEMSET_VALUES[self.rng.next_below(3) as usize];
        self.ops.push(Op::Memset {
            slot,
            len_bytes: self.buffers[slot].bytes.min(MEMSET_MAX),
            value,
        });
    }

    fn init(&mut self, slot: usize) {
        if self.rng.chance(0.5) {
            self.upload(slot);
        } else {
            self.memset(slot);
        }
    }

    fn readback(&mut self, slot: usize) {
        self.ops.push(Op::Readback { slot, len: PREFIX });
    }

    /// Index into `live` of a random entry accepted by `ok`.
    fn pick(&mut self, live: &[Live], ok: impl Fn(&Live) -> bool) -> Option<usize> {
        let cands: Vec<usize> = (0..live.len()).filter(|&i| ok(&live[i])).collect();
        cands
            .get(self.rng.next_below(cands.len() as u64) as usize)
            .copied()
    }

    /// A tiny kernel writing `live[out]` from 0–2 other initialized objects
    /// (in place when there are none); marks `out` initialized.
    fn tiny_kernel(&mut self, live: &mut [Live], out: usize) {
        let at = |slot| Region { slot, off: 0 };
        let inputs = self.rng.next_below(3);
        let x = match inputs {
            0 if live[out].init => Some(out),
            0 => None,
            _ => self.pick(live, |l| l.init && l.slot != live[out].slot),
        };
        let Some(x) = x else {
            self.init(live[out].slot);
            live[out].init = true;
            return;
        };
        let y = (inputs == 2)
            .then(|| {
                self.pick(live, |l| {
                    l.init && l.slot != live[out].slot && l.slot != live[x].slot
                })
            })
            .flatten();
        self.ops.push(Op::Launch(Kernel::Axpy {
            x: at(live[x].slot),
            y: y.map(|y| at(live[y].slot)),
            out: at(live[out].slot),
            n: PREFIX,
        }));
        live[out].init = true;
    }

    /// One copy, memset, readback, tiny kernel or deferred initialization
    /// on random live objects (skipped when no object qualifies).
    fn random_op(&mut self, live: &mut [Live]) {
        let accessible = |l: &Live| l.plan != Plan::Unused;
        match self.rng.next_below(100) {
            0..=19 => {
                if let Some(i) = self.pick(live, |l| l.init && accessible(l)) {
                    self.upload(live[i].slot);
                }
            }
            20..=29 => {
                if let Some(i) = self.pick(live, accessible) {
                    self.memset(live[i].slot);
                    live[i].init = true;
                }
            }
            30..=49 => {
                let Some(src) = self.pick(live, |l| l.init && accessible(l)) else {
                    return;
                };
                let s = live[src].slot;
                if let Some(dst) = self.pick(live, |l| accessible(l) && l.slot != s) {
                    self.ops.push(Op::CopyD2d {
                        dst: live[dst].slot,
                        src: s,
                        len: PREFIX,
                    });
                    live[dst].init = true;
                }
            }
            50..=64 => {
                if let Some(i) = self.pick(live, |l| l.init && accessible(l)) {
                    self.readback(live[i].slot);
                }
            }
            65..=89 => {
                if let Some(out) = self.pick(live, accessible) {
                    self.tiny_kernel(live, out);
                }
            }
            _ => {
                if let Some(i) = self.pick(live, |l| !l.init && accessible(l)) {
                    self.init(live[i].slot);
                    live[i].init = true;
                }
            }
        }
    }

    fn malloc(&mut self, plan: Plan, live: &mut Vec<Live>) {
        let bytes = log_uniform(&mut self.rng, MIN_BYTES, MAX_BYTES + 1, 16);
        let prefix = match plan {
            Plan::Normal => "obj",
            Plan::Leak => "leak",
            Plan::Unused => "unused",
            Plan::DeadWrite => "dw",
            Plan::Early => "ea",
        };
        let slot = self.buffer(prefix, bytes);
        self.ops.push(Op::Malloc(slot));
        let mut entry = Live {
            slot,
            plan,
            init: true,
        };
        match plan {
            Plan::Normal if self.rng.chance(0.4) => entry.init = false,
            Plan::Normal => self.init(slot),
            Plan::Leak => {
                self.plant(slot, PatternKind::MemoryLeak);
                self.init(slot);
            }
            Plan::Unused => {
                self.plant(slot, PatternKind::UnusedAllocation);
                entry.init = false;
            }
            Plan::DeadWrite => {
                self.plant(slot, PatternKind::DeadWrite);
                self.memset(slot);
                self.upload(slot);
            }
            Plan::Early => match self.pick(live, |l| l.init) {
                Some(other) => {
                    self.plant(slot, PatternKind::EarlyAllocation);
                    self.readback(live[other].slot);
                    self.upload(slot);
                }
                None => self.upload(slot),
            },
        }
        live.push(entry);
    }

    /// The caching-pool phase: tensors carved from one slab, initialized,
    /// combined by tiny kernels, read back and freed; `unused_tensor` is
    /// never touched.
    fn pool_phase(&mut self) {
        self.ops.push(Op::PoolReserve { bytes: POOL_SLAB });
        let unused = self.buffers.len();
        self.buffers.push(Buffer {
            label: "unused_tensor".into(),
            bytes: 4096,
        });
        self.plant(unused, PatternKind::UnusedAllocation);
        self.ops.push(Op::PoolAlloc(unused));
        let rounded = |b: u64| b.div_ceil(512) * 512;
        let mut tensors: Vec<Live> = Vec::new();
        let mut live_bytes = rounded(4096);
        for _ in 0..POOL_OPS {
            let r = self.rng.next_below(100);
            let room = tensors.len() < POOL_LIVE_TENSORS
                && live_bytes + rounded(MAX_TENSOR) <= POOL_LIVE_BYTES;
            if tensors.len() < 8 || (r < 35 && room) {
                let bytes = log_uniform(&mut self.rng, MIN_BYTES, MAX_TENSOR + 1, 16);
                let slot = self.buffer("tensor", bytes);
                self.ops.push(Op::PoolAlloc(slot));
                self.init(slot);
                live_bytes += rounded(bytes);
                tensors.push(Live {
                    slot,
                    plan: Plan::Normal,
                    init: true,
                });
            } else if r < 60 {
                let t = tensors.swap_remove(self.rng.next_below(tensors.len() as u64) as usize);
                live_bytes -= rounded(self.buffers[t.slot].bytes);
                self.ops.push(Op::PoolFree(t.slot));
            } else if r < 80 {
                let out = self.rng.next_below(tensors.len() as u64) as usize;
                self.tiny_kernel(&mut tensors, out);
            } else if r < 90 {
                let t = tensors[self.rng.next_below(tensors.len() as u64) as usize].slot;
                self.upload(t);
            } else {
                let t = tensors[self.rng.next_below(tensors.len() as u64) as usize].slot;
                self.readback(t);
            }
        }
        for t in tensors {
            self.readback(t.slot);
            self.ops.push(Op::PoolFree(t.slot));
        }
        self.ops.push(Op::PoolFree(unused));
        self.ops.push(Op::PoolRelease);
    }
}

/// Generates program `index` of a suite of `programs` for `seed`.
pub fn generate(seed: u64, index: usize, programs: usize) -> Program {
    let mut g = Gen {
        rng: program_rng(seed, index),
        buffers: Vec::new(),
        inputs: Vec::new(),
        ops: Vec::new(),
        planted: Vec::new(),
    };
    let target = stratified(&mut g.rng, index, programs, 200, 800) as usize;
    let leaks = 3 + g.rng.next_below(10) as usize;
    let mut plans = vec![Plan::Normal; MALLOCS];
    let counts = [
        (Plan::Leak, leaks),
        (Plan::Unused, 2 + g.rng.next_below(5) as usize),
        (Plan::DeadWrite, 2 + g.rng.next_below(4) as usize),
        (Plan::Early, 2),
    ];
    let mut at = 0;
    for (plan, n) in counts {
        plans[at..at + n].fill(plan);
        at += n;
    }
    for i in (1..MALLOCS).rev() {
        plans.swap(i, g.rng.next_below(i as u64 + 1) as usize);
    }

    // Grow to `target` live objects, then evict a random one per
    // allocation; every allocation is followed by the same number of
    // other operations, so the program's size does not depend on `target`.
    let mut live: Vec<Live> = Vec::new();
    for (m, &plan) in plans.iter().enumerate() {
        if m == MALLOCS / 2 {
            g.pool_phase();
        }
        g.malloc(plan, &mut live);
        while live.len() > target {
            let Some(i) = g.pick(&live, |l| l.plan != Plan::Leak) else {
                break;
            };
            g.ops.push(Op::Free(live.swap_remove(i).slot));
        }
        for _ in 0..OPS_PER_MALLOC {
            g.random_op(&mut live);
        }
    }
    for (i, l) in live.iter().enumerate() {
        if l.init && (l.plan == Plan::Leak || i % 8 == 0) {
            g.readback(l.slot);
        }
    }
    for l in &live {
        if l.plan != Plan::Leak {
            g.ops.push(Op::Free(l.slot));
        }
    }

    let expected_checksum = reference_checksum(&g.buffers, &g.inputs, &g.ops);
    Program {
        name: format!("alloc-churn-{index}"),
        buffers: g.buffers,
        inputs: g.inputs,
        ops: g.ops,
        expected_checksum,
        planted: g.planted,
        planted_anywhere: vec![PatternKind::RedundantAllocation],
        expected_leaks: leaks as u64,
        intra: false,
    }
}
