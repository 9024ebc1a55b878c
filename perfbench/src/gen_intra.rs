//! `intra-dense`: a seeded program of 8–24 `f32` buffers of 16–128 KiB
//! and tens of kernels (tiled matmul, 5-point stencil, transposed and
//! strided copies, partial-coverage reductions), profiled as
//! `drgpum run --intra` does. Access records dominate the session.
//!
//! Planted inefficiencies:
//! * `leaked_lut` is never freed (memory leak, the only one);
//! * `unused_ws` is allocated and freed but never touched (unused);
//! * `scratch_b` is allocated up front and first touched in phase 2
//!   (early allocation); it has the size of `scratch_a`, whose last use
//!   ends phase 1 (a redundant-allocation pair);
//! * one plain buffer is memset and then fully overwritten (dead write);
//! * `partial*` buffers are only ever touched in a 20–60 % prefix
//!   (overallocation by partial coverage).

use crate::program::{
    input_values, program_rng, reference_checksum, stratified, Buffer, Kernel, Op, Program, Region,
};
use drgpum_core::PatternKind;
use gpu_sim::SplitMix64;

const MIN_ELEMS: u64 = 4 * 1024;
const MAX_ELEMS: u64 = 32 * 1024;
/// Elements of all buffers together, before clamping to the size range.
const TOTAL_ELEMS: u64 = 144 * 1024;
/// Element alignment of buffer sizes and partial-coverage prefixes.
const ALIGN: u64 = 256;
/// Global-memory accesses each phase's kernels perform, at least.
const PHASE_ACCESSES: u64 = 150_000;
/// Kernels per phase, at least.
const PHASE_KERNELS: usize = 10;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Matmul,
    Stencil,
    Transpose,
    Strided,
    Reduce,
}

/// The kernel kinds of a phase, in order, repeated. A fixed mix keeps the
/// per-access cost the same across seeds; only shapes and regions vary.
const KERNEL_MIX: [Kind; 8] = [
    Kind::Matmul,
    Kind::Stencil,
    Kind::Reduce,
    Kind::Transpose,
    Kind::Stencil,
    Kind::Strided,
    Kind::Reduce,
    Kind::Matmul,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    ScratchA,
    ScratchB,
    Lut,
    Unused,
    Partial,
    Plain,
}

struct Slot {
    role: Role,
    /// Elements kernels and copies may touch (a prefix for `Partial`).
    usable: u64,
}

/// Generates program `index` of a suite of `programs` for `seed`.
pub fn generate(seed: u64, index: usize, programs: usize) -> Program {
    let mut rng = program_rng(seed, index);
    let count = stratified(&mut rng, index, programs, 8, 25) as usize;
    let partials = if count >= 12 { 2 } else { 1 };
    let mut buffers = Vec::with_capacity(count);
    let mut slots = Vec::with_capacity(count);
    // Sizes are log-uniform weights scaled to a fixed total, so programs
    // differ in shape but not in how many elements they touch.
    let weights: Vec<f64> = (0..count)
        .map(|_| (rng.next_f64() * 8f64.ln()).exp())
        .collect();
    let scale = TOTAL_ELEMS as f64 / weights.iter().sum::<f64>();
    let mut sizes = weights
        .into_iter()
        .map(|w| ((w * scale) as u64 / ALIGN * ALIGN).clamp(MIN_ELEMS, MAX_ELEMS));
    let mut next_size = || sizes.next().expect("one size per buffer");
    let mut add = |label: String, elems: u64, role: Role, usable: u64| {
        buffers.push(Buffer {
            label,
            bytes: elems * 4,
        });
        slots.push(Slot { role, usable });
    };
    let scratch = next_size();
    next_size();
    add("scratch_a".into(), scratch, Role::ScratchA, scratch);
    add("scratch_b".into(), scratch, Role::ScratchB, scratch);
    for (label, role) in [("leaked_lut", Role::Lut), ("unused_ws", Role::Unused)] {
        let elems = next_size();
        add(label.into(), elems, role, elems);
    }
    for p in 0..partials {
        let elems = next_size();
        let frac = 0.2 + 0.4 * rng.next_f64();
        let usable = ((elems as f64 * frac) as u64 / ALIGN * ALIGN).max(ALIGN);
        add(format!("partial{p}"), elems, Role::Partial, usable);
    }
    for i in 4 + partials..count {
        let elems = next_size();
        add(format!("buf{i}"), elems, Role::Plain, elems);
    }
    let index_of = |role: Role| slots.iter().position(|s| s.role == role).expect("role");
    let (scratch_a, scratch_b) = (index_of(Role::ScratchA), index_of(Role::ScratchB));
    let dead_write = index_of(Role::Plain);

    let mut ops: Vec<Op> = (0..count).map(Op::Malloc).collect();
    let mut inputs = Vec::new();
    let mut upload = |ops: &mut Vec<Op>, rng: &mut SplitMix64, slot: usize, len: u64| {
        inputs.push(input_values(rng, len));
        ops.push(Op::Upload {
            slot,
            input: inputs.len() - 1,
        });
    };
    let memset = |slot: usize, elems: u64, value: u8| Op::Memset {
        slot,
        len_bytes: elems * 4,
        value,
    };
    for (i, s) in slots.iter().enumerate() {
        match s.role {
            Role::Plain if i == dead_write => {
                ops.push(memset(i, s.usable, 0));
                upload(&mut ops, &mut rng, i, s.usable);
            }
            Role::Lut | Role::Plain if rng.chance(0.3) => ops.push(memset(i, s.usable, 0x3F)),
            Role::Lut | Role::Plain | Role::Partial => upload(&mut ops, &mut rng, i, s.usable),
            Role::ScratchA | Role::ScratchB | Role::Unused => {}
        }
    }

    for (phase, scratch) in [(Role::ScratchA, scratch_a), (Role::ScratchB, scratch_b)] {
        ops.push(memset(scratch, slots[scratch].usable, 0x3F));
        let (mut accesses, mut kernels) = (0, 0);
        while accesses < PHASE_ACCESSES || kernels < PHASE_KERNELS {
            let force = (kernels == 0).then_some(scratch);
            let kind = KERNEL_MIX[kernels % KERNEL_MIX.len()];
            let k = kernel(&mut rng, &slots, phase, kind, force);
            accesses += k.accesses();
            kernels += 1;
            ops.push(Op::Launch(k));
        }
        if phase == Role::ScratchA {
            // `scratch_a` dies here, before `scratch_b` is first touched.
            ops.push(Op::Readback {
                slot: scratch_a,
                len: slots[scratch_a].usable,
            });
            ops.push(Op::Free(scratch_a));
        }
    }
    for (i, s) in slots.iter().enumerate() {
        if !matches!(s.role, Role::ScratchA | Role::Unused) {
            ops.push(Op::Readback {
                slot: i,
                len: s.usable,
            });
        }
    }
    for (i, s) in slots.iter().enumerate() {
        if !matches!(s.role, Role::ScratchA | Role::Lut) {
            ops.push(Op::Free(i));
        }
    }

    let mut planted = vec![
        ("leaked_lut".to_owned(), PatternKind::MemoryLeak),
        ("unused_ws".to_owned(), PatternKind::UnusedAllocation),
        ("scratch_b".to_owned(), PatternKind::EarlyAllocation),
        (buffers[dead_write].label.clone(), PatternKind::DeadWrite),
    ];
    for (i, s) in slots.iter().enumerate() {
        if s.role == Role::Partial {
            planted.push((buffers[i].label.clone(), PatternKind::Overallocation));
        }
    }
    let expected_checksum = reference_checksum(&buffers, &inputs, &ops);
    Program {
        name: format!("intra-dense-{index}"),
        buffers,
        inputs,
        ops,
        expected_checksum,
        planted,
        planted_anywhere: vec![PatternKind::RedundantAllocation],
        expected_leaks: 1,
        intra: true,
    }
}

/// Picks a random region of `len` elements on a slot accepted by `ok`.
fn region(
    rng: &mut SplitMix64,
    slots: &[Slot],
    len: u64,
    ok: impl Fn(usize, &Slot) -> bool,
) -> Option<Region> {
    let cands: Vec<usize> = (0..slots.len())
        .filter(|&i| slots[i].usable >= len && ok(i, &slots[i]))
        .collect();
    let slot = *cands.get(rng.next_below(cands.len() as u64) as usize)?;
    let off = rng.next_below(slots[slot].usable - len + 1);
    Some(Region { slot, off })
}

/// A random kernel of `kind` for `phase`. Sources are initialized buffers live in the phase;
/// destinations are plain buffers or the phase's scratch (`force` pins the
/// destination slot).
fn kernel(
    rng: &mut SplitMix64,
    slots: &[Slot],
    phase: Role,
    kind: Kind,
    force: Option<usize>,
) -> Kernel {
    let pick =
        |rng: &mut SplitMix64, from: &[u64]| from[rng.next_below(from.len() as u64) as usize];
    loop {
        let src_ok = |_: usize, s: &Slot| {
            matches!(s.role, Role::Lut | Role::Plain | Role::Partial) || s.role == phase
        };
        let dst_ok = |excl: Vec<usize>| {
            move |i: usize, s: &Slot| {
                !excl.contains(&i)
                    && force.map_or(s.role == Role::Plain || s.role == phase, |f| f == i)
            }
        };
        let k =
            match kind {
                Kind::Matmul => {
                    let (t, k) = (16, pick(rng, &[16, 32, 64]));
                    let a = region(rng, slots, t * k, src_ok);
                    let b = region(rng, slots, k * t, src_ok);
                    let (Some(a), Some(b)) = (a, b) else { continue };
                    region(rng, slots, t * t, dst_ok(vec![a.slot, b.slot]))
                        .map(|c| Kernel::Matmul { a, b, c, t, k })
                }
                Kind::Stencil => {
                    let (w, h) = (pick(rng, &[32, 64]), pick(rng, &[32, 64]));
                    let Some(src) = region(rng, slots, w * h, src_ok) else {
                        continue;
                    };
                    region(rng, slots, w * h, dst_ok(vec![src.slot])).map(|dst| Kernel::Stencil {
                        src,
                        dst,
                        w,
                        h,
                    })
                }
                Kind::Transpose => {
                    let (rows, cols) = (pick(rng, &[32, 64]), pick(rng, &[32, 64]));
                    let Some(src) = region(rng, slots, rows * cols, src_ok) else {
                        continue;
                    };
                    region(rng, slots, rows * cols, dst_ok(vec![src.slot])).map(|dst| {
                        Kernel::Transpose {
                            src,
                            dst,
                            rows,
                            cols,
                        }
                    })
                }
                Kind::Strided => {
                    let (n, stride) = (pick(rng, &[512, 1024]), pick(rng, &[2, 3, 4]));
                    let Some(src) = region(rng, slots, n * stride, src_ok) else {
                        continue;
                    };
                    region(rng, slots, n, dst_ok(vec![src.slot])).map(|dst| Kernel::Strided {
                        src,
                        dst,
                        n,
                        stride,
                    })
                }
                Kind::Reduce => {
                    let threads = pick(rng, &[128, 256, 512]);
                    let per_thread = pick(rng, &[4, 8]);
                    let partial = rng.chance(0.5);
                    let src = region(rng, slots, threads * per_thread, |i, s| {
                        src_ok(i, s) && (!partial || s.role == Role::Partial)
                    });
                    let Some(src) = src else { continue };
                    region(rng, slots, threads, dst_ok(vec![src.slot])).map(|dst| Kernel::Reduce {
                        src,
                        dst,
                        threads,
                        per_thread,
                    })
                }
            };
        if let Some(k) = k {
            return k;
        }
    }
}
