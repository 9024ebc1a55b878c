//! Generated programs: a buffer table, a list of GPU operations over it,
//! and the ground truth the generator planted.
//!
//! A program runs on a [`DeviceContext`] through public `gpu-sim` calls
//! only ([`execute`]), and on the host through a mirror of the same
//! arithmetic ([`reference_checksum`]), so every run can be checked against
//! a checksum computed without the simulator.

use drgpum_core::PatternKind;
use gpu_sim::pool::{CachingPool, SharedPoolObserver};
use gpu_sim::{DeviceContext, DevicePtr, LaunchConfig, SimError, SourceLoc, StreamId};

/// Threads per block for every generated kernel.
const BLOCK: u32 = 128;

/// An element offset (in `f32`s) into one buffer slot.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    pub slot: usize,
    pub off: u64,
}

impl Region {
    fn ptr(self, slots: &[DevicePtr]) -> DevicePtr {
        slots[self.slot] + self.off * 4
    }
}

/// One generated kernel. Every kernel reads and writes distinct buffers,
/// except `Axpy` without `y`, which updates `out` in place element by
/// element; so the result does not depend on thread order.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// `c[t×t] = (a[t×k] × b[k×t]) / k`, one thread per output element.
    Matmul {
        a: Region,
        b: Region,
        c: Region,
        t: u64,
        k: u64,
    },
    /// 5-point stencil over the interior of a `w×h` grid.
    Stencil {
        src: Region,
        dst: Region,
        w: u64,
        h: u64,
    },
    /// `dst[cols×rows] = transpose(src[rows×cols])`.
    Transpose {
        src: Region,
        dst: Region,
        rows: u64,
        cols: u64,
    },
    /// `dst[i] = 0.5 · src[i · stride] + 1`.
    Strided {
        src: Region,
        dst: Region,
        n: u64,
        stride: u64,
    },
    /// `dst[t] = (Σ_j src[t + j · threads]) / per_thread`: a reduction over
    /// part of `src`.
    Reduce {
        src: Region,
        dst: Region,
        threads: u64,
        per_thread: u64,
    },
    /// `out[i] = 0.5 · x[i] + (y[i] or 1)`: a tiny kernel over 1–3 objects.
    Axpy {
        x: Region,
        y: Option<Region>,
        out: Region,
        n: u64,
    },
}

impl Kernel {
    /// Kernel name as the profiler sees it.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Matmul { .. } => "matmul_tile",
            Kernel::Stencil { .. } => "stencil5",
            Kernel::Transpose { .. } => "transpose_copy",
            Kernel::Strided { .. } => "strided_copy",
            Kernel::Reduce { .. } => "partial_reduce",
            Kernel::Axpy { .. } => "axpy_tiny",
        }
    }

    /// Global-memory accesses one launch performs.
    pub fn accesses(&self) -> u64 {
        match *self {
            Kernel::Matmul { t, k, .. } => t * t * (2 * k + 1),
            Kernel::Stencil { w, h, .. } => (w - 2) * (h - 2) * 6,
            Kernel::Transpose { rows, cols, .. } => 2 * rows * cols,
            Kernel::Strided { n, .. } => 2 * n,
            Kernel::Reduce {
                threads,
                per_thread,
                ..
            } => threads * (per_thread + 1),
            Kernel::Axpy { y, n, .. } => n * if y.is_some() { 3 } else { 2 },
        }
    }

    fn launch(&self, ctx: &mut DeviceContext, slots: &[DevicePtr]) -> Result<(), SimError> {
        let s = StreamId::DEFAULT;
        let name = self.name();
        match *self {
            Kernel::Matmul { a, b, c, t, k } => {
                let (a, b, c) = (a.ptr(slots), b.ptr(slots), c.ptr(slots));
                let scale = 1.0 / k as f32;
                ctx.launch(name, LaunchConfig::cover(t * t, BLOCK)?, s, move |th| {
                    let idx = th.global_x();
                    if idx < t * t {
                        let (i, j) = (idx / t, idx % t);
                        let mut acc = 0.0f32;
                        for kk in 0..k {
                            let av = th.load_f32(a + (i * k + kk) * 4);
                            let bv = th.load_f32(b + (kk * t + j) * 4);
                            acc += av * bv;
                        }
                        th.flop(2 * k + 1);
                        th.store_f32(c + idx * 4, acc * scale);
                    }
                })?;
            }
            Kernel::Stencil { src, dst, w, h } => {
                let (src, dst) = (src.ptr(slots), dst.ptr(slots));
                let n = (w - 2) * (h - 2);
                ctx.launch(name, LaunchConfig::cover(n, BLOCK)?, s, move |th| {
                    let idx = th.global_x();
                    if idx < n {
                        let (y, x) = (1 + idx / (w - 2), 1 + idx % (w - 2));
                        let at = |y: u64, x: u64| (y * w + x) * 4;
                        let c = th.load_f32(src + at(y, x));
                        let up = th.load_f32(src + at(y - 1, x));
                        let down = th.load_f32(src + at(y + 1, x));
                        let left = th.load_f32(src + at(y, x - 1));
                        let right = th.load_f32(src + at(y, x + 1));
                        th.flop(5);
                        th.store_f32(dst + at(y, x), stencil(c, up, down, left, right));
                    }
                })?;
            }
            Kernel::Transpose {
                src,
                dst,
                rows,
                cols,
            } => {
                let (src, dst) = (src.ptr(slots), dst.ptr(slots));
                ctx.launch(
                    name,
                    LaunchConfig::cover(rows * cols, BLOCK)?,
                    s,
                    move |th| {
                        let idx = th.global_x();
                        if idx < rows * cols {
                            let (i, j) = (idx / cols, idx % cols);
                            let v = th.load_f32(src + idx * 4);
                            th.store_f32(dst + (j * rows + i) * 4, v);
                        }
                    },
                )?;
            }
            Kernel::Strided {
                src,
                dst,
                n,
                stride,
            } => {
                let (src, dst) = (src.ptr(slots), dst.ptr(slots));
                ctx.launch(name, LaunchConfig::cover(n, BLOCK)?, s, move |th| {
                    let i = th.global_x();
                    if i < n {
                        let v = th.load_f32(src + i * stride * 4);
                        th.flop(1);
                        th.store_f32(dst + i * 4, strided(v));
                    }
                })?;
            }
            Kernel::Reduce {
                src,
                dst,
                threads,
                per_thread,
            } => {
                let (src, dst) = (src.ptr(slots), dst.ptr(slots));
                let scale = 1.0 / per_thread as f32;
                ctx.launch(name, LaunchConfig::cover(threads, BLOCK)?, s, move |th| {
                    let t = th.global_x();
                    if t < threads {
                        let mut acc = 0.0f32;
                        for j in 0..per_thread {
                            acc += th.load_f32(src + (t + j * threads) * 4);
                        }
                        th.flop(per_thread + 1);
                        th.store_f32(dst + t * 4, acc * scale);
                    }
                })?;
            }
            Kernel::Axpy { x, y, out, n } => {
                let (x, out) = (x.ptr(slots), out.ptr(slots));
                let y = y.map(|r| r.ptr(slots));
                ctx.launch(name, LaunchConfig::cover(n, BLOCK)?, s, move |th| {
                    let i = th.global_x();
                    if i < n {
                        let xv = th.load_f32(x + i * 4);
                        let yv = match y {
                            Some(y) => th.load_f32(y + i * 4),
                            None => 1.0,
                        };
                        th.flop(2);
                        th.store_f32(out + i * 4, axpy(xv, yv));
                    }
                })?;
            }
        }
        Ok(())
    }

    /// Applies the kernel to host copies of the buffers, with the same
    /// arithmetic in the same order as the device closure.
    fn mirror(&self, mem: &mut [Vec<f32>]) {
        let read = |mem: &[Vec<f32>], r: Region, i: u64| mem[r.slot][(r.off + i) as usize];
        let mut writes: Vec<(u64, f32)> = Vec::new();
        let target = match *self {
            Kernel::Matmul { a, b, c, t, k } => {
                let scale = 1.0 / k as f32;
                for idx in 0..t * t {
                    let (i, j) = (idx / t, idx % t);
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += read(mem, a, i * k + kk) * read(mem, b, kk * t + j);
                    }
                    writes.push((idx, acc * scale));
                }
                c
            }
            Kernel::Stencil { src, dst, w, h } => {
                for idx in 0..(w - 2) * (h - 2) {
                    let (y, x) = (1 + idx / (w - 2), 1 + idx % (w - 2));
                    let at = |y: u64, x: u64| read(mem, src, y * w + x);
                    let v = stencil(
                        at(y, x),
                        at(y - 1, x),
                        at(y + 1, x),
                        at(y, x - 1),
                        at(y, x + 1),
                    );
                    writes.push((y * w + x, v));
                }
                dst
            }
            Kernel::Transpose {
                src,
                dst,
                rows,
                cols,
            } => {
                for idx in 0..rows * cols {
                    let (i, j) = (idx / cols, idx % cols);
                    writes.push((j * rows + i, read(mem, src, idx)));
                }
                dst
            }
            Kernel::Strided {
                src,
                dst,
                n,
                stride,
            } => {
                for i in 0..n {
                    writes.push((i, strided(read(mem, src, i * stride))));
                }
                dst
            }
            Kernel::Reduce {
                src,
                dst,
                threads,
                per_thread,
            } => {
                let scale = 1.0 / per_thread as f32;
                for t in 0..threads {
                    let mut acc = 0.0f32;
                    for j in 0..per_thread {
                        acc += read(mem, src, t + j * threads);
                    }
                    writes.push((t, acc * scale));
                }
                dst
            }
            Kernel::Axpy { x, y, out, n } => {
                for i in 0..n {
                    let yv = y.map(|y| read(mem, y, i)).unwrap_or(1.0);
                    writes.push((i, axpy(read(mem, x, i), yv)));
                }
                out
            }
        };
        for (i, v) in writes {
            mem[target.slot][(target.off + i) as usize] = v;
        }
    }
}

fn stencil(c: f32, up: f32, down: f32, left: f32, right: f32) -> f32 {
    (c + up + down + left + right) * 0.2
}

fn strided(v: f32) -> f32 {
    0.5 * v + 1.0
}

fn axpy(x: f32, y: f32) -> f32 {
    0.5 * x + y
}

/// One buffer slot: a `cudaMalloc` object or a caching-pool tensor.
#[derive(Debug, Clone)]
pub struct Buffer {
    pub label: String,
    pub bytes: u64,
}

/// One GPU operation of a generated program. Copies, memsets and
/// readbacks start at a buffer's first byte; lengths are in `f32` elements
/// unless named `_bytes`.
#[derive(Debug, Clone)]
pub enum Op {
    Malloc(usize),
    Free(usize),
    /// Reserves the caching pool's slab (one `cudaMalloc`).
    PoolReserve {
        bytes: u64,
    },
    PoolAlloc(usize),
    PoolFree(usize),
    PoolRelease,
    /// Host-to-device copy of `Program::inputs[input]`.
    Upload {
        slot: usize,
        input: usize,
    },
    Memset {
        slot: usize,
        len_bytes: u64,
        value: u8,
    },
    CopyD2d {
        dst: usize,
        src: usize,
        len: u64,
    },
    /// Device-to-host copy of `len` elements, summed into the checksum.
    Readback {
        slot: usize,
        len: u64,
    },
    Launch(Kernel),
}

/// A generated program with its ground truth.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub buffers: Vec<Buffer>,
    pub inputs: Vec<Vec<f32>>,
    pub ops: Vec<Op>,
    /// Checksum of every readback, computed on the host at generation.
    pub expected_checksum: f64,
    /// `(object label, pattern)` pairs the generator planted.
    pub planted: Vec<(String, PatternKind)>,
    /// Planted patterns whose reported object the detector chooses (a
    /// redundant allocation may pair with any compatible dead object).
    pub planted_anywhere: Vec<PatternKind>,
    /// Objects the program never frees.
    pub expected_leaks: u64,
    /// Profile with intra-object analysis (`drgpum run --intra`) instead of
    /// the object-level default.
    pub intra: bool,
}

impl Program {
    /// Whether the program carves tensors out of a caching pool.
    pub fn uses_pool(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, Op::PoolReserve { .. }))
    }
}

/// Log-uniform draw in `[lo, hi)`, rounded down to a multiple of `align`.
pub fn log_uniform(rng: &mut gpu_sim::SplitMix64, lo: u64, hi: u64, align: u64) -> u64 {
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    let v = (l + rng.next_f64() * (h - l)).exp() as u64;
    (v.clamp(lo, hi - 1) / align * align).max(lo)
}

/// `n` input values on a 1/16 grid in `[0, 1)`.
pub fn input_values(rng: &mut gpu_sim::SplitMix64, n: u64) -> Vec<f32> {
    (0..n).map(|_| rng.next_below(16) as f32 / 16.0).collect()
}

/// A draw in `[lo, hi)` from stratum `index` of `strata` equal slices, so
/// the programs of one suite always span the whole range and a suite's
/// total size does not depend on the seed.
pub fn stratified(
    rng: &mut gpu_sim::SplitMix64,
    index: usize,
    strata: usize,
    lo: u64,
    hi: u64,
) -> u64 {
    let u = (index % strata) as f64 + rng.next_f64();
    lo + ((hi - lo) as f64 * u / strata as f64) as u64
}

/// Generator state for one program, derived from the run seed and the
/// program's index in the suite.
pub fn program_rng(seed: u64, index: usize) -> gpu_sim::SplitMix64 {
    let mut rng =
        gpu_sim::SplitMix64::new(seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    rng.next_u64();
    rng
}

/// What one device run of a program produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunFacts {
    pub checksum: f64,
    pub simulated_ns: u64,
    pub peak_device_bytes: u64,
}

/// Runs `program` on `ctx`, registering `observer` with the caching pool
/// when the program reserves one.
pub fn execute(
    program: &Program,
    ctx: &mut DeviceContext,
    observer: Option<SharedPoolObserver>,
) -> Result<RunFacts, SimError> {
    let mut slots = vec![DevicePtr::NULL; program.buffers.len()];
    let mut pool: Option<CachingPool> = None;
    let mut checksum = 0.0f64;
    ctx.push_frame(SourceLoc::new("main", &program.name, 1));
    let result = (|| -> Result<(), SimError> {
        for op in &program.ops {
            match op {
                Op::Malloc(s) => {
                    let b = &program.buffers[*s];
                    slots[*s] = ctx.malloc(b.bytes, b.label.as_str())?;
                }
                Op::Free(s) => ctx.free(slots[*s])?,
                Op::PoolReserve { bytes } => {
                    let mut p = CachingPool::reserve(ctx, *bytes)?;
                    if let Some(o) = &observer {
                        p.register_observer(o.clone());
                    }
                    pool = Some(p);
                }
                Op::PoolAlloc(s) => {
                    let b = &program.buffers[*s];
                    let p = pool.as_mut().expect("generator reserves the pool first");
                    slots[*s] = p.alloc(ctx, b.bytes, b.label.as_str())?;
                }
                Op::PoolFree(s) => pool
                    .as_mut()
                    .expect("generator reserves the pool first")
                    .free(slots[*s])?,
                Op::PoolRelease => pool
                    .take()
                    .expect("generator reserves the pool first")
                    .release(ctx)?,
                Op::Upload { slot, input } => ctx.h2d_f32(slots[*slot], &program.inputs[*input])?,
                Op::Memset {
                    slot,
                    len_bytes,
                    value,
                } => ctx.memset(slots[*slot], *value, *len_bytes)?,
                Op::CopyD2d { dst, src, len } => {
                    ctx.memcpy_d2d(slots[*dst], slots[*src], len * 4)?
                }
                Op::Readback { slot, len } => {
                    let mut out = vec![0.0f32; *len as usize];
                    ctx.d2h_f32(&mut out, slots[*slot])?;
                    checksum += out.iter().map(|&v| f64::from(v)).sum::<f64>();
                }
                Op::Launch(k) => k.launch(ctx, &slots)?,
            }
        }
        Ok(())
    })();
    ctx.pop_frame();
    result?;
    Ok(RunFacts {
        checksum,
        simulated_ns: ctx.sync_device().as_ns(),
        peak_device_bytes: ctx.allocator().stats().peak_bytes,
    })
}

/// Runs `ops` against host copies of the buffers and returns the checksum
/// of every readback. Generators call this once, at generation time.
pub fn reference_checksum(buffers: &[Buffer], inputs: &[Vec<f32>], ops: &[Op]) -> f64 {
    let mut mem: Vec<Vec<f32>> = vec![Vec::new(); buffers.len()];
    let mut checksum = 0.0f64;
    for op in ops {
        match op {
            Op::Malloc(s) | Op::PoolAlloc(s) => {
                mem[*s] = vec![0.0; (buffers[*s].bytes / 4) as usize]
            }
            Op::Free(s) | Op::PoolFree(s) => mem[*s] = Vec::new(),
            Op::PoolReserve { .. } | Op::PoolRelease => {}
            Op::Upload { slot, input } => {
                let data = &inputs[*input];
                mem[*slot][..data.len()].copy_from_slice(data);
            }
            Op::Memset {
                slot,
                len_bytes,
                value,
            } => {
                let v = f32::from_le_bytes([*value; 4]);
                mem[*slot][..(*len_bytes / 4) as usize].fill(v);
            }
            Op::CopyD2d { dst, src, len } => {
                let data = mem[*src][..*len as usize].to_vec();
                mem[*dst][..*len as usize].copy_from_slice(&data);
            }
            Op::Readback { slot, len } => {
                checksum += mem[*slot][..*len as usize]
                    .iter()
                    .map(|&v| f64::from(v))
                    .sum::<f64>();
            }
            Op::Launch(k) => k.mirror(&mut mem),
        }
    }
    checksum
}
