//! Property-style tests on the core data structures and detector
//! invariants, backing the paper's "DrGPUM does not incur false positives"
//! claim (Sec. 5.6): every finding's evidence is re-checked against a naive
//! oracle on randomly generated traces. Inputs come from a seeded
//! deterministic generator, so every failure is reproducible from its seed.

use drgpum::profiler::accessmap::{AccessBitmap, FreqMap, RangeSet};
use drgpum::profiler::depgraph::{DependencyGraph, ObjectList, VertexAccess};
use drgpum::profiler::names::{ApiDetail, ApiName, GpuApiKind, PathId};
use drgpum::profiler::object::ObjectId;
use drgpum::profiler::options::Thresholds;
use drgpum::profiler::patterns::intra::{self, IntraObjectData};
use drgpum::profiler::patterns::{
    object_level, redundant, ApiRef, ObjectAccess, ObjectView, PatternEvidence, TraceView,
};
use drgpum::profiler::peaks::{find_peaks, UsageSample};
use drgpum::profiler::trace_io;
use gpu_sim::mem::DeviceAllocator;
use gpu_sim::{SplitMix64, StreamId};
use std::collections::HashMap;

const CASES: u64 = 64;

/// The synthetic traces' API name at position `idx`, `KERL(0, idx)`.
fn kerl(idx: usize) -> ApiName {
    ApiName::new(GpuApiKind::Kerl, StreamId(0), idx as u64)
}

/// Uniform draw in `[lo, hi)` from the deterministic generator.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo)
}

// ------------------------------------------------------------ allocator

#[derive(Debug, Clone)]
enum AllocOp {
    Malloc(u64),
    FreeNth(usize),
}

fn alloc_ops(rng: &mut SplitMix64) -> Vec<AllocOp> {
    let len = range(rng, 1, 120) as usize;
    (0..len)
        .map(|_| {
            if rng.chance(0.5) {
                AllocOp::Malloc(range(rng, 1, 100_000))
            } else {
                AllocOp::FreeNth(range(rng, 0, 64) as usize)
            }
        })
        .collect()
}

#[test]
fn allocator_invariants() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let ops = alloc_ops(&mut rng);
        let capacity = 4 << 20;
        let mut a = DeviceAllocator::new(capacity);
        let mut live: Vec<(gpu_sim::DevicePtr, u64)> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Malloc(size) => {
                    if let Ok(info) = a.malloc(size) {
                        live.push((info.ptr, size));
                    }
                }
                AllocOp::FreeNth(n) => {
                    if !live.is_empty() {
                        let (ptr, _) = live.remove(n % live.len());
                        a.free(ptr).expect("tracked pointer frees cleanly");
                    }
                }
            }
            // Live allocations never overlap.
            let mut ranges: Vec<(u64, u64)> =
                live.iter().map(|(p, s)| (p.addr(), p.addr() + s)).collect();
            ranges.sort_unstable();
            for w in ranges.windows(2) {
                assert!(w[0].1 <= w[1].0, "seed {seed}: overlapping allocations");
            }
            // Accounting matches our model.
            let model_in_use: u64 = live.iter().map(|(_, s)| s).sum();
            assert_eq!(a.stats().in_use_bytes, model_in_use, "seed {seed}");
            assert!(
                a.stats().peak_bytes >= a.stats().in_use_bytes,
                "seed {seed}"
            );
            assert_eq!(a.stats().live_allocations, live.len(), "seed {seed}");
        }
        // Free everything: the address space coalesces back to one region.
        for (ptr, _) in live {
            a.free(ptr).expect("valid");
        }
        assert_eq!(a.largest_free(), capacity, "seed {seed}");
    }
}

// -------------------------------------------------------- access maps

#[test]
fn bitmap_matches_boolean_model() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let len = range(&mut rng, 1, 600);
        let n_ranges = range(&mut rng, 0, 40) as usize;
        let mut bm = AccessBitmap::new(len);
        let mut model = vec![false; len as usize];
        for _ in 0..n_ranges {
            let start = range(&mut rng, 0, 600);
            let width = range(&mut rng, 0, 80);
            bm.set_range(start, start + width);
            for i in start..(start + width).min(len) {
                model[i as usize] = true;
            }
        }
        assert_eq!(
            bm.count_set(),
            model.iter().filter(|&&b| b).count() as u64,
            "seed {seed}"
        );
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(bm.is_set(i as u64), m, "seed {seed} index {i}");
        }
        // Largest clear run agrees with a scan of the model.
        let mut best = 0usize;
        let mut cur = 0usize;
        for &m in &model {
            if m {
                best = best.max(cur);
                cur = 0;
            } else {
                cur += 1;
            }
        }
        best = best.max(cur);
        assert_eq!(bm.largest_clear_run(), best as u64, "seed {seed}");
    }
}

#[test]
fn rangeset_matches_boolean_model() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n_ranges = range(&mut rng, 1, 40) as usize;
        let mut rs = RangeSet::new();
        let mut model = vec![false; 600];
        for _ in 0..n_ranges {
            let s = range(&mut rng, 0, 500);
            let w = range(&mut rng, 1, 60);
            rs.insert(s, s + w);
            for i in s..(s + w) {
                model[i as usize] = true;
            }
        }
        assert_eq!(
            rs.covered(),
            model.iter().filter(|&&b| b).count() as u64,
            "seed {seed}"
        );
        // Invariant: stored ranges are sorted, disjoint, non-adjacent.
        for w in rs.ranges().windows(2) {
            assert!(
                w[0].1 < w[1].0,
                "seed {seed}: ranges must be disjoint and separated"
            );
        }
        // Membership agrees with the model at every boundary point.
        for (i, &m) in model.iter().enumerate() {
            let i = i as u64;
            let mut probe = RangeSet::new();
            probe.insert(i, i + 1);
            assert_eq!(rs.intersects(&probe), m, "seed {seed} index {i}");
        }
    }
}

#[test]
fn freqmap_total_counts_conserved() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n_accesses = range(&mut rng, 0, 100) as usize;
        let mut fm = FreqMap::new(256, 4);
        let mut expected_total = 0u64;
        for _ in 0..n_accesses {
            let off = range(&mut rng, 0, 256).min(255);
            let size = (range(&mut rng, 1, 8) as u32).min((256 - off) as u32);
            if size == 0 {
                continue;
            }
            fm.record(off, size);
            let first = off / 4;
            let last = (off + u64::from(size) - 1) / 4;
            expected_total += last - first + 1;
        }
        let total: u64 = fm.counts().iter().map(|&c| u64::from(c)).sum();
        assert_eq!(total, expected_total, "seed {seed}");
        assert!(fm.coefficient_of_variation_pct() >= 0.0, "seed {seed}");
    }
}

/// Checks `runs` against the counts they encode, then rebuilds a map from
/// them — what reanalysis does with a saved map — and compares.
fn assert_runs_reproduce(size: u64, elem: u32, model: &[u32], what: &str) {
    let mut fm = FreqMap::new(size, elem);
    assert_eq!(fm.len(), model.len(), "{what}: ceil(size / elem_size)");
    for (i, &c) in model.iter().enumerate() {
        fm.fill(i as u64, 1, c);
    }
    assert_eq!(fm.counts(), model, "{what}");
    let runs = fm.runs();
    let mut prev: Option<(u64, u64, u32)> = None;
    for &(start, len, count) in &runs {
        assert!(len > 0 && count > 0, "{what}: empty run");
        assert!(
            start + len <= model.len() as u64,
            "{what}: run past the end"
        );
        if let Some((p_start, p_len, p_count)) = prev {
            assert!(
                p_start + p_len <= start,
                "{what}: runs unsorted or overlapping"
            );
            assert!(
                p_start + p_len < start || p_count != count,
                "{what}: adjacent runs with equal counts are not maximal"
            );
        }
        prev = Some((start, len, count));
    }
    let mut back = FreqMap::new(size, elem);
    for &(start, len, count) in &runs {
        back.fill(start, len, count);
    }
    assert_eq!(back.counts(), model, "{what}: runs -> map");
}

#[test]
fn freqmap_runs_reproduce_counts() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let elem = range(&mut rng, 1, 17) as u32;
        // Sizes that elem_size does not divide are common here, and small
        // sizes give one-element maps.
        let size = range(&mut rng, 1, 400);
        let n = size.div_ceil(u64::from(elem)) as usize;
        let mut model = Vec::with_capacity(n);
        while model.len() < n {
            let count = match rng.next_below(4) {
                0 => 0,
                1 => u32::MAX,
                _ => range(&mut rng, 1, 4) as u32,
            };
            let len = range(&mut rng, 1, 9) as usize;
            model.extend(std::iter::repeat_n(count, len.min(n - model.len())));
        }
        assert_runs_reproduce(size, elem, &model, &format!("seed {seed}"));
    }
    // Edges pinned by hand: runs at element 0 and at the last element, a
    // one-element map, zeros only, and u32::MAX at both ends.
    assert_runs_reproduce(10, 4, &[7, 0, 7], "ends, partial last element");
    assert_runs_reproduce(3, 4, &[u32::MAX], "one element");
    assert_runs_reproduce(3, 4, &[0], "one zero element");
    assert_runs_reproduce(16, 4, &[0, 0, 0, 0], "all zero");
    assert_runs_reproduce(13, 1, &[u32::MAX; 13], "one run over the map");
    assert_runs_reproduce(
        20,
        4,
        &[u32::MAX, u32::MAX - 1, 1, 1, u32::MAX],
        "u32::MAX at both ends",
    );
}

/// The coefficient of variation as the collector computed it before
/// kernel-end statistics visited touched elements only: every nonzero
/// count copied into a `Vec<f64>`, the mean a sequential `f64` sum.
fn reference_cov_pct(counts: &[u32]) -> f64 {
    let values: Vec<f64> = counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| f64::from(c))
        .collect();
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (var.sqrt() / mean) * 100.0
}

/// A kernel's record stream over one object: `(offset, size)` pairs inside
/// `size` bytes. Pins the edges the kernel-end statistics must get right:
/// a trailing partial element, two ranges that share an element without
/// touching, and (when `uniform`) every touched element counted equally.
fn kernel_records(rng: &mut SplitMix64, size: u64, elem: u64, uniform: bool) -> Vec<(u64, u32)> {
    let mut recs = Vec::new();
    if uniform {
        // Disjoint element-aligned runs: each touched element counts 1.
        let mut off = range(rng, 0, 3) * elem;
        while off < size {
            let len = (range(rng, 1, 4) * elem).min(size - off);
            recs.push((off, len as u32));
            off += len + range(rng, 0, 3) * elem;
        }
        return recs;
    }
    for _ in 0..range(rng, 0, 40) {
        let off = range(rng, 0, size);
        let len = range(rng, 1, 3 * elem + 2).min(size - off);
        recs.push((off, len as u32));
    }
    if elem > 1 && size > 2 * elem {
        // One element, two ranges a byte apart.
        let e = range(rng, 0, size / elem - 1) * elem;
        recs.push((e, 1));
        recs.push((e + 2, (elem - 2).max(1) as u32));
    }
    // A record ending at the object's end, in its partial last element.
    recs.push((size - 1, 1));
    recs
}

#[test]
fn touched_only_statistics_match_the_whole_map() {
    let mut shared = 0;
    for seed in 0..CASES {
        for elem in [1u32, 3, 4, 12] {
            let mut rng = SplitMix64::new(seed * 16 + u64::from(elem));
            let w = u64::from(elem);
            let size = range(&mut rng, 1, 64) * w + range(&mut rng, 0, w);
            let size = size.max(1);
            let recs = kernel_records(&mut rng, size, w, seed % 4 == 0);
            let mut kernel = FreqMap::new(size, elem);
            let mut ranges = RangeSet::new();
            for &(off, len) in &recs {
                kernel.record(off, len);
                ranges.insert(off, off + u64::from(len));
            }
            shared += usize::from(ranges.ranges().windows(2).any(|p| p[0].1 / w == p[1].0 / w));
            let what = format!("seed {seed} elem {elem}");
            let reference = reference_cov_pct(kernel.counts()).to_bits();
            assert_eq!(
                kernel.coefficient_of_variation_pct().to_bits(),
                reference,
                "{what}"
            );
            assert_eq!(
                kernel.touched_cov_pct(&ranges).to_bits(),
                reference,
                "{what}"
            );
            assert_eq!(
                kernel.touched_histogram(&ranges),
                kernel.histogram(),
                "{what}"
            );
            if seed % 4 == 0 {
                assert_eq!(kernel.touched_cov_pct(&ranges), 0.0, "{what}: all equal");
            }
            // The lifetime map fed at kernel end equals the one fed per
            // record, saturating counts included.
            let mut before = FreqMap::new(size, elem);
            let n = before.len() as u64;
            for e in 0..n {
                let c = match rng.next_below(4) {
                    0 => 0,
                    1 => u32::MAX - rng.next_below(3) as u32,
                    _ => range(&mut rng, 1, 9) as u32,
                };
                before.fill(e, 1, c);
            }
            assert_eq!(
                before.coefficient_of_variation_pct().to_bits(),
                reference_cov_pct(before.counts()).to_bits(),
                "{what}: near-saturated counts"
            );
            let mut per_record = before.clone();
            for &(off, len) in &recs {
                per_record.record(off, len);
            }
            let mut at_end = before;
            at_end.add_touched(&kernel, &ranges);
            assert_eq!(at_end, per_record, "{what}");
        }
    }
    assert!(shared >= 20, "only {shared} cases with a shared element");
}

// ----------------------------------------------------- dependency graph

/// The dependency edges of Def. 5.1 plus stream order and event sync,
/// built directly: program order within a stream, event-sync predecessors,
/// then per object, in invocation order with an API's reads before its
/// writes and frees, RAW from the last writer, WAW from the last writer
/// when no read came between, and WAR from every reader since the last
/// write. An API never depends on itself.
fn oracle_edges(vertices: &[VertexAccess]) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    let mut last_on_stream: HashMap<StreamId, usize> = HashMap::new();
    let mut writer: HashMap<ObjectId, usize> = HashMap::new();
    let mut readers: HashMap<ObjectId, Vec<usize>> = HashMap::new();
    for (v, va) in vertices.iter().enumerate() {
        if let Some(prev) = last_on_stream.insert(va.stream, v) {
            edges.push((prev, v));
        }
        edges.extend(va.after.iter().filter(|&&p| p < v).map(|&p| (p, v)));
        for o in &va.reads {
            edges.extend(writer.get(o).filter(|&&w| w != v).map(|&w| (w, v)));
            readers.entry(*o).or_default().push(v);
        }
        for o in va.writes.iter().chain(&va.frees) {
            let since = readers.remove(o).unwrap_or_default();
            if since.is_empty() {
                edges.extend(writer.get(o).filter(|&&w| w != v).map(|&w| (w, v)));
            }
            edges.extend(since.into_iter().filter(|&r| r != v).map(|r| (r, v)));
            writer.insert(*o, v);
        }
    }
    edges
}

/// Kahn's algorithm with wave-shared timestamps: every vertex removed in
/// the same wave gets the same timestamp, one more than the wave before.
fn kahn_waves(n: usize, edges: &[(usize, usize)]) -> Vec<u64> {
    let mut indeg = vec![0usize; n];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(from, to) in edges {
        indeg[to] += 1;
        succ[from].push(to);
    }
    let mut ts = vec![0u64; n];
    let mut wave: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let (mut t, mut assigned) = (0u64, 0usize);
    while !wave.is_empty() {
        let mut next = Vec::new();
        for &v in &wave {
            ts[v] = t;
            assigned += 1;
            for &s in &succ[v] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    next.push(s);
                }
            }
        }
        wave = next;
        t += 1;
    }
    assert_eq!(assigned, n, "the dependency graph must be acyclic");
    ts
}

/// `count` object ids below 6, repeats allowed.
fn objects(rng: &mut SplitMix64, count: u64) -> ObjectList {
    (0..count).map(|_| ObjectId(range(rng, 0, 6))).collect()
}

#[test]
fn topological_timestamps_respect_all_edges() {
    let (mut synced, mut in_place, mut repeated, mut freed) = (0, 0, 0, 0);
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let len = range(&mut rng, 1, 60) as usize;
        let vertices: Vec<VertexAccess> = (0..len)
            .map(|v| {
                let n_reads = range(&mut rng, 0, 3);
                let n_writes = range(&mut rng, 0, 3);
                let n_frees = u64::from(rng.chance(0.15));
                let after = if v > 0 && rng.chance(0.2) {
                    vec![range(&mut rng, 0, v as u64) as usize]
                } else {
                    vec![]
                };
                VertexAccess {
                    stream: StreamId(range(&mut rng, 0, 4) as u32),
                    reads: objects(&mut rng, n_reads),
                    writes: objects(&mut rng, n_writes),
                    frees: objects(&mut rng, n_frees),
                    after,
                }
            })
            .collect();
        for va in &vertices {
            synced += usize::from(!va.after.is_empty());
            in_place += usize::from(va.reads.iter().any(|o| va.writes.contains(o)));
            let repeats =
                |set: &[ObjectId]| set.iter().enumerate().any(|(i, o)| set[..i].contains(o));
            repeated += usize::from(repeats(&va.reads) || repeats(&va.writes));
            freed += usize::from(!va.frees.is_empty());
        }
        let g = DependencyGraph::build(&vertices);
        for (from, to) in oracle_edges(&vertices) {
            assert!(
                g.timestamp(from) < g.timestamp(to),
                "seed {seed}: edge {from}->{to} violates topological order"
            );
        }
        assert_eq!(
            g.timestamps(),
            &kahn_waves(len, &oracle_edges(&vertices))[..],
            "seed {seed}: timestamps differ from the Kahn waves"
        );
        // Single-stream degenerates to invocation order.
        let single: Vec<VertexAccess> = vertices
            .iter()
            .map(|va| VertexAccess {
                stream: StreamId(0),
                ..va.clone()
            })
            .collect();
        let g1 = DependencyGraph::build(&single);
        let expect: Vec<u64> = (0..single.len() as u64).collect();
        assert_eq!(g1.timestamps(), &expect[..], "seed {seed}");
    }
    for (what, count) in [
        ("event-synced APIs", synced),
        ("in-place APIs", in_place),
        ("repeated ids", repeated),
        ("frees", freed),
    ] {
        assert!(
            count >= 20,
            "the generator must produce {what} (got {count})"
        );
    }
}

// ----------------------------------------------------- def/use lists

#[test]
fn object_list_matches_vec_model() {
    let (mut spilled, mut shrunk) = (0, 0);
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let mut list = ObjectList::new();
        let mut model: Vec<ObjectId> = Vec::new();
        for step in 0..range(&mut rng, 1, 40) {
            if rng.chance(0.75) {
                let id = ObjectId(range(&mut rng, 0, 5));
                list.push(id);
                model.push(id);
            } else {
                let (m, r) = (range(&mut rng, 2, 4), range(&mut rng, 0, 4));
                let keep = |o: &ObjectId| o.0 % m != r;
                let before = model.len();
                list.retain(keep);
                model.retain(keep);
                shrunk += usize::from(before > 2 && model.len() <= 2);
            }
            spilled += usize::from(model.len() == 3);
            assert_eq!(&list[..], &model[..], "seed {seed} step {step}");
            assert_eq!(list.iter().copied().collect::<Vec<_>>(), model);
            assert_eq!(format!("{list:?}"), format!("{model:?}"));
            let copy = list.clone();
            assert_eq!(copy, list, "seed {seed}: a clone is equal");
            // Equality is by contents, whichever way the ids are held.
            assert_eq!(model.iter().copied().collect::<ObjectList>(), list);
            let mut longer = copy;
            longer.push(ObjectId(9));
            assert_ne!(longer, list);
        }
    }
    assert!(
        spilled >= 20 && shrunk >= 5,
        "{spilled} spills, {shrunk} shrinks"
    );
}

// ------------------------------------------------------- between counts

/// The whole-trace scans the between counts once were: the reference
/// model for `TraceView`'s indexed counts.
fn scan_strictly_between(ts: &[u64], a: u64, b: u64) -> u64 {
    if b <= a {
        return 0;
    }
    ts.iter().filter(|&&t| t > a && t < b).count() as u64
}

fn scan_non_dealloc_strictly_between(ts: &[u64], dealloc: &[bool], a: u64, b: u64) -> u64 {
    if b <= a {
        return 0;
    }
    ts.iter()
        .zip(dealloc)
        .filter(|(&t, &d)| t > a && t < b && !d)
        .count() as u64
}

fn scan_non_dealloc_in_index_range(dealloc: &[bool], from: usize, to: usize) -> u64 {
    (from..to.min(dealloc.len()))
        .filter(|&i| !dealloc[i])
        .count() as u64
}

/// Topological timestamps of `n` random APIs on up to four streams: the
/// streams share timestamps, and a later API can carry an earlier one.
fn stream_timestamps(rng: &mut SplitMix64, n: usize) -> Vec<u64> {
    let vertices: Vec<VertexAccess> = (0..n)
        .map(|_| VertexAccess {
            stream: StreamId(range(rng, 0, 4) as u32),
            reads: ObjectList::from_iter([ObjectId(range(rng, 0, 8))]),
            writes: ObjectList::from_iter([ObjectId(range(rng, 0, 8))]),
            frees: ObjectList::new(),
            after: vec![],
        })
        .collect();
    DependencyGraph::build(&vertices).timestamps().to_vec()
}

#[test]
fn between_counts_match_linear_scans() {
    let mut unordered_cases = 0;
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xB7_0000 ^ seed);
        let n = range(&mut rng, 0, 80) as usize;
        let api_ts = if seed % 2 == 0 {
            stream_timestamps(&mut rng, n)
        } else {
            // Unordered draws from a narrow range: many repeats.
            (0..n)
                .map(|_| range(&mut rng, 0, n as u64 / 3 + 2))
                .collect()
        };
        if api_ts.windows(2).any(|w| w[1] < w[0]) {
            unordered_cases += 1;
        }
        let dealloc: Vec<bool> = (0..n).map(|_| rng.chance(0.3)).collect();
        let mut tv = TraceView::synthetic(n);
        tv.api_ts = api_ts.clone();
        tv.api_is_dealloc = dealloc.clone();

        let max_ts = api_ts.iter().copied().max().unwrap_or(0);
        let bound = |rng: &mut SplitMix64| match range(rng, 0, 8) {
            0 => 0,
            1 => u64::MAX,
            2 => max_ts + range(rng, 1, 4),
            _ => range(rng, 0, max_ts + 2),
        };
        for _ in 0..64 {
            let a = bound(&mut rng);
            let b = match range(&mut rng, 0, 4) {
                0 => a,
                1 => a.saturating_sub(range(&mut rng, 1, 4)),
                _ => bound(&mut rng),
            };
            assert_eq!(
                tv.apis_strictly_between(a, b),
                scan_strictly_between(&api_ts, a, b),
                "seed {seed}: apis_strictly_between({a}, {b})"
            );
            assert_eq!(
                tv.non_dealloc_apis_strictly_between(a, b),
                scan_non_dealloc_strictly_between(&api_ts, &dealloc, a, b),
                "seed {seed}: non_dealloc_apis_strictly_between({a}, {b})"
            );
            let from = range(&mut rng, 0, n as u64 + 4) as usize;
            let to = match range(&mut rng, 0, 4) {
                0 => from,
                1 => from.saturating_sub(range(&mut rng, 1, 4) as usize),
                2 => usize::MAX,
                _ => range(&mut rng, 0, n as u64 + 4) as usize,
            };
            assert_eq!(
                tv.non_dealloc_apis_in_index_range(from, to),
                scan_non_dealloc_in_index_range(&dealloc, from, to),
                "seed {seed}: non_dealloc_apis_in_index_range({from}, {to})"
            );
        }
    }
    assert!(
        unordered_cases >= CASES / 2,
        "the generator must produce timestamps out of trace order"
    );
}

// ------------------------------------------------- detector soundness

#[test]
fn object_level_findings_are_sound() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n_objects = range(&mut rng, 1, 20) as usize;
        let n_apis = 64;
        let mut tv = TraceView::synthetic(n_apis);
        for i in 0..n_objects {
            let alloc = range(&mut rng, 0, 16) as usize;
            let first = alloc + 1 + range(&mut rng, 0, 16) as usize;
            let last = first + range(&mut rng, 0, 16) as usize;
            let free = last + 1 + range(&mut rng, 0, 16) as usize;
            let freed = rng.chance(0.5);
            let mk = |idx: usize| ObjectAccess {
                api: ApiRef {
                    idx,
                    ts: idx as u64,
                    name: kerl(idx),
                },
                read: true,
                write: false,
            };
            let accesses = if first == last {
                vec![mk(first)]
            } else {
                vec![mk(first), mk(last)]
            };
            tv.objects.push(ObjectView {
                id: ObjectId(i as u64),
                label: format!("o{i}").into(),
                size: 512,
                alloc: Some(ApiRef {
                    idx: alloc,
                    ts: alloc as u64,
                    name: kerl(alloc),
                }),
                alloc_anchor: alloc,
                free: freed.then(|| ApiRef {
                    idx: free,
                    ts: free as u64,
                    name: kerl(free),
                }),
                free_anchor: None,
                accesses,
                analyzable: true,
            });
        }
        let thresholds = Thresholds::default();
        for finding in object_level::detect_all(&tv, &thresholds) {
            let obj = &tv.objects[finding.object.0 as usize];
            match &finding.evidence {
                PatternEvidence::EarlyAllocation { intervening, .. } => {
                    let alloc_ts = obj.alloc.as_ref().unwrap().ts;
                    let first_ts = obj.accesses.first().unwrap().api.ts;
                    assert!(*intervening >= 1, "seed {seed}");
                    assert_eq!(*intervening, first_ts - alloc_ts - 1, "seed {seed}");
                }
                PatternEvidence::LateDeallocation { intervening, .. } => {
                    let last_ts = obj.accesses.last().unwrap().api.ts;
                    let free_ts = obj.free.as_ref().unwrap().ts;
                    assert!(*intervening >= 1, "seed {seed}");
                    assert_eq!(*intervening, free_ts - last_ts - 1, "seed {seed}");
                }
                PatternEvidence::MemoryLeak => assert!(obj.free.is_none(), "seed {seed}"),
                PatternEvidence::UnusedAllocation => {
                    assert!(obj.accesses.is_empty(), "seed {seed}")
                }
                PatternEvidence::TemporaryIdleness { spans } => {
                    for s in spans {
                        assert!(s.intervening >= thresholds.idleness_min_apis, "seed {seed}");
                        assert_eq!(s.intervening, s.to.ts - s.from.ts - 1, "seed {seed}");
                    }
                }
                other => panic!("seed {seed}: unexpected evidence {other:?}"),
            }
        }
    }
}

#[test]
fn redundant_allocation_pairs_are_valid() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n_objects = range(&mut rng, 2, 20) as usize;
        let mut tv = TraceView::synthetic(64);
        for i in 0..n_objects {
            let first = range(&mut rng, 0, 30) as usize;
            let span = range(&mut rng, 0, 10) as usize;
            let size = range(&mut rng, 100, 2000);
            let last = (first + span).min(63);
            let mk = |idx: usize| ObjectAccess {
                api: ApiRef {
                    idx,
                    ts: idx as u64,
                    name: kerl(idx),
                },
                read: true,
                write: true,
            };
            let accesses = if first == last {
                vec![mk(first)]
            } else {
                vec![mk(first), mk(last)]
            };
            tv.objects.push(ObjectView {
                id: ObjectId(i as u64),
                label: format!("o{i}").into(),
                size,
                alloc: None,
                alloc_anchor: 0,
                free: None,
                free_anchor: None,
                accesses,
                analyzable: true,
            });
        }
        let findings = redundant::detect_redundant_allocations(&tv, 10.0);
        let pairs = redundant::reuse_pairs(&findings);
        let mut reused_sources = std::collections::HashSet::new();
        for (consumer, source) in &pairs {
            // Each source's memory handed out at most once.
            assert!(
                reused_sources.insert(*source),
                "seed {seed}: source reused twice"
            );
            let c = &tv.objects[consumer.0 as usize];
            let s = &tv.objects[source.0 as usize];
            // Disjoint lifetimes: the source's last access strictly before
            // the consumer's first (Last sorts after First on ties).
            let s_last = s.accesses.last().unwrap().api.ts;
            let c_first = c.accesses.first().unwrap().api.ts;
            assert!(
                s_last < c_first,
                "seed {seed}: lifetimes overlap: {s_last} !< {c_first}"
            );
            // Size window respected.
            assert!(
                redundant::sizes_compatible(c.size, s.size, 10.0),
                "seed {seed}"
            );
        }
    }
}

// ---------------------------------------------------- structured access

/// Def. 3.10 by brute force: every pair of a kernel's slices is compared
/// for shared bytes, and every footprint is scanned once per slice for its
/// lifetime. On equal coverage the kernel whose first instance comes first
/// in `per_api` wins. Returns `(kernel, slices, max slice bytes)` and how
/// many qualifying kernels share the winning coverage.
fn oracle_structured(
    data: &IntraObjectData,
    trace: &TraceView,
    min_slices: usize,
) -> (Option<(String, usize, u64)>, usize) {
    let mut per_kernel: Vec<(&str, Vec<&RangeSet>)> = Vec::new();
    for (api_idx, rs) in &data.per_api {
        if rs.is_empty() {
            continue;
        }
        if let Some(Some(kernel)) = trace.api_kernels.get(*api_idx) {
            match per_kernel.iter_mut().find(|(k, _)| *k == &**kernel) {
                Some((_, slices)) => slices.push(rs),
                None => per_kernel.push((kernel, vec![rs])),
            }
        }
    }
    let mut best: Option<(u64, usize, &str, u64)> = None;
    let mut qualifying_coverage = Vec::new();
    'kernels: for (kernel, slices) in &per_kernel {
        if slices.len() < min_slices {
            continue;
        }
        for i in 0..slices.len() {
            for j in i + 1..slices.len() {
                if slices[i].intersects(slices[j]) {
                    continue 'kernels;
                }
            }
        }
        let mut lifetimes: Vec<(u64, u64)> = Vec::with_capacity(slices.len());
        for slice in slices {
            let mut lo = u64::MAX;
            let mut hi = 0u64;
            for (api_idx, rs) in &data.per_api {
                if rs.intersects(slice) {
                    let ts = trace.api_ts.get(*api_idx).copied().unwrap_or(0);
                    lo = lo.min(ts);
                    hi = hi.max(ts);
                }
            }
            lifetimes.push((lo, hi));
        }
        lifetimes.sort_unstable();
        for w in lifetimes.windows(2) {
            if w[1].0 <= w[0].1 {
                continue 'kernels;
            }
        }
        let covered: u64 = slices.iter().map(|rs| rs.covered()).sum();
        let max_slice = slices.iter().map(|rs| rs.covered()).max().unwrap_or(0);
        qualifying_coverage.push(covered);
        if best.map(|(c, _, _, _)| covered > c).unwrap_or(true) {
            best = Some((covered, slices.len(), kernel, max_slice));
        }
    }
    let ties = best.map_or(0, |(c, ..)| {
        qualifying_coverage.iter().filter(|&&q| q == c).count()
    });
    let finding = best.map(|(_, slices, kernel, max)| (kernel.to_owned(), slices, max));
    (finding, ties)
}

/// A random object footprint history over a random trace: kernels that
/// walk disjoint (often abutting) chunks, mixed with copies and other
/// kernels touching random, identical, multi-range, empty or whole-object
/// footprints, at timestamps with repeats.
fn structured_case(rng: &mut SplitMix64) -> (IntraObjectData, TraceView, usize) {
    const SIZE: u64 = 1024;
    let n = range(rng, 0, 24) as usize;
    let mut tv = TraceView::synthetic(n);
    let mut t = 0;
    tv.api_ts = (0..n)
        .map(|_| {
            t += u64::from(rng.chance(0.7));
            t
        })
        .collect();
    tv.api_kernels = (0..n)
        .map(|_| match range(rng, 0, 5) {
            0 => None,
            k => Some(format!("k{}", k % 3).into()),
        })
        .collect();
    let noise = [0.0, 0.1, 0.3, 0.6][range(rng, 0, 4) as usize];
    let chunk = 16 * range(rng, 1, 5);
    let mut cursors = [0, 256, 512];
    let mut data = IntraObjectData::new(ObjectId(0), SIZE);
    for idx in 0..n + 2 {
        // The two positions past the trace are dangling API indices.
        if (idx >= n && !rng.chance(0.1)) || !rng.chance(0.8) {
            continue;
        }
        let mut rs = RangeSet::new();
        let kernel = tv.api_kernels.get(idx).cloned().flatten();
        match (kernel, rng.chance(noise)) {
            (Some(k), false) => {
                let cursor = &mut cursors[usize::from(k.as_bytes()[1] - b'0')];
                if rng.chance(0.3) {
                    // A multi-range slice with a hole in it.
                    rs.insert(*cursor, *cursor + chunk / 4);
                    rs.insert(*cursor + chunk / 2, *cursor + chunk);
                } else {
                    rs.insert(*cursor, *cursor + chunk);
                }
                *cursor += chunk;
            }
            _ => match range(rng, 0, 5) {
                0 => {}
                1 => rs.insert(0, SIZE),
                2 => {
                    if let Some((_, prev)) = data.per_api.last() {
                        rs = prev.clone();
                    }
                }
                _ => {
                    for _ in 0..range(rng, 1, 4) {
                        let s = 16 * range(rng, 0, SIZE / 16);
                        rs.insert(s, s + 16 * range(rng, 1, 8));
                    }
                }
            },
        }
        data.per_api.push((idx, rs));
    }
    (data, tv, range(rng, 1, 4) as usize)
}

#[test]
fn structured_access_matches_pairwise_oracle() {
    let (mut found, mut tied) = (0, 0);
    for seed in 0..CASES * 8 {
        let mut rng = SplitMix64::new(0x5A_0000 ^ seed);
        let (data, tv, min_slices) = structured_case(&mut rng);
        let thresholds = Thresholds {
            structured_min_slices: min_slices,
            ..Thresholds::default()
        };
        let got =
            intra::detect_structured_access(&data, &tv, &thresholds).map(|f| match f.evidence {
                PatternEvidence::StructuredAccess {
                    kernel,
                    slices,
                    max_slice_bytes,
                } => (kernel, slices, max_slice_bytes),
                other => panic!("seed {seed}: unexpected {other:?}"),
            });
        let (want, ties) = oracle_structured(&data, &tv, min_slices);
        assert_eq!(got, want, "seed {seed}: {:?}", data.per_api);
        found += usize::from(want.is_some());
        tied += usize::from(ties > 1);
    }
    assert!(
        found >= CASES as usize && tied >= 8,
        "the generator must exercise findings ({found}) and coverage ties ({tied})"
    );
}

// --------------------------------------------------------------- peaks

#[test]
fn peaks_are_true_local_maxima() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let len = range(&mut rng, 1, 80) as usize;
        let curve: Vec<u64> = (0..len).map(|_| range(&mut rng, 0, 1000)).collect();
        let samples: Vec<drgpum::profiler::peaks::UsageSample> = curve
            .iter()
            .enumerate()
            .map(|(i, &b)| drgpum::profiler::peaks::UsageSample {
                api_idx: i,
                bytes_in_use: b,
            })
            .collect();
        let peaks = drgpum::profiler::peaks::find_peaks(&samples, 3);
        let global_max = curve.iter().copied().max().unwrap_or(0);
        if global_max > 0 {
            assert!(
                !peaks.is_empty(),
                "seed {seed}: a nonzero curve has at least one peak"
            );
            assert_eq!(
                peaks[0].1, global_max,
                "seed {seed}: first peak is the global maximum"
            );
        }
        for (idx, bytes) in &peaks {
            assert_eq!(
                curve[*idx], *bytes,
                "seed {seed}: peak value comes from the curve"
            );
            // No strictly larger neighbour on either side until the value
            // changes (local maximum over distinct values).
            if *idx > 0 {
                assert!(curve[idx - 1] <= *bytes, "seed {seed}");
            }
            if idx + 1 < curve.len() {
                assert!(curve[idx + 1] <= *bytes, "seed {seed}");
            }
        }
    }
}

/// The two-way scan `find_peaks` once was — for each sample, a walk back
/// to the previous distinct value and forward to the next one — kept as
/// the reference model for the one-pass run scan.
fn scan_peaks(curve: &[UsageSample], top_k: usize) -> Vec<(usize, u64)> {
    if curve.is_empty() || top_k == 0 {
        return Vec::new();
    }
    let mut maxima: Vec<(usize, u64)> = Vec::new();
    let n = curve.len();
    for i in 0..n {
        let b = curve[i].bytes_in_use;
        if b == 0 {
            continue;
        }
        let rising = {
            let mut j = i;
            loop {
                if j == 0 {
                    break true;
                }
                j -= 1;
                let pb = curve[j].bytes_in_use;
                if pb < b {
                    break true;
                }
                if pb > b {
                    break false;
                }
            }
        };
        let plateau_follower = i > 0 && curve[i - 1].bytes_in_use == b;
        let falling_after = {
            let mut j = i + 1;
            loop {
                if j >= n {
                    break true;
                }
                let nb = curve[j].bytes_in_use;
                if nb < b {
                    break true;
                }
                if nb > b {
                    break false;
                }
                j += 1;
            }
        };
        if rising && falling_after && !plateau_follower {
            maxima.push((curve[i].api_idx, b));
        }
    }
    maxima.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    maxima.truncate(top_k);
    maxima
}

fn usage(values: &[u64]) -> Vec<UsageSample> {
    values
        .iter()
        .enumerate()
        .map(|(i, &b)| UsageSample {
            api_idx: i,
            bytes_in_use: b,
        })
        .collect()
}

#[test]
fn peaks_match_the_two_way_scan() {
    let (mut plateaus, mut equal_peaks) = (0, 0);
    for seed in 0..4 * CASES {
        let mut rng = SplitMix64::new(seed);
        // Runs of one to six equal values from a small alphabet with zero:
        // plateaus, zero gaps and equal peaks in most curves.
        let mut curve = Vec::new();
        for _ in 0..range(&mut rng, 0, 30) {
            let v = [0, 0, 100, 200, 300, 400][range(&mut rng, 0, 6) as usize];
            let run = range(&mut rng, 1, 7);
            plateaus += usize::from(v > 0 && run > 1);
            curve.extend(std::iter::repeat_n(v, run as usize));
        }
        let samples = usage(&curve);
        for top_k in 0..=4 {
            let expect = scan_peaks(&samples, top_k);
            equal_peaks += usize::from(expect.windows(2).any(|w| w[0].1 == w[1].1));
            assert_eq!(
                find_peaks(&samples, top_k),
                expect,
                "seed {seed} top_k {top_k}"
            );
        }
    }
    assert!(
        plateaus >= 100 && equal_peaks >= 20,
        "{plateaus} plateaus, {equal_peaks} ties"
    );
    // A launch loop with no allocation is one long plateau: the scan is
    // linear, so a million samples take milliseconds.
    let mut curve = vec![7u64; 1_000_000];
    assert_eq!(find_peaks(&usage(&curve), 2), vec![(0, 7)]);
    curve[0] = 3;
    curve.push(5);
    assert_eq!(find_peaks(&usage(&curve), 2), vec![(1, 7)]);
}

// ------------------------------------------------------------ memory map

type LiveMap = std::collections::BTreeMap<u64, (ObjectId, u64)>;

/// Reference model of the registry's memory map: two live maps keyed by
/// base address, fed the same alloc/free stream as the registry. API
/// objects (`cudaMalloc`, slabs included) and pool tensors live in separate
/// maps, so a tensor at its slab's base replaces nothing; a `cudaFree`
/// retires only an API object and a pool free only a tensor.
#[derive(Default)]
struct LiveMapModel {
    apis: LiveMap,
    tensors: LiveMap,
}

impl LiveMapModel {
    fn alloc(&mut self, id: ObjectId, base: u64, size: u64, tensor: bool) {
        let map = if tensor {
            &mut self.tensors
        } else {
            &mut self.apis
        };
        assert!(map.insert(base, (id, base + size)).is_none());
    }

    fn free(&mut self, base: u64) -> Option<ObjectId> {
        self.apis.remove(&base).map(|(id, _)| id)
    }

    fn pool_free(&mut self, base: u64) -> Option<ObjectId> {
        self.tensors.remove(&base).map(|(id, _)| id)
    }

    fn live(&self) -> usize {
        self.apis.len() + self.tensors.len()
    }

    /// A tensor containing `addr` wins over the API object around it. Each
    /// map is walked downward from `addr` to the first object containing it.
    fn resolve(&self, addr: u64) -> Option<ObjectId> {
        let find = |map: &LiveMap| {
            map.range(..=addr)
                .rev()
                .find(|(_, &(_, end))| addr < end)
                .map(|(_, &(id, _))| id)
        };
        find(&self.tensors).or_else(|| find(&self.apis))
    }
}

/// A live pool tensor in the property test: `parent` is its slab's base.
#[derive(Clone, Copy)]
struct LiveTensor {
    parent: u64,
    base: u64,
    len: u64,
    id: ObjectId,
}

/// A probe address: mostly inside a live slab, half of those in the slab
/// bytes outside its tensor (where the slab must win), with a tail of
/// uniform addresses (mostly misses). `edge` extra bytes past a slab's end
/// probe the boundary-miss case.
fn probe_addr(
    rng: &mut SplitMix64,
    slabs: &[(u64, u64)],
    tensors: &[LiveTensor],
    capacity: u64,
    edge: u64,
) -> u64 {
    if slabs.is_empty() || !rng.chance(0.8) {
        return range(rng, 0, capacity);
    }
    let (base, size) = slabs[range(rng, 0, slabs.len() as u64) as usize];
    match tensors.iter().find(|t| t.parent == base) {
        Some(t) if rng.chance(0.5) => {
            let before = t.base - base;
            let after = base + size - (t.base + t.len);
            let k = range(rng, 0, before + after);
            if k < before {
                base + k
            } else {
                t.base + t.len + (k - before)
            }
        }
        _ => base.wrapping_add(range(rng, 0, size + edge)),
    }
}

/// Retires the slab at `base` in both the registry and the model: its tensor
/// (if any) first through the pool, as a pool returns its tensors before
/// releasing the slab, then the slab itself through `cudaFree`.
fn free_slab(
    reg: &mut drgpum::profiler::object::ObjectRegistry,
    model: &mut LiveMapModel,
    dev: &mut DeviceAllocator,
    tensors: &mut Vec<LiveTensor>,
    base: u64,
    api: usize,
) {
    use gpu_sim::DevicePtr;
    if let Some(i) = tensors.iter().position(|t| t.parent == base) {
        let t = tensors.swap_remove(i);
        assert_eq!(reg.on_pool_free(DevicePtr::new(t.base), api), Some(t.id));
        assert_eq!(model.pool_free(t.base), Some(t.id));
    }
    dev.free(DevicePtr::new(base)).unwrap();
    let freed = reg.on_free(DevicePtr::new(base), api);
    assert!(freed.is_some(), "free of live slab {base:#x}");
    assert_eq!(freed, model.free(base));
}

/// The registry's resolvers — two live maps, last-hit [`ResolveCache`],
/// span splitting — against [`LiveMapModel`].
/// Randomized alloc/free/realloc sequences run through the real
/// [`DeviceAllocator`], so freed address ranges are genuinely reused
/// (first-fit + coalescing), and the persistent cache carried across
/// mutations exercises stale-window invalidation: a hit on an epoch bumped
/// by a free or a same-base realloc would surface here as a wrong id.
/// A third of the pool tensors sit at their slab's base and a third end at
/// its last byte: the placements where one base-keyed map loses the slab or
/// a window is clipped at the wrong boundary. Spans must split exactly
/// where the innermost object changes, no more and no less.
#[test]
fn registry_fast_resolvers_match_btreemap_oracle() {
    use drgpum::profiler::object::{ObjectRegistry, ObjectSource, ResolveCache, SpanSegment};
    use gpu_sim::{AddrRange, DevicePtr};

    const CAPACITY: u64 = 1 << 20;

    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x5EED_0000 ^ seed);
        let mut reg = ObjectRegistry::new();
        let mut model = LiveMapModel::default();
        let mut dev = DeviceAllocator::new(CAPACITY);
        // (base, size) of live CUDA objects; at most one tensor per slab.
        let mut slabs: Vec<(u64, u64)> = Vec::new();
        let mut tensors: Vec<LiveTensor> = Vec::new();
        // One persistent cache across every mutation: epoch invalidation is
        // the property under test, so the cache is never reset by hand.
        let mut cache = ResolveCache::new();
        for api in 0..120usize {
            let roll = range(&mut rng, 0, 100);
            if roll < 40 || slabs.is_empty() {
                // Allocation; small sizes keep the map dense so reuse and
                // adjacency are common.
                let size = range(&mut rng, 1, 8192);
                if let Ok(info) = dev.malloc(size) {
                    let id = reg.on_alloc(
                        "obj",
                        AddrRange::new(info.ptr, size),
                        ObjectSource::Cuda,
                        api,
                        true,
                        PathId(0),
                    );
                    model.alloc(id, info.ptr.addr(), size, false);
                    slabs.push((info.ptr.addr(), size));
                }
            } else if roll < 55 {
                // Carve a pool tensor inside a live slab (innermost-wins is
                // part of the resolve contract): at the slab's base, flush
                // with its end, or anywhere between.
                let n = range(&mut rng, 0, slabs.len() as u64) as usize;
                let (base, size) = slabs[n];
                let has = tensors.iter().any(|t| t.parent == base);
                if !has && size >= 64 {
                    let len = range(&mut rng, 1, size / 2);
                    let off = match range(&mut rng, 0, 3) {
                        0 => 0,
                        1 => size - len,
                        _ => range(&mut rng, 0, size - len),
                    };
                    let id = reg.on_alloc(
                        "tensor",
                        AddrRange::new(DevicePtr::new(base + off), len),
                        ObjectSource::PoolTensor,
                        api,
                        false,
                        PathId(0),
                    );
                    model.alloc(id, base + off, len, true);
                    tensors.push(LiveTensor {
                        parent: base,
                        base: base + off,
                        len,
                        id,
                    });
                }
            } else if roll < 62 {
                // `cudaFree` of a tensor's base: an unknown free unless the
                // tensor sits at its slab's base (then the slab goes).
                let Some(&t) = tensors.get(range(&mut rng, 0, 8) as usize) else {
                    continue;
                };
                if t.base == t.parent {
                    free_slab(&mut reg, &mut model, &mut dev, &mut tensors, t.parent, api);
                    slabs.retain(|&(b, _)| b != t.parent);
                } else {
                    let live = reg.live_count();
                    assert_eq!(reg.on_free(DevicePtr::new(t.base), api), None);
                    assert_eq!(model.free(t.base), None);
                    assert_eq!(reg.live_count(), live, "seed {seed}");
                    assert!(reg.get(t.id).unwrap().leaked(), "seed {seed}");
                    let slab = reg.resolve(DevicePtr::new(t.parent)).unwrap();
                    assert!(reg.get(slab).unwrap().leaked(), "seed {seed}");
                }
            } else if roll < 85 {
                // Free a random live object.
                let n = range(&mut rng, 0, slabs.len() as u64) as usize;
                let (base, _) = slabs.swap_remove(n);
                free_slab(&mut reg, &mut model, &mut dev, &mut tensors, base, api);
            } else {
                // Realloc: free + immediately malloc the same size. With a
                // first-fit allocator the same base usually comes back, so
                // the old id's window now covers a different object.
                let n = range(&mut rng, 0, slabs.len() as u64) as usize;
                let (base, size) = slabs.swap_remove(n);
                free_slab(&mut reg, &mut model, &mut dev, &mut tensors, base, api);
                if let Ok(info) = dev.malloc(size) {
                    let id = reg.on_alloc(
                        "realloc",
                        AddrRange::new(info.ptr, size),
                        ObjectSource::Cuda,
                        api,
                        true,
                        PathId(0),
                    );
                    model.alloc(id, info.ptr.addr(), size, false);
                    slabs.push((info.ptr.addr(), size));
                }
            }
            assert_eq!(reg.live_count(), model.live(), "seed {seed}");

            // Point probes.
            for _ in 0..24 {
                let addr = probe_addr(&mut rng, &slabs, &tensors, CAPACITY, 8);
                let p = DevicePtr::new(addr);
                let oracle = model.resolve(addr);
                assert_eq!(reg.resolve(p), oracle, "seed {seed}: resolve @ {addr:#x}");
                let fast = reg.resolve_cached(p, &mut cache);
                assert_eq!(
                    fast.map(|(id, _)| id),
                    oracle,
                    "seed {seed}: resolve_cached @ {addr:#x}"
                );
                if let Some((id, off)) = fast {
                    let base = reg.get(id).unwrap().range.start.addr();
                    assert_eq!(off, addr - base, "seed {seed}: offset @ {addr:#x}");
                    // Re-probe: the freshly filled window must agree with
                    // itself (the pure-hit path).
                    assert_eq!(reg.resolve_cached(p, &mut cache), Some((id, off)));
                }
            }

            // Span probe against the oracle's runs: one segment per maximal
            // run of bytes with the same innermost object, gaps omitted.
            let start = probe_addr(&mut rng, &slabs, &tensors, CAPACITY, 0);
            let len = range(&mut rng, 0, 300);
            let mut segs = Vec::new();
            reg.resolve_span(DevicePtr::new(start), len, &mut segs);
            // The cached form, fed the persistent cache, splits identically.
            let mut cached = Vec::new();
            reg.resolve_span_cached(DevicePtr::new(start), len, &mut cache, &mut cached);
            assert_eq!(
                cached, segs,
                "seed {seed}: resolve_span_cached [{start:#x}; {len})"
            );
            let mut want: Vec<SpanSegment> = Vec::new();
            for addr in start..start + len.max(1) {
                let Some(object) = model.resolve(addr) else {
                    continue;
                };
                let offset = addr - reg.get(object).unwrap().range.start.addr();
                match want.last_mut() {
                    Some(s) if s.object == object && s.offset + s.len == offset => s.len += 1,
                    _ => want.push(SpanSegment {
                        object,
                        offset,
                        len: u64::from(len > 0),
                    }),
                }
            }
            assert_eq!(segs, want, "seed {seed}: resolve_span [{start:#x}; {len})");
        }
    }
}

// ------------------------------------------------------- event ordering

/// One step of a random multi-stream program.
#[derive(Debug, Clone, Copy)]
enum StreamOp {
    CreateStream,
    CreateEvent,
    /// Record event `.0` on stream `.1` (indices into the created lists).
    Record(usize, usize),
    /// Stream `.0` waits on event `.1`.
    Wait(usize, usize),
    Launch(usize),
    Memset(usize),
    CopyIn(usize),
}

fn stream_ops(rng: &mut SplitMix64) -> Vec<StreamOp> {
    let len = range(rng, 10, 80) as usize;
    (0..len)
        .map(|_| {
            let s = range(rng, 0, 6) as usize;
            let e = range(rng, 0, 4) as usize;
            match range(rng, 0, 100) {
                0..=9 => StreamOp::CreateStream,
                10..=19 => StreamOp::CreateEvent,
                20..=39 => StreamOp::Record(e, s),
                40..=59 => StreamOp::Wait(s, e),
                60..=74 => StreamOp::Launch(s),
                75..=87 => StreamOp::Memset(s),
                _ => StreamOp::CopyIn(s),
            }
        })
        .collect()
}

/// The event-ordering edges of Sec. 5.3, kept in hash maps: each GPU API
/// comes after the APIs its stream's pending waits name. A wait names the
/// API its event was last recorded after; an event recorded on a stream
/// that has run no GPU API yet, and an event never recorded, name none.
#[derive(Default)]
struct EventModel {
    last_api: HashMap<u32, usize>,
    recorded_after: HashMap<u32, usize>,
    pending: HashMap<u32, Vec<usize>>,
    after: Vec<Vec<usize>>,
}

impl EventModel {
    fn gpu_api(&mut self, stream: StreamId) {
        let idx = self.after.len();
        self.after
            .push(self.pending.remove(&stream.0).unwrap_or_default());
        self.last_api.insert(stream.0, idx);
    }

    fn record(&mut self, event: u32, stream: StreamId) {
        match self.last_api.get(&stream.0) {
            Some(&idx) => self.recorded_after.insert(event, idx),
            None => self.recorded_after.remove(&event),
        };
    }

    fn wait(&mut self, stream: StreamId, event: u32) {
        if let Some(&idx) = self.recorded_after.get(&event) {
            self.pending.entry(stream.0).or_default().push(idx);
        }
    }
}

#[test]
fn event_edges_match_hash_map_model() {
    use drgpum::prelude::{DeviceContext, LaunchConfig, Profiler, ProfilerOptions};
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xE7E7_0000 ^ seed);
        let mut ctx = DeviceContext::new_default();
        let profiler = Profiler::attach(&mut ctx, ProfilerOptions::object_level());
        let mut model = EventModel::default();
        let buf = ctx.malloc(64, "buf").unwrap();
        model.gpu_api(StreamId::DEFAULT);
        let mut streams = vec![StreamId::DEFAULT];
        let mut events = Vec::new();
        let cfg = LaunchConfig::cover(4, 4).unwrap();
        for op in stream_ops(&mut rng) {
            // Indices past the created lists wrap; an op on an event before
            // any exists is skipped.
            let stream = |i: usize| streams[i % streams.len()];
            match op {
                StreamOp::CreateStream => streams.push(ctx.create_stream()),
                StreamOp::CreateEvent => events.push(ctx.create_event()),
                StreamOp::Record(e, s) if !events.is_empty() => {
                    let (ev, s) = (events[e % events.len()], stream(s));
                    ctx.record_event(ev, s).unwrap();
                    model.record(ev.0, s);
                }
                StreamOp::Wait(s, e) if !events.is_empty() => {
                    let (s, ev) = (stream(s), events[e % events.len()]);
                    ctx.wait_event(s, ev).unwrap();
                    model.wait(s, ev.0);
                }
                StreamOp::Record(..) | StreamOp::Wait(..) => {}
                StreamOp::Launch(s) => {
                    let s = stream(s);
                    ctx.launch("k", cfg, s, move |t| {
                        let i = t.global_x();
                        if i < 16 {
                            t.store_f32(buf + i * 4, 1.0);
                        }
                    })
                    .unwrap();
                    model.gpu_api(s);
                }
                StreamOp::Memset(s) => {
                    let s = stream(s);
                    ctx.memset_on(buf, 0, 64, s).unwrap();
                    model.gpu_api(s);
                }
                StreamOp::CopyIn(s) => {
                    let s = stream(s);
                    ctx.memcpy_h2d_on(buf, &[1u8; 64], s).unwrap();
                    model.gpu_api(s);
                }
            }
        }
        let collector = profiler.collector();
        let collector = collector.lock();
        let after: Vec<Vec<usize>> = collector
            .gpu_apis()
            .iter()
            .map(|a| a.vertex.after.clone())
            .collect();
        assert_eq!(after, model.after, "seed {seed}");
    }
}

// ------------------------------------------------------- trace details

/// A JSON string as the trace writer escapes it: `"` and `\` behind a
/// backslash, control characters as `\u00xx`, everything else verbatim.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => out += &format!("\\u{:04x}", u32::from(c)),
            c => out.push(c),
        }
    }
    out + "\""
}

/// A finished trace: header, meta, the delta payloads, a checkpoint over
/// `apis` rows, and the finish marker — framed exactly as the writer
/// frames them.
fn framed_trace(deltas: &[String], apis: usize) -> String {
    let mut text = String::from("DRGPUM-TRACE 5\n");
    let meta = r#"["rtx3090"]"#.to_owned();
    let checkpoint = format!("[{apis},[],[]]");
    let frames = std::iter::once(("meta", &meta))
        .chain(deltas.iter().map(|d| ("delta", d)))
        .chain([("checkpoint", &checkpoint)]);
    for (name, payload) in frames {
        text += &format!(
            "section {name} {} {}\n{payload}\n",
            payload.len(),
            trace_io::crc32(payload.as_bytes())
        );
    }
    text + "end\n"
}

/// Whether a copy or set row's `text` is exactly what a byte count
/// renders: canonical decimal digits, `B `, and the kind's word.
fn renders_as_bytes(kind: GpuApiKind, text: &str) -> bool {
    let Some((count, word)) = text.split_once("B ") else {
        return false;
    };
    let words: &[&str] = match kind {
        GpuApiKind::Cpy => &["H2D", "D2H", "D2D"],
        _ => &["set"],
    };
    count.parse::<u64>().is_ok_and(|n| n.to_string() == count) && words.contains(&word)
}

/// A short name with quotes, backslashes, control characters and
/// non-ASCII characters, from a small alphabet so that texts repeat.
fn odd_name(rng: &mut SplitMix64) -> String {
    const CHARS: [char; 10] = ['k', 'b', '_', '"', '\\', '\n', '\u{1}', '\t', 'é', ' '];
    (0..range(rng, 0, 4))
        .map(|_| CHARS[range(rng, 0, CHARS.len() as u64) as usize])
        .collect()
}

const ODD_BYTES: [&str; 10] = [
    "007B H2D",
    "12B h2d",
    "5B D2D",
    "18446744073709551616B H2D",
    "B H2D",
    "1B  H2D",
    "0B set",
    "00B set",
    "18446744073709551615B D2H",
    "64B set ",
];

#[test]
fn loaded_details_render_their_source_text() {
    let (mut bytes, mut texts, mut shared, mut split) = (0, 0, 0, 0);
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(seed);
        let n = range(&mut rng, 1, 40) as usize;
        // Rows, with the objects their ALLOCs define and FREEs retire;
        // object ids are sparse (3 i + 1).
        let mut rows = Vec::new();
        let mut objects: Vec<(u64, String, usize, Option<usize>)> = Vec::new();
        for i in 0..n {
            let kind = [
                GpuApiKind::Alloc,
                GpuApiKind::Free,
                GpuApiKind::Cpy,
                GpuApiKind::Set,
                GpuApiKind::Kerl,
            ][range(&mut rng, 0, 5) as usize];
            let live = objects.iter().position(|o| o.3.is_none());
            let (text, writes, frees) = match kind {
                GpuApiKind::Alloc => {
                    let label = odd_name(&mut rng);
                    let id = 3 * i as u64 + 1;
                    objects.push((id, label.clone(), i, None));
                    (label, vec![id], vec![])
                }
                // A FREE of a live object carries its label; otherwise it
                // frees a pointer no object owns.
                GpuApiKind::Free => match live.filter(|_| rng.chance(0.7)) {
                    Some(o) => {
                        objects[o].3 = Some(i);
                        (objects[o].1.clone(), vec![], vec![objects[o].0])
                    }
                    None => (odd_name(&mut rng), vec![], vec![]),
                },
                GpuApiKind::Kerl => (odd_name(&mut rng), vec![], vec![]),
                _ if rng.chance(0.5) => {
                    let word = match kind {
                        GpuApiKind::Cpy => ["H2D", "D2H", "D2D"][range(&mut rng, 0, 3) as usize],
                        _ => "set",
                    };
                    let count = rng.next_u64() >> range(&mut rng, 0, 64);
                    (format!("{count}B {word}"), vec![], vec![])
                }
                _ if rng.chance(0.6) => {
                    let odd = ODD_BYTES[range(&mut rng, 0, ODD_BYTES.len() as u64) as usize];
                    (odd.to_owned(), vec![], vec![])
                }
                _ => (odd_name(&mut rng), vec![], vec![]),
            };
            let ids = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            let row = format!(
                "[{},{},0,{i},[],[{}],[{}],[],{},{},0]",
                json_str(kind.mnemonic()),
                json_str(&text),
                ids(&writes),
                ids(&frees),
                10 * i,
                10 * i + 5
            );
            rows.push((kind, text, row));
        }
        let object_row = |(id, label, alloc, free): &(u64, String, usize, Option<usize>)| {
            let free = free.map_or("null".to_owned(), |f| f.to_string());
            let freed = free != "null";
            format!(
                "[{id},{},64,\"cuda\",{alloc},true,{free},{freed},0]",
                json_str(label)
            )
        };
        // Cut the rows into delta frames; each object row travels with
        // its ALLOC, already carrying the FREE that may come frames later.
        let cuts: Vec<usize> = (0..n)
            .filter(|&i| i > 0 && rng.chance(0.2))
            .chain([n])
            .collect();
        let mut deltas = Vec::new();
        let mut from = 0;
        for &to in &cuts {
            let paths = if from == 0 {
                r#"[["main @ app.rs:1"]]"#
            } else {
                "[]"
            };
            let apis: Vec<&str> = rows[from..to].iter().map(|r| r.2.as_str()).collect();
            let objs: Vec<String> = objects
                .iter()
                .filter(|o| (from..to).contains(&o.2))
                .map(object_row)
                .collect();
            deltas.push(format!(
                "[{paths},[{}],[{}],[],[]]",
                apis.join(","),
                objs.join(",")
            ));
            from = to;
        }
        let text = framed_trace(&deltas, n);
        let saved = trace_io::load(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let mut first: HashMap<&str, &std::sync::Arc<str>> = HashMap::new();
        for (i, (kind, source, _)) in rows.iter().enumerate() {
            let detail = saved.api_detail(i).expect("every row loads");
            assert_eq!(detail.to_string(), *source, "seed {seed} row {i}");
            let shared_text = match (kind, detail) {
                (GpuApiKind::Cpy | GpuApiKind::Set, ApiDetail::Bytes(..)) => {
                    assert!(renders_as_bytes(*kind, source), "seed {seed}: {source:?}");
                    bytes += 1;
                    None
                }
                (GpuApiKind::Cpy | GpuApiKind::Set, ApiDetail::Text(_)) => {
                    assert!(!renders_as_bytes(*kind, source), "seed {seed}: {source:?}");
                    texts += 1;
                    None
                }
                (GpuApiKind::Kerl, ApiDetail::Kernel(s)) => Some(s),
                (GpuApiKind::Alloc | GpuApiKind::Free, ApiDetail::Label(s)) => Some(s),
                other => panic!("seed {seed} row {i}: {other:?}"),
            };
            // One load holds each kernel name or label once, across frames.
            if let Some(s) = shared_text {
                let owner = *first.entry(source.as_str()).or_insert(s);
                assert!(std::sync::Arc::ptr_eq(owner, s), "seed {seed} row {i}");
                shared += usize::from(!std::ptr::eq(owner, s));
            }
        }
        split += usize::from(
            objects
                .iter()
                .any(|o| o.3.is_some_and(|f| cuts.iter().any(|&c| o.2 < c && c <= f))),
        );
        // Save, load, save: byte-identical; a one-frame trace is already
        // in the writer's form.
        let resaved = saved.to_text();
        if deltas.len() == 1 {
            assert_eq!(resaved, text, "seed {seed}");
        }
        let again = trace_io::load(&resaved).expect("a saved trace loads");
        assert_eq!(again.to_text(), resaved, "seed {seed}");
    }
    assert!(
        bytes >= 50 && texts >= 50,
        "{bytes} byte counts, {texts} texts"
    );
    assert!(
        shared >= 50 && split >= 10,
        "{shared} shared texts, {split} split frees"
    );
}

// ------------------------------------------------- sanitizer coalescing

/// Everything a tool can observe of a kernel's accesses: the hit-flag
/// summary of each kernel and every delivered record.
#[derive(Default)]
struct Capture {
    touched: Vec<Vec<gpu_sim::TouchedObject>>,
    records: Vec<gpu_sim::MemAccessRecord>,
}

impl gpu_sim::SanitizerHooks for Capture {
    fn on_kernel_begin(&mut self, _info: &gpu_sim::KernelInfo) -> gpu_sim::PatchMode {
        gpu_sim::PatchMode::Full
    }
    fn on_mem_access_buffer(
        &mut self,
        _info: &gpu_sim::KernelInfo,
        records: &[gpu_sim::MemAccessRecord],
    ) {
        self.records.extend_from_slice(records);
    }
    fn on_kernel_end(
        &mut self,
        _info: &gpu_sim::KernelInfo,
        touched: &[gpu_sim::TouchedObject],
        _counters: &gpu_sim::KernelCounters,
    ) {
        self.touched.push(touched.to_vec());
    }
}

/// One thread's accesses: `(allocation, offset, width, write)`.
type Script = Vec<(usize, u64, u32, bool)>;

/// A generated kernel over allocations of `sizes` bytes (multiples of 256,
/// so they abut): per step, every thread uses one access pattern — lanes
/// side by side, warps ending exactly at an allocation's end, lanes
/// straddling into the next allocation, a thread streaming through a
/// buffer, or random offsets — with widths of 1, 4 or 8 bytes and reads
/// and writes mixed.
fn coalescing_kernel(rng: &mut SplitMix64, sizes: &[u64], threads: u64) -> Vec<Script> {
    let widths = [1u32, 4, 8];
    let steps = range(rng, 1, 7);
    let stream = (
        range(rng, 0, sizes.len() as u64) as usize,
        widths[rng.next_below(3) as usize],
    );
    let mut scripts = vec![Script::new(); threads as usize];
    for step in 0..steps {
        let pattern = rng.next_below(5);
        let a = range(rng, 0, sizes.len() as u64) as usize;
        let w = widths[rng.next_below(3) as usize];
        let write = rng.chance(0.5);
        let mixed = rng.chance(0.2);
        for (g, script) in scripts.iter_mut().enumerate() {
            let (g, lane, w64) = (g as u64, g as u64 % 32, u64::from(w));
            let write = if mixed { rng.chance(0.5) } else { write };
            let access = match pattern {
                0 => (a, (g * w64) % sizes[a], w),
                2 if a + 1 < sizes.len() && lane >= 16 => (a + 1, (lane - 16) * w64, w),
                2 if a + 1 < sizes.len() => (a, sizes[a] - (16 - lane) * w64, w),
                1 | 2 => (a, sizes[a] - (32 - lane) * w64, w),
                3 => {
                    let (sa, sw) = (stream.0, u64::from(stream.1));
                    (sa, ((g * steps + step) * sw) % sizes[sa], stream.1)
                }
                _ => (a, range(rng, 0, sizes[a] - w64 + 1), w),
            };
            script.push((access.0, access.1, access.2, write));
        }
    }
    scripts
}

/// Runs `kernels` with coalescing on or off at merge alignment `align` and
/// returns the hit-flag summaries, each allocation's covered bytes and its
/// per-element record counts at width `align` (what the collector's maps
/// see), and the number of coalesced accesses.
#[allow(clippy::type_complexity)]
fn observe_coalescing(
    sizes: &[u64],
    kernels: &[(u32, u32, Vec<Script>)],
    capacity: usize,
    coalesce: bool,
    align: u32,
) -> (
    Vec<Vec<gpu_sim::TouchedObject>>,
    Vec<Vec<bool>>,
    Vec<Vec<u32>>,
    u64,
) {
    use gpu_sim::{DeviceContext, LaunchConfig};
    let capture = std::sync::Arc::new(parking_lot::Mutex::new(Capture::default()));
    let mut ctx = DeviceContext::new_default();
    ctx.sanitizer_mut().register(capture.clone());
    ctx.sanitizer_mut().set_coalescing(coalesce);
    ctx.sanitizer_mut().set_coalesce_alignment(align);
    ctx.sanitizer_mut().set_buffer_capacity(capacity);
    let ptrs: Vec<_> = sizes
        .iter()
        .map(|&s| ctx.malloc(s, "buf").expect("malloc"))
        .collect();
    for p in ptrs.windows(2).zip(sizes) {
        assert_eq!(p.0[0] + *p.1, p.0[1], "allocations abut");
    }
    for (blocks, block, scripts) in kernels {
        ctx.launch(
            "k",
            LaunchConfig::new(*blocks, *block),
            StreamId::DEFAULT,
            |t| {
                for &(a, off, w, write) in &scripts[t.global_thread_id() as usize] {
                    let p = ptrs[a] + off;
                    match (w, write) {
                        (1, false) => drop(t.load_u8(p)),
                        (1, true) => t.store_u8(p, 1),
                        (4, false) => drop(t.load_u32(p)),
                        (4, true) => t.store_u32(p, 1),
                        (_, false) => drop(t.load_u64(p)),
                        (_, true) => t.store_u64(p, 1),
                    }
                }
            },
        )
        .expect("kernel runs");
    }
    let capture = capture.lock();
    let mut covered: Vec<Vec<bool>> = sizes.iter().map(|&s| vec![false; s as usize]).collect();
    let w = u64::from(align);
    let mut counts: Vec<Vec<u32>> = sizes
        .iter()
        .map(|&s| vec![0; s.div_ceil(w) as usize])
        .collect();
    for r in &capture.records {
        let a = ptrs
            .iter()
            .zip(sizes)
            .position(|(&p, &s)| p <= r.addr && r.addr < p + s)
            .expect("a record starts in an allocation");
        let off = r.addr.addr() - ptrs[a].addr();
        let end = off + u64::from(r.size);
        assert!(end <= sizes[a], "a record stays in its allocation: {r:?}");
        covered[a][off as usize..end as usize].fill(true);
        for c in &mut counts[a][(off / w) as usize..=((end - 1) / w) as usize] {
            *c += 1;
        }
    }
    (
        capture.touched.clone(),
        covered,
        counts,
        ctx.stats().coalesced_records,
    )
}

#[test]
fn lookup_free_merges_match_raw_records() {
    let mut merged = 0;
    for seed in 0..CASES / 2 {
        let mut rng = SplitMix64::new(seed);
        let sizes: Vec<u64> = (0..range(&mut rng, 2, 6))
            .map(|_| range(&mut rng, 1, 5) * 256)
            .collect();
        // Two launches, so the per-pc allocation memo carries over.
        let kernels: Vec<(u32, u32, Vec<Script>)> = (0..2)
            .map(|_| {
                let blocks = range(&mut rng, 1, 4) as u32;
                let block = [32, 64, 96][rng.next_below(3) as usize];
                let scripts = coalescing_kernel(&mut rng, &sizes, u64::from(blocks * block));
                (blocks, block, scripts)
            })
            .collect();
        let capacity = range(&mut rng, 4, 200) as usize;
        for align in [1u32, 4, 8, 12, 96] {
            let raw = observe_coalescing(&sizes, &kernels, capacity, false, align);
            let on = observe_coalescing(&sizes, &kernels, capacity, true, align);
            let what = format!("seed {seed} align {align}");
            assert_eq!(on.0, raw.0, "{what}: touched summaries");
            assert_eq!(on.1, raw.1, "{what}: byte coverage");
            assert_eq!(on.2, raw.2, "{what}: per-element counts");
            assert_eq!(raw.3, 0, "{what}");
            merged += on.3;
        }
    }
    assert!(merged > 1000, "only {merged} accesses were merged");
}
