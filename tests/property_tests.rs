//! Property-style tests on the core data structures and detector
//! invariants, backing the paper's "DrGPUM does not incur false positives"
//! claim (Sec. 5.6): every finding's evidence is re-checked against a naive
//! oracle on randomly generated traces. Inputs come from a seeded
//! deterministic generator, so every failure is reproducible from its seed.

use drgpum::profiler::accessmap::{AccessBitmap, FreqMap, RangeSet};
use drgpum::profiler::depgraph::{DependencyGraph, VertexAccess};
use drgpum::profiler::names::{ApiName, GpuApiKind, PathId};
use drgpum::profiler::object::ObjectId;
use drgpum::profiler::options::Thresholds;
use drgpum::profiler::patterns::{
    object_level, redundant, AccessVia, ApiRef, ObjectAccess, ObjectView, PatternEvidence,
    TraceView,
};
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
fn objects(rng: &mut SplitMix64, count: u64) -> Vec<ObjectId> {
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
            reads: vec![ObjectId(range(rng, 0, 8))],
            writes: vec![ObjectId(range(rng, 0, 8))],
            frees: vec![],
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
                via: AccessVia::Kernel,
            };
            let accesses = if first == last {
                vec![mk(first)]
            } else {
                vec![mk(first), mk(last)]
            };
            tv.objects.push(ObjectView {
                id: ObjectId(i as u64),
                label: format!("o{i}"),
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
                via: AccessVia::Kernel,
            };
            let accesses = if first == last {
                vec![mk(first)]
            } else {
                vec![mk(first), mk(last)]
            };
            tv.objects.push(ObjectView {
                id: ObjectId(i as u64),
                label: format!("o{i}"),
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
