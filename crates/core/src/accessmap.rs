//! Intra-object access maps: bitmaps, range sets, and frequency maps
//! (Sec. 5.2, Sec. 5.5).
//!
//! * [`AccessBitmap`] — one bit per byte of a data object, backing the
//!   *overallocation* detector and the fragmentation metric (Eq. 1);
//! * [`RangeSet`] — merged half-open intervals, the compact per-GPU-API
//!   footprint used by the *structured access* detector;
//! * [`FreqMap`] — per-element access counters, backing the *non-uniform
//!   access frequency* detector's coefficient-of-variation test.

use std::fmt;
use std::ops::Range;

/// A bitmap with one bit per byte of a data object.
///
/// # Examples
///
/// ```
/// use drgpum_core::accessmap::AccessBitmap;
///
/// let mut bm = AccessBitmap::new(100);
/// bm.set_range(10, 20);
/// assert_eq!(bm.count_set(), 10);
/// assert!(bm.is_set(15));
/// assert!(!bm.is_set(20));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct AccessBitmap {
    words: Vec<u64>,
    len: u64,
}

impl fmt::Debug for AccessBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccessBitmap")
            .field("len", &self.len)
            .field("set", &self.count_set())
            .finish()
    }
}

impl AccessBitmap {
    /// Creates an all-clear bitmap covering `len` bytes.
    pub fn new(len: u64) -> Self {
        let words = vec![0u64; (len as usize).div_ceil(64)];
        AccessBitmap { words, len }
    }

    /// Number of bytes covered.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the bitmap covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks the half-open byte range `[start, end)` as accessed. Ranges are
    /// clamped to the bitmap length; empty, inverted, and fully out-of-range
    /// requests (including `start == end == len` and any range on a
    /// zero-length bitmap) are no-ops.
    pub fn set_range(&mut self, start: u64, end: u64) {
        let end = end.min(self.len);
        // Covers `len == 0` (empty `words`), `start == end == len`, and
        // inverted ranges: nothing to set, and no word may be indexed.
        if start >= end || self.words.is_empty() {
            return;
        }
        let (first_word, first_bit) = ((start / 64) as usize, (start % 64) as u32);
        let (last_word, last_bit) = (((end - 1) / 64) as usize, ((end - 1) % 64) as u32);
        // Build the tail mask from the low side (`(1 << (b+1)) - 1`) rather
        // than the old `u64::MAX >> (63 - b)` form: the subtraction shape
        // underflows the shift when a future edit lets `b` escape 0..=63,
        // while this form degrades to an explicit, tested branch.
        let tail_mask = if last_bit >= 63 {
            u64::MAX
        } else {
            (1u64 << (last_bit + 1)) - 1
        };
        let head_mask = u64::MAX << first_bit;
        if first_word == last_word {
            self.words[first_word] |= head_mask & tail_mask;
            return;
        }
        self.words[first_word] |= head_mask;
        for w in &mut self.words[first_word + 1..last_word] {
            *w = u64::MAX;
        }
        self.words[last_word] |= tail_mask;
    }

    /// Returns `true` if byte `i` is marked accessed.
    pub fn is_set(&self, i: u64) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Number of accessed bytes.
    pub fn count_set(&self) -> u64 {
        let mut total: u64 = self.words.iter().map(|w| u64::from(w.count_ones())).sum();
        // Bits beyond `len` are never set by `set_range`, but be defensive.
        let tail_bits = (self.words.len() as u64 * 64).saturating_sub(self.len);
        debug_assert!(tail_bits < 64 || self.words.is_empty());
        if tail_bits > 0 {
            if let Some(&last) = self.words.last() {
                // `tail_bits` is in 1..=63 here, so the shift is in range.
                let invalid_mask = u64::MAX << (64 - tail_bits);
                total -= u64::from((last & invalid_mask).count_ones());
            }
        }
        total
    }

    /// Number of unaccessed bytes.
    pub fn count_clear(&self) -> u64 {
        self.len - self.count_set()
    }

    /// Fraction of bytes accessed, in `[0, 1]`. An empty bitmap reports 1.0
    /// (nothing allocated, nothing wasted).
    pub fn accessed_fraction(&self) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        self.count_set() as f64 / self.len as f64
    }

    /// Length of the longest run of unaccessed bytes.
    pub fn largest_clear_run(&self) -> u64 {
        self.clear_ranges()
            .iter()
            .map(|(s, e)| e - s)
            .max()
            .unwrap_or(0)
    }

    /// The unaccessed byte ranges, merged, as `(start, end)` pairs.
    ///
    /// Scans a word (64 bytes) at a time, skipping all-set and all-clear
    /// words in one step — the per-bit version dominated trace export and
    /// fragmentation scoring for multi-megabyte objects.
    pub fn clear_ranges(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut run_start: Option<u64> = None;
        let close_run = |run_start: &mut Option<u64>, end: u64, out: &mut Vec<(u64, u64)>| {
            if let Some(s) = run_start.take() {
                out.push((s, end));
            }
        };
        for (wi, &word) in self.words.iter().enumerate() {
            let base = wi as u64 * 64;
            let valid = (self.len - base).min(64) as u32;
            // Bits at `valid..64` lie beyond `len`; treat them as set so
            // they never extend a clear run.
            let masked = if valid == 64 {
                word
            } else {
                word | (u64::MAX << valid)
            };
            if masked == 0 {
                // Whole word clear.
                run_start.get_or_insert(base);
                continue;
            }
            if masked == u64::MAX {
                close_run(&mut run_start, base, &mut out);
                continue;
            }
            let mut bit = 0u32;
            while bit < valid {
                if masked & (1u64 << bit) == 0 {
                    run_start.get_or_insert(base + u64::from(bit));
                    // Jump to the next set bit at or above `bit`.
                    let rest = masked >> bit;
                    bit += rest.trailing_zeros();
                } else {
                    close_run(&mut run_start, base + u64::from(bit), &mut out);
                    // Jump to the next clear bit at or above `bit`.
                    let rest = !masked >> bit;
                    bit += if rest == 0 { 64 } else { rest.trailing_zeros() };
                }
            }
        }
        close_run(&mut run_start, self.len, &mut out);
        out
    }

    /// The accessed byte ranges, merged, as `(start, end)` pairs — the
    /// complement of [`clear_ranges`](Self::clear_ranges), used by the trace
    /// writer's run-length encoding.
    pub fn accessed_ranges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cursor = 0u64;
        for (s, e) in self.clear_ranges() {
            if cursor < s {
                out.push((cursor, s));
            }
            cursor = e;
        }
        if cursor < self.len {
            out.push((cursor, self.len));
        }
        out
    }

    /// Clears all bits.
    pub fn reset(&mut self) {
        self.words.fill(0);
    }

    /// Bytes of host memory this bitmap occupies — the quantity DrGPUM's
    /// adaptive mode selection sums before each kernel launch (Sec. 5.5).
    pub fn footprint_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

/// A set of half-open byte intervals, kept merged and sorted.
///
/// The per-GPU-API footprint representation for the *structured access*
/// detector: GramSchmidt's `R_gpu` slices become one interval per kernel
/// instance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RangeSet {
    /// Sorted, non-overlapping, non-adjacent `(start, end)` intervals.
    ranges: Vec<(u64, u64)>,
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Bytes of host memory the interval list occupies (16 bytes per
    /// stored interval) — metered by the session governor.
    pub fn footprint_bytes(&self) -> u64 {
        self.ranges.len() as u64 * 16
    }

    /// Inserts `[start, end)`, merging with existing intervals.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Access streams arrive overwhelmingly in ascending offset order,
        // so the common case touches at most the last stored interval —
        // O(1), no shifting.
        match self.ranges.last_mut() {
            None => {
                self.ranges.push((start, end));
                return;
            }
            Some(&mut (last_s, ref mut last_e)) if start >= last_s => {
                if start > *last_e {
                    self.ranges.push((start, end));
                } else if end > *last_e {
                    *last_e = end;
                }
                return;
            }
            _ => {}
        }
        // General case: binary-search the first interval whose end reaches
        // `start`, then absorb everything touching `[start, end)`.
        let first = self.ranges.partition_point(|&(_, e)| e < start);
        let mut new_start = start;
        let mut new_end = end;
        let mut to = first;
        while to < self.ranges.len() {
            let (s, e) = self.ranges[to];
            if s > new_end {
                break;
            }
            new_start = new_start.min(s);
            new_end = new_end.max(e);
            to += 1;
        }
        if to == first {
            self.ranges.insert(first, (new_start, new_end));
        } else {
            self.ranges[first] = (new_start, new_end);
            self.ranges.drain(first + 1..to);
        }
    }

    /// The merged intervals, sorted.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// Total bytes covered.
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// Returns `true` if no bytes are covered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Returns `true` if the two sets share at least one byte.
    pub fn intersects(&self, other: &RangeSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (s1, e1) = self.ranges[i];
            let (s2, e2) = other.ranges[j];
            if s1 < e2 && s2 < e1 {
                return true;
            }
            if e1 <= e2 {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// The smallest interval containing every covered byte, if any.
    pub fn span(&self) -> Option<(u64, u64)> {
        match (self.ranges.first(), self.ranges.last()) {
            (Some(&(s, _)), Some(&(_, e))) => Some((s, e)),
            _ => None,
        }
    }
}

impl FromIterator<(u64, u64)> for RangeSet {
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Self {
        let mut set = RangeSet::new();
        for (s, e) in iter {
            set.insert(s, e);
        }
        set
    }
}

/// Per-element access counters for one data object at one GPU API.
///
/// Elements are fixed-width slots (`elem_size` bytes); an access of `size`
/// bytes at `offset` increments every slot it touches, as the paper's
/// per-element hashmap does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreqMap {
    counts: Vec<u32>,
    elem_size: u32,
}

impl FreqMap {
    /// Creates a zeroed frequency map for an object of `object_bytes` bytes
    /// with `elem_size`-byte elements.
    ///
    /// # Panics
    ///
    /// Panics if `elem_size` is zero.
    pub fn new(object_bytes: u64, elem_size: u32) -> Self {
        assert!(elem_size > 0, "element size must be positive");
        let n = (object_bytes as usize).div_ceil(elem_size as usize);
        FreqMap {
            counts: vec![0; n],
            elem_size,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Element width in bytes.
    pub fn elem_size(&self) -> u32 {
        self.elem_size
    }

    /// Returns `true` if the object has no elements.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Records an access of `size` bytes at byte `offset`.
    pub fn record(&mut self, offset: u64, size: u32) {
        if self.counts.is_empty() || size == 0 {
            return;
        }
        let first = (offset / u64::from(self.elem_size)) as usize;
        if first >= self.counts.len() {
            return;
        }
        let last = (((offset + u64::from(size) - 1) / u64::from(self.elem_size)) as usize)
            .min(self.counts.len() - 1);
        // Slice iteration instead of per-index bounds checks: coalesced
        // records can span thousands of elements, making this the inner
        // loop of frequency collection.
        for c in &mut self.counts[first..=last] {
            *c = c.saturating_add(1);
        }
    }

    /// Per-element counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The nonzero counts as maximal runs `(first element, elements,
    /// count)` of equal values, in element order: the saved form of the
    /// map (see [`crate::trace_io`]).
    pub fn runs(&self) -> Vec<(u64, u64, u32)> {
        let mut runs = Vec::new();
        let mut start = 0;
        for run in self.counts.chunk_by(|a, b| a == b) {
            if run[0] > 0 {
                runs.push((start as u64, run.len() as u64, run[0]));
            }
            start += run.len();
        }
        runs
    }

    /// Sets the counts of the `len` elements from element `start` to
    /// `count`; elements past the end of the map are ignored. Replaying
    /// [`FreqMap::runs`] this way rebuilds the map.
    pub fn fill(&mut self, start: u64, len: u64, count: u32) {
        let n = self.counts.len() as u64;
        let end = start.saturating_add(len).min(n) as usize;
        self.counts[start.min(n) as usize..end].fill(count);
    }

    /// Resets all counters to zero (done at each GPU API, Sec. 5.2).
    pub fn reset(&mut self) {
        self.counts.fill(0);
    }

    /// Coefficient of variation (stddev / mean) of the access counts of
    /// *accessed* elements, as a percentage: the variance measure behind
    /// *non-uniform access frequency* (Def. 3.9, footnote 3). Returns 0
    /// when fewer than two elements were accessed.
    pub fn coefficient_of_variation_pct(&self) -> f64 {
        self.cov_over(std::iter::once(0..self.counts.len()))
    }

    /// Histogram of counts (count value → number of elements), for the GUI.
    pub fn histogram(&self) -> Vec<(u32, usize)> {
        self.histogram_over(std::iter::once(0..self.counts.len()))
    }

    /// [`FreqMap::coefficient_of_variation_pct`] visiting only the elements
    /// that overlap `touched`: the same value when every accessed element
    /// does, as at a kernel's end with the kernel's ranges.
    pub fn touched_cov_pct(&self, touched: &RangeSet) -> f64 {
        self.cov_over(self.touched_spans(touched))
    }

    /// [`FreqMap::histogram`] over the elements that overlap `touched`.
    pub fn touched_histogram(&self, touched: &RangeSet) -> Vec<(u32, usize)> {
        self.histogram_over(self.touched_spans(touched))
    }

    /// Adds `other`'s counts into this map (same geometry) over the
    /// elements that overlap `touched`, saturating at `u32::MAX`: what
    /// recording `other`'s accesses here one by one gives, when `touched`
    /// covers them.
    pub fn add_touched(&mut self, other: &FreqMap, touched: &RangeSet) {
        debug_assert_eq!(self.len(), other.len());
        for span in other.touched_spans(touched) {
            for (c, &o) in self.counts[span.clone()]
                .iter_mut()
                .zip(&other.counts[span])
            {
                *c = c.saturating_add(o);
            }
        }
    }

    /// The element spans overlapping the byte ranges of `touched`, in
    /// element order; an element two ranges share is visited once.
    fn touched_spans<'a>(
        &self,
        touched: &'a RangeSet,
    ) -> impl Iterator<Item = Range<usize>> + Clone + 'a {
        let (w, n) = (u64::from(self.elem_size), self.counts.len() as u64);
        let mut next = 0;
        touched.ranges().iter().filter_map(move |&(s, e)| {
            let (lo, hi) = ((s / w).max(next), e.div_ceil(w).min(n));
            (lo < hi).then(|| {
                next = hi;
                lo as usize..hi as usize
            })
        })
    }

    /// The CoV of the nonzero counts in `spans`. The mean comes from an
    /// integer sum, which equals the sequential `f64` sum below 2^53
    /// counted accesses; the variance is a sequential `f64` sum in element
    /// order.
    fn cov_over(&self, spans: impl Iterator<Item = Range<usize>> + Clone) -> f64 {
        let (mut n, mut sum) = (0u64, 0u64);
        for span in spans.clone() {
            for &c in &self.counts[span] {
                n += u64::from(c > 0);
                sum += u64::from(c);
            }
        }
        if n < 2 {
            return 0.0;
        }
        let (n, mut var) = (n as f64, 0.0);
        let mean = sum as f64 / n;
        for span in spans {
            for &c in self.counts[span].iter().filter(|&&c| c > 0) {
                var += (f64::from(c) - mean) * (f64::from(c) - mean);
            }
        }
        ((var / n).sqrt() / mean) * 100.0
    }

    fn histogram_over(&self, spans: impl Iterator<Item = Range<usize>>) -> Vec<(u32, usize)> {
        let mut map = std::collections::BTreeMap::new();
        for span in spans {
            for &c in self.counts[span].iter().filter(|&&c| c > 0) {
                *map.entry(c).or_insert(0usize) += 1;
            }
        }
        map.into_iter().collect()
    }

    /// Host-memory footprint, for the adaptive mode planner.
    pub fn footprint_bytes(&self) -> u64 {
        self.counts.len() as u64 * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_and_count() {
        let mut bm = AccessBitmap::new(200);
        bm.set_range(0, 64);
        bm.set_range(60, 70);
        bm.set_range(199, 200);
        assert_eq!(bm.count_set(), 71);
        assert_eq!(bm.count_clear(), 129);
        assert!(bm.is_set(0));
        assert!(bm.is_set(69));
        assert!(!bm.is_set(70));
        assert!(bm.is_set(199));
        assert!(!bm.is_set(200), "out of range reads as clear");
    }

    #[test]
    fn bitmap_clamps_out_of_range() {
        let mut bm = AccessBitmap::new(10);
        bm.set_range(5, 1000);
        assert_eq!(bm.count_set(), 5);
    }

    #[test]
    fn bitmap_word_boundary_edges() {
        let mut bm = AccessBitmap::new(130);
        bm.set_range(63, 65);
        assert_eq!(bm.count_set(), 2);
        assert!(bm.is_set(63) && bm.is_set(64) && !bm.is_set(65));
        bm.set_range(127, 130);
        assert_eq!(bm.count_set(), 5);
    }

    #[test]
    fn bitmap_largest_clear_run() {
        let mut bm = AccessBitmap::new(100);
        assert_eq!(bm.largest_clear_run(), 100);
        bm.set_range(10, 11);
        bm.set_range(40, 42);
        // Runs: [0,10)=10, [11,40)=29, [42,100)=58.
        assert_eq!(bm.largest_clear_run(), 58);
        assert_eq!(bm.clear_ranges(), vec![(0, 10), (11, 40), (42, 100)]);
    }

    #[test]
    fn bitmap_fully_set_has_no_clear_run() {
        let mut bm = AccessBitmap::new(64);
        bm.set_range(0, 64);
        assert_eq!(bm.largest_clear_run(), 0);
        assert!(bm.clear_ranges().is_empty());
        assert_eq!(bm.accessed_fraction(), 1.0);
    }

    #[test]
    fn rangeset_merges_overlaps_and_adjacency() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.insert(30, 40);
        rs.insert(20, 30); // bridges the gap
        assert_eq!(rs.ranges(), &[(10, 40)]);
        rs.insert(5, 12);
        assert_eq!(rs.ranges(), &[(5, 40)]);
        assert_eq!(rs.covered(), 35);
    }

    #[test]
    fn rangeset_keeps_disjoint_ranges_sorted() {
        let rs: RangeSet = [(50, 60), (10, 20), (30, 40)].into_iter().collect();
        assert_eq!(rs.ranges(), &[(10, 20), (30, 40), (50, 60)]);
        assert_eq!(rs.span(), Some((10, 60)));
    }

    #[test]
    fn rangeset_intersection() {
        let a: RangeSet = [(0, 10), (20, 30)].into_iter().collect();
        let b: RangeSet = [(10, 20)].into_iter().collect();
        let c: RangeSet = [(25, 26)].into_iter().collect();
        assert!(!a.intersects(&b), "touching is not overlapping");
        assert!(a.intersects(&c));
        assert!(!RangeSet::new().intersects(&a));
    }

    #[test]
    fn rangeset_empty_insert_ignored() {
        let mut rs = RangeSet::new();
        rs.insert(5, 5);
        assert!(rs.is_empty());
        assert_eq!(rs.span(), None);
    }

    #[test]
    fn freqmap_records_per_element() {
        let mut fm = FreqMap::new(16, 4); // 4 elements
        fm.record(0, 4);
        fm.record(0, 4);
        fm.record(4, 8); // touches elements 1 and 2
        assert_eq!(fm.counts(), &[2, 1, 1, 0]);
    }

    #[test]
    fn freqmap_uniform_has_zero_cov() {
        let mut fm = FreqMap::new(16, 4);
        for i in 0..4 {
            fm.record(i * 4, 4);
        }
        assert_eq!(fm.coefficient_of_variation_pct(), 0.0);
    }

    #[test]
    fn freqmap_skew_has_high_cov() {
        let mut fm = FreqMap::new(16, 4);
        for _ in 0..100 {
            fm.record(0, 4);
        }
        fm.record(4, 4);
        assert!(fm.coefficient_of_variation_pct() > 20.0);
    }

    #[test]
    fn freqmap_cov_known_value() {
        // Counts 2 and 4: mean 3, population stddev 1, CoV 33.3%.
        let mut fm = FreqMap::new(12, 4);
        fm.fill(0, 1, 2);
        fm.fill(2, 1, 4);
        assert!((fm.coefficient_of_variation_pct() - 100.0 / 3.0).abs() < 1e-12);
        fm.fill(0, 3, u32::MAX);
        assert_eq!(fm.coefficient_of_variation_pct(), 0.0);
    }

    #[test]
    fn freqmap_reset_zeroes() {
        let mut fm = FreqMap::new(8, 4);
        fm.record(0, 8);
        fm.reset();
        assert_eq!(fm.counts(), &[0, 0]);
    }

    #[test]
    fn freqmap_cov_is_zero_not_nan_for_degenerate_maps() {
        // Empty map, single-element map, and untouched map must all report
        // 0.0 — a NaN here poisons the non-uniform-access-frequency
        // detector's `cov > threshold` compare (always false).
        let empty = FreqMap::new(0, 4);
        assert_eq!(empty.coefficient_of_variation_pct(), 0.0);
        let mut single = FreqMap::new(4, 4);
        single.record(0, 4);
        let cov = single.coefficient_of_variation_pct();
        assert!(!cov.is_nan());
        assert_eq!(cov, 0.0);
        let untouched = FreqMap::new(100, 4);
        assert_eq!(untouched.coefficient_of_variation_pct(), 0.0);
    }

    #[test]
    fn freqmap_clamps_trailing_partial_element() {
        let mut fm = FreqMap::new(10, 4); // 3 elements (last covers 2 bytes)
        fm.record(8, 4);
        assert_eq!(fm.counts(), &[0, 0, 1]);
    }

    #[test]
    fn bitmap_zero_length_edges() {
        let mut bm = AccessBitmap::new(0);
        bm.set_range(0, 0);
        bm.set_range(0, 100);
        assert_eq!(bm.count_set(), 0);
        assert_eq!(bm.count_clear(), 0);
        assert!(bm.clear_ranges().is_empty());
        assert!(bm.accessed_ranges().is_empty());
        assert_eq!(bm.largest_clear_run(), 0);
    }

    #[test]
    fn bitmap_start_equals_end_equals_len_is_noop() {
        for len in [1u64, 63, 64, 65, 127, 128] {
            let mut bm = AccessBitmap::new(len);
            bm.set_range(len, len);
            assert_eq!(bm.count_set(), 0, "len {len}");
            bm.set_range(len - 1, len);
            assert_eq!(bm.count_set(), 1, "len {len}");
        }
    }

    /// Property tests: `set_range` / `count_set` / `clear_ranges`
    /// against a naive `Vec<bool>` model, driven by the in-tree SplitMix64.
    mod properties {
        use super::*;
        use gpu_sim::SplitMix64;

        struct Model {
            bytes: Vec<bool>,
        }

        impl Model {
            fn new(len: u64) -> Self {
                Model {
                    bytes: vec![false; len as usize],
                }
            }

            fn set_range(&mut self, start: u64, end: u64) {
                let end = (end as usize).min(self.bytes.len());
                for i in (start as usize)..end {
                    self.bytes[i] = true;
                }
            }

            fn count_set(&self) -> u64 {
                self.bytes.iter().filter(|&&b| b).count() as u64
            }

            fn clear_ranges(&self) -> Vec<(u64, u64)> {
                let mut out = Vec::new();
                let mut run: Option<u64> = None;
                for (i, &b) in self.bytes.iter().enumerate() {
                    match (b, run) {
                        (false, None) => run = Some(i as u64),
                        (true, Some(s)) => {
                            out.push((s, i as u64));
                            run = None;
                        }
                        _ => {}
                    }
                }
                if let Some(s) = run {
                    out.push((s, self.bytes.len() as u64));
                }
                out
            }
        }

        fn check_against_model(bm: &AccessBitmap, model: &Model, case: &str) {
            assert_eq!(bm.count_set(), model.count_set(), "{case}: count_set");
            assert_eq!(
                bm.clear_ranges(),
                model.clear_ranges(),
                "{case}: clear_ranges"
            );
            assert_eq!(
                bm.largest_clear_run(),
                model
                    .clear_ranges()
                    .iter()
                    .map(|(s, e)| e - s)
                    .max()
                    .unwrap_or(0),
                "{case}: largest_clear_run"
            );
            for (s, e) in bm.accessed_ranges() {
                for i in s..e {
                    assert!(model.bytes[i as usize], "{case}: accessed_ranges at {i}");
                }
            }
        }

        #[test]
        fn bitmap_matches_vec_bool_model() {
            let mut rng = SplitMix64::new(0x000A_CCE5_5B17);
            for trial in 0..200 {
                // Lengths biased to word boundaries and their neighbours.
                let len = match trial % 5 {
                    0 => rng.next_below(3), // 0..3: degenerate sizes
                    1 => 64 * (1 + rng.next_below(4)),
                    2 => 64 * (1 + rng.next_below(4)) - 1,
                    3 => 64 * (1 + rng.next_below(4)) + 1,
                    _ => 1 + rng.next_below(700),
                };
                let mut bm = AccessBitmap::new(len);
                let mut model = Model::new(len);
                for op in 0..24 {
                    // Starts/ends may exceed `len` to exercise clamping.
                    let start = rng.next_below(len + 10);
                    let end = start + rng.next_below(80);
                    bm.set_range(start, end);
                    model.set_range(start, end);
                    if op % 8 == 7 {
                        check_against_model(&bm, &model, &format!("trial {trial} op {op}"));
                    }
                }
            }
        }

        #[test]
        fn rangeset_insert_order_is_irrelevant() {
            let mut rng = SplitMix64::new(0x5E7);
            for trial in 0..100 {
                let mut ranges = Vec::new();
                for _ in 0..12 {
                    let s = rng.next_below(500);
                    ranges.push((s, s + 1 + rng.next_below(60)));
                }
                let forward: RangeSet = ranges.iter().copied().collect();
                let backward: RangeSet = ranges.iter().rev().copied().collect();
                assert_eq!(forward, backward, "trial {trial}");
                // Covered bytes must equal the model's union size.
                let max = ranges.iter().map(|&(_, e)| e).max().unwrap_or(0);
                let mut model = vec![false; max as usize];
                for &(s, e) in &ranges {
                    for b in model.iter_mut().take(e as usize).skip(s as usize) {
                        *b = true;
                    }
                }
                let covered = model.iter().filter(|&&b| b).count() as u64;
                assert_eq!(forward.covered(), covered, "trial {trial}: covered");
            }
        }
    }
}
