//! Metrics quantifying inefficiency severity.
//!
//! * fragmentation — Eq. (1) of the paper;
//! * inefficiency distance — the timestamp gap between dependent GPU APIs
//!   (Sec. 5.3).

use crate::accessmap::AccessBitmap;

/// Memory fragmentation of the unaccessed portion of a data object — the
/// paper's Eq. (1):
///
/// ```text
/// Frag_O = 1 - largest unaccessed chunk / total unaccessed bytes
/// ```
///
/// Returns 0.0 when nothing is unaccessed (nothing to shrink — and nothing
/// fragmented). A value near 0 means the waste is one big chunk (easy to
/// shrink or free); a value near 1 means the waste is scattered.
pub fn fragmentation_pct(bitmap: &AccessBitmap) -> f64 {
    let unaccessed = bitmap.count_clear();
    if unaccessed == 0 {
        return 0.0;
    }
    let largest = bitmap.largest_clear_run();
    (1.0 - largest as f64 / unaccessed as f64) * 100.0
}

/// Percentage of bytes of a data object accessed at least once.
pub fn accessed_pct(bitmap: &AccessBitmap) -> f64 {
    bitmap.accessed_fraction() * 100.0
}

/// Inefficiency distance: the difference between the topological timestamps
/// of two dependent GPU APIs (Sec. 5.3). Larger distances mean the wasted
/// memory was held across more of the execution.
pub fn inefficiency_distance(earlier_ts: u64, later_ts: u64) -> u64 {
    later_ts.saturating_sub(earlier_ts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragmentation_single_chunk_is_zero() {
        let mut bm = AccessBitmap::new(100);
        bm.set_range(0, 50); // one clear chunk [50, 100)
        assert_eq!(fragmentation_pct(&bm), 0.0);
    }

    #[test]
    fn fragmentation_scattered_waste_is_high() {
        let mut bm = AccessBitmap::new(100);
        // Access every other byte: 50 clear chunks of 1 byte each.
        for i in (0..100).step_by(2) {
            bm.set_range(i, i + 1);
        }
        let frag = fragmentation_pct(&bm);
        assert!((frag - 98.0).abs() < 1e-9, "1 - 1/50 = 98%, got {frag}");
    }

    #[test]
    fn fragmentation_fully_accessed_is_zero() {
        let mut bm = AccessBitmap::new(10);
        bm.set_range(0, 10);
        assert_eq!(fragmentation_pct(&bm), 0.0);
    }

    #[test]
    fn minimdock_like_numbers() {
        // Paper Sec. 7.6: 2.4e-3 % accessed, 4.89e-3 % fragmentation —
        // a giant object with one tiny accessed prefix.
        let mut bm = AccessBitmap::new(1_000_000);
        bm.set_range(0, 24);
        assert!(accessed_pct(&bm) < 0.01);
        assert!(fragmentation_pct(&bm) < 0.01);
    }

    #[test]
    fn distance_saturates() {
        assert_eq!(inefficiency_distance(5, 9), 4);
        assert_eq!(inefficiency_distance(9, 5), 0);
    }
}
