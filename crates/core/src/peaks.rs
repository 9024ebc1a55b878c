//! Memory-usage timeline and peak analysis.
//!
//! DrGPUM's offline analyzer "pinpoints data objects involved in memory
//! peaks" and highlights the top two peaks in the GUI (Sec. 4). The
//! collector records device memory in use after every GPU API; this module
//! finds the local maxima of that curve, ranks them, and reports the data
//! objects live at each peak.

use crate::object::{ObjectId, ObjectRegistry};

/// One sample of the usage curve: bytes in use after GPU API `api_idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageSample {
    /// Trace position of the GPU API.
    pub api_idx: usize,
    /// Device bytes allocated after the API completed.
    pub bytes_in_use: u64,
}

/// One memory peak.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPeak {
    /// Trace position at which the peak occurred.
    pub api_idx: usize,
    /// Peak size in bytes.
    pub bytes: u64,
    /// Objects live at the peak, largest first.
    pub live_objects: Vec<(ObjectId, u64)>,
}

/// Finds the `top_k` highest *local maxima* of the usage curve.
///
/// A sample is a local maximum if it is strictly greater than the previous
/// distinct value and at least as large as the next distinct value. Plateaus
/// report their first sample. Peaks are returned highest-first.
///
/// # Examples
///
/// ```
/// use drgpum_core::peaks::{find_peaks, UsageSample};
///
/// let curve: Vec<UsageSample> = [100u64, 300, 200, 500, 100]
///     .iter()
///     .enumerate()
///     .map(|(i, &b)| UsageSample { api_idx: i, bytes_in_use: b })
///     .collect();
/// let peaks = find_peaks(&curve, 2);
/// assert_eq!(peaks[0], (3, 500));
/// assert_eq!(peaks[1], (1, 300));
/// ```
pub fn find_peaks(curve: &[UsageSample], top_k: usize) -> Vec<(usize, u64)> {
    if top_k == 0 {
        return Vec::new();
    }
    // One pass over the runs of equal values: a run is a maximum when its
    // neighbouring runs are both lower (or absent).
    let mut maxima: Vec<(usize, u64)> = Vec::new();
    let mut prev: Option<u64> = None;
    let mut start = 0;
    while start < curve.len() {
        let b = curve[start].bytes_in_use;
        let end = start
            + curve[start..]
                .iter()
                .position(|s| s.bytes_in_use != b)
                .unwrap_or(curve.len() - start);
        let next = curve.get(end).map(|s| s.bytes_in_use);
        if b != 0 && prev.is_none_or(|p| p < b) && next.is_none_or(|n| n < b) {
            maxima.push((curve[start].api_idx, b));
        }
        prev = Some(b);
        start = end;
    }
    maxima.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    maxima.truncate(top_k);
    maxima
}

/// Resolves the objects live at each peak: those whose lifetime (in trace
/// positions) covers the peak's API index.
pub fn peaks_with_objects(
    curve: &[UsageSample],
    registry: &ObjectRegistry,
    top_k: usize,
) -> Vec<MemoryPeak> {
    find_peaks(curve, top_k)
        .into_iter()
        .map(|(api_idx, bytes)| {
            let mut live: Vec<(ObjectId, u64)> = registry
                .iter()
                .filter(|o| {
                    o.alloc_api <= api_idx && o.free_api.map(|f| f > api_idx).unwrap_or(true)
                })
                .map(|o| (o.id, o.size()))
                .collect();
            live.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            MemoryPeak {
                api_idx,
                bytes,
                live_objects: live,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::PathId;
    use crate::object::ObjectSource;
    use gpu_sim::{AddrRange, DevicePtr};

    fn curve(values: &[u64]) -> Vec<UsageSample> {
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
    fn single_ramp_has_one_peak() {
        let peaks = find_peaks(&curve(&[10, 20, 30, 20, 10]), 2);
        assert_eq!(peaks, vec![(2, 30)]);
    }

    #[test]
    fn two_distinct_peaks_ranked_by_height() {
        let peaks = find_peaks(&curve(&[10, 50, 10, 90, 10]), 2);
        assert_eq!(peaks, vec![(3, 90), (1, 50)]);
    }

    #[test]
    fn top_k_truncates() {
        let peaks = find_peaks(&curve(&[1, 5, 1, 9, 1, 7, 1]), 2);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].1, 9);
        assert_eq!(peaks[1].1, 7);
    }

    #[test]
    fn plateau_reports_first_sample() {
        let peaks = find_peaks(&curve(&[1, 5, 5, 5, 1]), 3);
        assert_eq!(peaks, vec![(1, 5)]);
    }

    #[test]
    fn monotone_rise_peaks_at_the_end() {
        let peaks = find_peaks(&curve(&[1, 2, 3]), 1);
        assert_eq!(peaks, vec![(2, 3)]);
    }

    #[test]
    fn empty_and_zero_curves() {
        assert!(find_peaks(&[], 2).is_empty());
        assert!(find_peaks(&curve(&[0, 0, 0]), 2).is_empty());
    }

    #[test]
    fn live_objects_resolved_at_peak() {
        let mut reg = ObjectRegistry::new();
        // Object a: alive [0, 3); object b: alive [1, ∞); object c: [4, ∞).
        let a = reg.on_alloc(
            "a",
            AddrRange::new(DevicePtr::new(0x1000), 100),
            ObjectSource::Cuda,
            0,
            true,
            PathId(0),
        );
        let b = reg.on_alloc(
            "b",
            AddrRange::new(DevicePtr::new(0x2000), 300),
            ObjectSource::Cuda,
            1,
            true,
            PathId(0),
        );
        reg.on_free(DevicePtr::new(0x1000), 3);
        let _c = reg.on_alloc(
            "c",
            AddrRange::new(DevicePtr::new(0x3000), 50),
            ObjectSource::Cuda,
            4,
            true,
            PathId(0),
        );
        // Usage peaks at api 1 (a+b live).
        let samples = curve(&[100, 400, 400, 300, 350]);
        let peaks = peaks_with_objects(&samples, &reg, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].api_idx, 1);
        let ids: Vec<ObjectId> = peaks[0].live_objects.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![b, a], "largest first");
    }
}
