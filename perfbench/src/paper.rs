//! `paper-suite`: the twelve registry programs in both variants, in seeded
//! order, plus the seeded threshold sets their traces are reanalyzed under.

use crate::session::Subject;
use drgpum_core::Thresholds;
use drgpum_workloads::Variant;
use gpu_sim::SplitMix64;

/// The 24 programs, shuffled by `seed`.
pub fn suite(seed: u64) -> Vec<Subject> {
    let mut subjects: Vec<Subject> = drgpum_workloads::all()
        .into_iter()
        .flat_map(|spec| {
            Variant::BOTH.map(|variant| Subject::Paper {
                spec: spec.clone(),
                variant,
            })
        })
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..subjects.len()).rev() {
        subjects.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    subjects
}

/// `n` threshold sets drawn around the paper's defaults.
pub fn threshold_sweep(seed: u64, n: usize) -> Vec<Thresholds> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_7A8E);
    (0..n)
        .map(|_| Thresholds {
            redundant_size_pct: 5.0 + 25.0 * rng.next_f64(),
            idleness_min_apis: 1 + rng.next_below(6),
            overalloc_accessed_pct: 50.0 + 45.0 * rng.next_f64(),
            nuaf_cov_pct: 10.0 + 50.0 * rng.next_f64(),
            ..Thresholds::default()
        })
        .collect()
}
