//! Workload generation matching the paper's experimental setup: points
//! uniformly distributed in the unit disk (2-D) or unit ball (3-D), with
//! the source at the center, one independent set per trial.

use omt_rng::rngs::SmallRng;
use omt_rng::{SeedableRng, SplitMix64};

use omt_geom::{Ball, Point2, Point3, Region};

/// The problem sizes of Table I and Figures 4–8.
pub const PAPER_SIZES: [usize; 10] = [
    100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000,
];

/// A smaller sweep for quick runs and CI.
pub const QUICK_SIZES: [usize; 6] = [100, 500, 1_000, 5_000, 10_000, 50_000];

/// The paper uses 200 trials per size; at the largest sizes we scale down
/// by default to keep wall-clock sane (the paper's own Dev column is
/// already 0.00 there). Pass `--trials` to any experiment binary to
/// restore 200 everywhere.
pub fn default_trials(n: usize) -> usize {
    if n <= 100_000 {
        200
    } else if n <= 1_000_000 {
        20
    } else {
        5
    }
}

/// A deterministic per-(size, trial) RNG, so experiments are reproducible
/// and trials are independent.
pub fn trial_rng(experiment_seed: u64, n: usize, trial: usize) -> SmallRng {
    // Fold the three identifiers through the SplitMix64 finalizer one at a
    // time; each fold fully mixes before the next identifier enters, so
    // (seed, n, trial) triples land on well-separated streams.
    let z = SplitMix64::mix(
        SplitMix64::mix(experiment_seed.wrapping_add(SplitMix64::GAMMA.wrapping_mul(n as u64 + 1)))
            .wrapping_add(trial as u64 + 1),
    );
    SmallRng::seed_from_u64(z)
}

/// Runs `trials` independent trial bodies across the `omt-par` pool and
/// returns the results in trial order.
///
/// Because every trial derives its randomness from [`trial_rng`] (a pure
/// function of `(seed, n, trial)`) and results are joined by trial index,
/// any aggregate folded over the returned vector is bit-identical at any
/// thread count, including `OMT_THREADS=1`. Trial bodies should force
/// their inner builders to `.threads(1)` so parallelism lives at exactly
/// one level.
pub fn par_trials<R, F>(trials: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let idx: Vec<usize> = (0..trials).collect();
    omt_par::par_map_indexed(&idx, omt_par::effective_threads(), |_, &trial| f(trial))
}

/// Uniform points in the unit disk for one trial.
pub fn disk_trial(experiment_seed: u64, n: usize, trial: usize) -> Vec<Point2> {
    let mut rng = trial_rng(experiment_seed, n, trial);
    Ball::<2>::unit().sample_n(&mut rng, n)
}

/// Uniform points in the unit ball for one trial.
pub fn ball_trial(experiment_seed: u64, n: usize, trial: usize) -> Vec<Point3> {
    let mut rng = trial_rng(experiment_seed, n, trial);
    Ball::<3>::unit().sample_n(&mut rng, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_the_paper() {
        assert_eq!(PAPER_SIZES.len(), 10);
        assert_eq!(PAPER_SIZES[0], 100);
        assert_eq!(PAPER_SIZES[9], 5_000_000);
    }

    #[test]
    fn default_trials_policy() {
        assert_eq!(default_trials(100), 200);
        assert_eq!(default_trials(100_000), 200);
        assert_eq!(default_trials(500_000), 20);
        assert_eq!(default_trials(5_000_000), 5);
    }

    #[test]
    fn trials_are_reproducible_and_independent() {
        let a = disk_trial(1, 50, 0);
        let b = disk_trial(1, 50, 0);
        assert_eq!(a, b);
        let c = disk_trial(1, 50, 1);
        assert_ne!(a, c);
        let d = disk_trial(2, 50, 0);
        assert_ne!(a, d);
    }

    #[test]
    fn workloads_live_in_their_regions() {
        for p in disk_trial(3, 500, 0) {
            assert!(p.norm() <= 1.0 + 1e-12);
        }
        for p in ball_trial(3, 500, 0) {
            assert!(p.norm() <= 1.0 + 1e-12);
        }
    }
}
