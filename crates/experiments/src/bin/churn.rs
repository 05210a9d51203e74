//! Dynamic membership under churn: the decentralized-maintenance extension.
//! Reports the worst delay of the churned overlay against a fresh static
//! rebuild over the same membership, as churn progresses, plus the fraction
//! of survivors a random 1% host crash would strand in the churned tree.

use omt_core::{DynamicOverlay, PolarGridBuilder};
use omt_experiments::cli::ExpArgs;
use omt_experiments::report::{series_csv, series_markdown, write_result};
use omt_experiments::workload::trial_rng;
use omt_geom::{Point2, Region};
use omt_rng::RngExt;
use omt_sim::simulate_with_failures;
use omt_tree::MulticastTree;

/// The 1%-crash strand-rate column. The crash rng derives from (seed,
/// target, 1 + step), independent of the membership stream's rng, so this
/// column cannot perturb the event trace.
fn stranded_column(snapshot: &MulticastTree<2>, seed: u64, target: usize, step: usize) -> f64 {
    let mut crash_rng = trial_rng(seed, target, 1 + step);
    let crashes = (snapshot.len() / 100).max(1);
    let failed: Vec<usize> = (0..crashes)
        .map(|_| crash_rng.random_range(0..snapshot.len()))
        .collect();
    simulate_with_failures(snapshot, &failed).stranded_fraction()
}

fn metrics_row(
    snapshot: &MulticastTree<2>,
    churned: f64,
    seed: u64,
    target: usize,
    step: usize,
) -> Vec<f64> {
    let fresh = PolarGridBuilder::new()
        .build(Point2::ORIGIN, snapshot.points())
        .expect("valid points")
        .radius();
    let stranded = stranded_column(snapshot, seed, target, step);
    vec![churned, fresh, churned / fresh, stranded]
}

fn run(args: &ExpArgs, target: usize, steps: usize) -> Vec<(f64, Vec<f64>)> {
    let mut rng = trial_rng(args.seed(), target, 0);
    let disk = omt_geom::Disk::unit();
    let mut overlay = DynamicOverlay::new(Point2::ORIGIN, 6).expect("degree 6 ok");
    let mut live = Vec::new();
    let mut rows = Vec::new();
    for step in 0..steps {
        if live.len() < target / 2 || (live.len() < target * 2 && rng.random::<f64>() < 0.55) {
            live.push(overlay.join(disk.sample(&mut rng)));
        } else {
            let i = rng.random_range(0..live.len());
            overlay.leave(live.swap_remove(i)).expect("live id");
        }
        if step % (steps / 10).max(1) == 0 && overlay.len() > 10 {
            let snapshot = overlay.snapshot().expect("consistent overlay");
            let row = metrics_row(&snapshot, overlay.radius(), args.seed(), target, step);
            rows.push((step as f64, row));
        }
    }
    rows
}

fn main() {
    let args = ExpArgs::from_env();
    let target = args.sizes.as_ref().map_or(2_000, |s| s[0]);
    let steps = args.trials.unwrap_or(10) * target;
    eprintln!("churn experiment: target size {target}, {steps} membership events");
    let rows = run(&args, target, steps);
    let names = [
        "churned radius",
        "fresh rebuild radius",
        "ratio",
        "crash stranded fraction",
    ];
    println!("{}", series_markdown("events", &names, &rows));
    if let Some(dir) = &args.out {
        let p = write_result(dir, "churn.csv", &series_csv("events", &names, &rows))
            .expect("write CSV");
        eprintln!("wrote {}", p.display());
    }
}
