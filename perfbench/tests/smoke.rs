//! Tiny-size smoke test: every workload passes its own output checks and
//! prints every metric of `BENCHMARK.json` with its unit, every metric is
//! measured by some workload, and a tree over its degree cap is counted
//! as a failure.

use std::collections::BTreeSet;

use omt_geom::Point2;
use omt_perfbench::checks;
use omt_perfbench::contract;
use omt_perfbench::metrics::Outcome;
use omt_perfbench::trace::Tracer;
use omt_perfbench::workloads::{self, Config, Scale};
use omt_tree::TreeBuilder;

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = contract::metrics(section);
        let mut measured = BTreeSet::new();
        for w in contract::workloads() {
            let cfg = Config {
                seed: 7,
                seconds: 0.05,
                trace,
                scale: Scale::TINY,
            };
            let mut tr = Tracer::new(trace);
            let out = workloads::run(&w, &cfg, &mut tr).expect("every workload is implemented");
            let text = out.render(&want);
            let result = text.lines().last().unwrap();
            assert!(
                result.starts_with("{\"correct\": true,"),
                "{w} trace={trace}:\n{text}"
            );
            for (name, unit) in &want {
                let line = text.lines().find(|l| l.starts_with(&format!("{name} = ")));
                assert!(
                    line.is_some_and(|l| l.ends_with(&format!(" {unit}"))),
                    "{w}: {name}"
                );
                assert!(
                    result.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{w}: {name} missing from the result"
                );
                if out.values.contains_key(name) {
                    measured.insert(name.clone());
                }
            }
            if !trace {
                // Every end-to-end metric is measured on every workload and
                // never reads 0.
                for (name, _) in &want {
                    let v = out.values.get(name).copied().unwrap_or(0.0);
                    assert!(v > 0.0, "{w}: {name} reads {v}");
                }
            }
        }
        for (name, _) in &want {
            assert!(measured.contains(name), "no workload measures {name}");
        }
    }
}

#[test]
fn a_tree_over_its_degree_cap_counts_as_a_failure() {
    let pts: Vec<Point2> = (1..=3).map(|i| Point2::new([f64::from(i), 0.0])).collect();
    let mut b = TreeBuilder::new(Point2::ORIGIN, pts);
    b.attach_to_source(0).unwrap();
    b.attach(1, 0).unwrap();
    b.attach(2, 0).unwrap();
    let tree = b.finish().unwrap();
    let mut out = Outcome::default();
    out.check("capped at 2", checks::tree(&tree, 3, 2));
    out.check("capped at 1", checks::tree(&tree, 3, 1));
    let text = out.render(&contract::metrics("end_to_end"));
    let result = text.lines().last().unwrap();
    assert!(
        result.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"),
        "{result}"
    );
}
