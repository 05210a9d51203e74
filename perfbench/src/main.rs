//! Benchmark entry point.
//!
//! ```text
//! omt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--trace-out <dir>]
//! ```
//!
//! Prints notes and one `name = value unit` line per metric, then as the
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics untraced, the per-layer metrics
//! traced. A traced run also writes its spans to
//! `<trace-out>/<workload>-seed<n>.csv`.

use std::process::ExitCode;

use omt_perfbench::contract;
use omt_perfbench::trace::Tracer;
use omt_perfbench::workloads::{self, Config, Scale};

/// Worker count the benchmark pins for everything that follows
/// `OMT_THREADS` (`DynamicOverlay::rebuild`); every builder call sets
/// its own `.threads()`.
const THREADS: &str = "2";

struct Args {
    workload: String,
    cfg: Config,
    trace_out: Option<String>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut trace_out = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let known = contract::workloads();
    if !known.contains(&workload) {
        return Err(format!("unknown workload {workload}; one of {known:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
            scale: Scale::FULL,
        },
        trace_out,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Pin the ambient knobs before any library code reads them.
    std::env::set_var("OMT_THREADS", THREADS);
    std::env::remove_var("OMT_HGRID");
    std::env::remove_var("OMT_TRACE");
    let cfg = args.cfg;
    let mut tracer = Tracer::new(cfg.trace);
    let Some(mut out) = workloads::run(&args.workload, &cfg, &mut tracer) else {
        eprintln!(
            "omt-perfbench: workload {} is not implemented",
            args.workload
        );
        return ExitCode::from(2);
    };
    out.notes.insert(
        0,
        format!(
            "knobs: workload={} seed={} seconds={} trace={} OMT_THREADS={THREADS} OMT_HGRID=unset \
             OMT_TRACE=unset available_parallelism={}",
            args.workload,
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        ),
    );
    if let (true, Some(dir)) = (cfg.trace, &args.trace_out) {
        let path = format!("{dir}/{}-seed{}.csv", args.workload, cfg.seed);
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_csv()));
        match written {
            Ok(()) => out.note(format!("spans written to {path}")),
            Err(e) => out.check("write spans", Err(format!("{path}: {e}"))),
        }
    }
    let table = contract::metrics(if cfg.trace { "per_layer" } else { "end_to_end" });
    print!("{}", out.render(&table));
    ExitCode::SUCCESS
}
