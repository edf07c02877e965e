//! `bench`: the repository's one end-to-end, layered benchmark. See
//! `README.md` next to this crate and `BENCHMARK.json` at the repository
//! root.

mod catalog;
mod cli;
mod compare;
mod driver;
mod host;
mod inputs;
mod json;
mod ladder;
mod refwork;
mod report;
mod simranks;
mod stats;
mod trace;
mod unit;
mod workloads;

use cli::{Command, Opts};
use std::process::ExitCode;
use std::time::Instant;

/// One workload in this process: run, check, print every metric by name,
/// write the trace, and end with the result line.
fn run_one(workload: &str, opts: &Opts) -> bool {
    let t0 = Instant::now();
    let tracer = trace::Tracer::new(opts.trace);
    let ctx = workloads::Ctx {
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        smoke: opts.smoke,
        tracer: &tracer,
    };
    let mut report = {
        let _s = tracer.span("workload");
        workloads::run(workload, &ctx).expect("the command line only admits known workloads")
    };

    if opts.trace {
        report.push(report::Metric::one(
            "bench.traced_wall_s",
            "s",
            t0.elapsed().as_secs_f64(),
        ));
    }
    // Exactly the metrics BENCHMARK.json names for this pass, each a finite
    // number in the unit it names — anything else is a harness bug, and a
    // failed run rather than a silently odd key.
    let expected = catalog::expected(opts.trace);
    let names: Vec<&'static str> = expected.iter().map(|(n, _)| *n).collect();
    for name in report.select(&names) {
        report.fail(format!("metric {name} was never measured"));
    }
    let odd: Vec<String> = report
        .metrics
        .iter()
        .filter_map(|m| {
            let unit = expected.iter().find(|(n, _)| *n == m.name).map(|(_, u)| *u);
            if !m.value.is_finite() {
                Some(format!("metric {} is not a number", m.name))
            } else if unit != Some(m.unit) {
                Some(format!(
                    "metric {} reported in {}, catalogued in {unit:?}",
                    m.name, m.unit
                ))
            } else {
                None
            }
        })
        .collect();
    for what in odd {
        report.fail(what);
    }

    report.print_human(workload);
    if opts.trace {
        let spans = tracer.spans();
        println!(
            "{workload:<22} {:<38} {:>8} {:>12} {:>12}",
            "span", "calls", "total ms", "self ms"
        );
        for (name, t) in trace::by_layer(&spans) {
            println!(
                "{workload:<22} {name:<38} {:>8} {:>12.3} {:>12.3}",
                t.calls,
                t.total_s * 1e3,
                t.self_s * 1e3
            );
        }
        let path = driver::results_dir().join(format!("trace-{workload}.json"));
        match std::fs::write(&path, trace::chrome_json(&spans)) {
            Ok(()) => println!("# {} spans written to {}", spans.len(), path.display()),
            Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
        }
    }
    if let Some(path) = &opts.json_out {
        if let Err(e) = std::fs::write(path, report.to_json().render()) {
            report.fail(format!("cannot write {path}: {e}"));
        }
    }
    println!("{}", report.result_line());
    report.correct()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match cli::parse(&args) {
        Err(e) => {
            eprintln!("bench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
        Ok(Command::One { workload, opts }) => Ok(run_one(&workload, &opts)),
        Ok(Command::All { workloads, opts }) => driver::run_all(&workloads, &opts),
        Ok(Command::Compare { base, new }) => compare::run(&base, &new),
        Ok(Command::Catalog) => {
            print!("{}", catalog::benchmark_json());
            Ok(true)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
