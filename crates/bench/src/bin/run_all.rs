//! Reproduce the paper's figures, Table 1 and the simulated-rank sweep in
//! one process: `run_all [--full] [--seed N] [figNN|table1|ranksim …]`.
//! Names choose figures (none means all); CSVs go under `results/`
//! (`results/full/` with `--full`). See `EXPERIMENTS.md` for the
//! paper-vs-measured record.

fn main() {
    let opts = pop_bench::RunOptions::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("run_all: {e}");
        std::process::exit(2);
    });
    if let Err(e) = pop_bench::figures::run(opts) {
        eprintln!("run_all: {e}");
        std::process::exit(1);
    }
}
