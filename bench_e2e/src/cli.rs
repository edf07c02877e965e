//! Command line of the `bench` binary.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1      one workload, one process
//! bench [--seed N] [--seconds S] [--trace] [--smoke] [--sets K] [--record] [workload…]
//! bench compare A.json B.json
//! bench catalog                                               print BENCHMARK.json
//! ```

use crate::catalog::{RUN_SECONDS, WORKLOADS};

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload in this process and print its result line.
    One {
        workload: String,
        opts: Opts,
    },
    /// Run workloads, each in a child process, and print the table.
    All {
        workloads: Vec<String>,
        opts: Opts,
    },
    Compare {
        base: String,
        new: String,
    },
    /// Print `BENCHMARK.json` as rendered from `src/catalog.rs`.
    Catalog,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Alternating sets of the same code (the run-to-run agreement check).
    pub sets: usize,
    /// Append the result to `results/history.jsonl`.
    pub record: bool,
    /// Where a single-workload run writes its full report (the full
    /// command passes this to its children).
    pub json_out: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            seed: 2015,
            seconds: RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            sets: 1,
            record: false,
            json_out: None,
        }
    }
}

pub const USAGE: &str = "usage:
  bench --workload NAME --seed N --seconds S --trace 0|1
  bench [--seed N] [--seconds S] [--trace] [--smoke] [--sets K] [--record] [workload...]
  bench compare A.json B.json
  bench catalog";

pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, base, new] => Ok(Command::Compare {
                base: base.clone(),
                new: new.clone(),
            }),
            _ => Err("compare takes exactly two result files".to_string()),
        };
    }
    if args == ["catalog"] {
        return Ok(Command::Catalog);
    }
    let mut opts = Opts::default();
    let mut one = None;
    let mut positional = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => one = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--sets" => {
                opts.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if !(1..=20).contains(&opts.sets) {
                    return Err("--sets must be in 1..=20".to_string());
                }
            }
            // `--trace 1` / `--trace 0` for the driver, bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    opts.trace = false;
                }
                Some("1") => {
                    it.next();
                    opts.trace = true;
                }
                _ => opts.trace = true,
            },
            "--json-out" => opts.json_out = Some(value("a path")?),
            "--smoke" => opts.smoke = true,
            "--record" => opts.record = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            name => positional.push(name.to_string()),
        }
    }
    for name in one.iter().chain(&positional) {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; known: {}",
                known.join(", ")
            ));
        }
    }
    if opts.record && opts.smoke {
        return Err("a --smoke run is never recordable".to_string());
    }
    match one {
        Some(workload) => {
            if !positional.is_empty() || opts.sets != 1 || opts.record {
                return Err("--workload runs one workload; --sets/--record/extra names need the full command".to_string());
            }
            Ok(Command::One { workload, opts })
        }
        None => {
            let workloads = if positional.is_empty() {
                WORKLOADS.iter().map(|w| w.name.to_string()).collect()
            } else {
                positional
            };
            Ok(Command::All { workloads, opts })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_form() {
        let cmd = parse(&args(
            "--workload gyre_minipop --seed 7 --seconds 8 --trace 1",
        ))
        .unwrap();
        let Command::One { workload, opts } = cmd else {
            panic!("one")
        };
        assert_eq!(workload, "gyre_minipop");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 8.0, true));
        let Command::One { opts, .. } = parse(&args("--workload ranks_1024 --trace 0")).unwrap()
        else {
            panic!("one")
        };
        assert!(!opts.trace);
    }

    #[test]
    fn hand_form() {
        let Command::All { workloads, opts } =
            parse(&args("--trace --smoke serve_open_warm")).unwrap()
        else {
            panic!("all")
        };
        assert_eq!(workloads, ["serve_open_warm"]);
        assert!(opts.trace && opts.smoke);
        let Command::All { workloads, .. } = parse(&[]).unwrap() else {
            panic!("all")
        };
        assert_eq!(workloads.len(), WORKLOADS.len());
        assert_eq!(
            parse(&args("compare a.json b.json")).unwrap(),
            Command::Compare {
                base: "a.json".into(),
                new: "b.json".into()
            }
        );
    }

    #[test]
    fn rejects_nonsense() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
        assert!(parse(&args("--smoke --record")).is_err());
        assert!(parse(&args("compare a.json")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
    }
}
