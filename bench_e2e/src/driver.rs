//! The full command: every workload in its own process, results files,
//! the run-to-run agreement check (`--sets 2`) and the history ledger
//! (`--record`).

use crate::cli::Opts;
use crate::compare;
use crate::host::Provenance;
use crate::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where run outputs go: `bench_e2e/results/` under the checkout root (the
/// command is run from there), or `./results` when started elsewhere.
pub fn results_dir() -> PathBuf {
    let dir = if Path::new("bench_e2e").is_dir() {
        PathBuf::from("bench_e2e/results")
    } else {
        PathBuf::from("results")
    };
    // A failure to create it surfaces at the first write.
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn provenance_json(p: &Provenance) -> Json {
    Json::obj(vec![
        ("commit", Json::str(p.commit.clone())),
        (
            "dirty_outside_bench",
            Json::Arr(
                p.dirty_outside_bench
                    .iter()
                    .map(|s| Json::str(s.clone()))
                    .collect(),
            ),
        ),
        ("nproc", Json::Num(p.nproc as f64)),
        ("simd", Json::str(p.simd)),
    ])
}

/// Run one workload as a child process; its stdout/stderr pass through.
/// Returns the child's full report (read back from `--json-out`).
fn run_child(workload: &str, opts: &Opts, out: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let _ = std::fs::remove_file(out);
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .arg("--json-out")
        .arg(out);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = std::fs::read_to_string(out)
        .map_err(|e| format!("{workload} exited with {status} and left no report: {e}"))?;
    let _ = std::fs::remove_file(out);
    Json::parse(&text).map_err(|e| format!("{workload}: bad report: {e}"))
}

fn set_file(dir: &Path, opts: &Opts, set: usize) -> PathBuf {
    let kind = match (opts.smoke, opts.trace) {
        (true, true) => "smoke-layers",
        (true, false) => "smoke",
        (false, true) => "layers",
        (false, false) => "e2e",
    };
    dir.join(format!("{kind}-seed{}-set{set}.json", opts.seed))
}

pub fn run_all(workloads: &[String], opts: &Opts) -> Result<bool, String> {
    let prov = Provenance::collect();
    if opts.record {
        if !prov.in_git() {
            return Err("--record needs a git checkout (HEAD is the history key)".to_string());
        }
        if !prov.dirty_outside_bench.is_empty() {
            return Err(format!(
                "--record refused: the tree is dirty outside bench_e2e/ and BENCHMARK.json: {}",
                prov.dirty_outside_bench.join(", ")
            ));
        }
    }
    let dir = results_dir();
    println!(
        "# bench_e2e: commit {} dirty_outside_bench={} nproc={} simd={} seed={} seconds={} pass={}{}",
        prov.commit,
        !prov.dirty_outside_bench.is_empty(),
        prov.nproc,
        prov.simd,
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" },
        if opts.smoke { " SMOKE (sizes shrunk; not comparable, not recordable)" } else { "" }
    );

    // Sets alternate workload by workload, so slow drift of the host hits
    // both sets alike.
    let mut sets: Vec<Vec<(String, Json)>> = vec![Vec::new(); opts.sets];
    let mut all_correct = true;
    for w in workloads {
        for (k, set) in sets.iter_mut().enumerate() {
            let report = run_child(w, opts, &dir.join(format!("child-{w}.json")))?;
            all_correct &= report
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            set.push((w.clone(), report));
            if opts.sets > 1 {
                println!("# set {} of {} done for {w}", k + 1, opts.sets);
            }
        }
    }

    let mut files = Vec::new();
    for (k, set) in sets.iter().enumerate() {
        let doc = Json::obj(vec![
            ("schema", Json::Num(1.0)),
            ("provenance", provenance_json(&prov)),
            ("seed", Json::Num(opts.seed as f64)),
            ("seconds", Json::Num(opts.seconds)),
            ("traced", Json::Bool(opts.trace)),
            ("smoke", Json::Bool(opts.smoke)),
            ("workloads", Json::Obj(set.clone())),
        ]);
        let path = set_file(&dir, opts, k + 1);
        std::fs::write(&path, doc.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# wrote {}", path.display());
        if opts.record && k == 0 {
            let line = history_line(&prov, opts, set);
            append_line(&dir.join("history.jsonl"), &line)?;
            println!("# appended to {}", dir.join("history.jsonl").display());
        }
        files.push(path);
    }
    if let [a, b, ..] = files.as_slice() {
        println!("# run-to-run agreement: set 1 against set 2");
        let agree = compare::run(&a.to_string_lossy(), &b.to_string_lossy())?;
        all_correct &= agree;
    }
    Ok(all_correct)
}

/// One ledger line: provenance, frozen counts, and bare metric values.
fn history_line(prov: &Provenance, opts: &Opts, set: &[(String, Json)]) -> String {
    let workloads = set
        .iter()
        .map(|(name, report)| {
            let values = report
                .get("metrics")
                .and_then(Json::as_obj)
                .map(|ms| {
                    ms.iter()
                        .map(|(k, m)| (k.clone(), m.get("value").cloned().unwrap_or(Json::Null)))
                        .collect()
                })
                .unwrap_or_default();
            (
                name.clone(),
                Json::obj(vec![
                    (
                        "fail_frac",
                        report.get("fail_frac").cloned().unwrap_or(Json::Null),
                    ),
                    (
                        "frozen",
                        report.get("frozen").cloned().unwrap_or(Json::Null),
                    ),
                    ("metrics", Json::Obj(values)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("provenance", provenance_json(prov)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("traced", Json::Bool(opts.trace)),
        ("workloads", Json::Obj(workloads)),
    ])
    .render()
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(format!("{line}\n").as_bytes())
        .and_then(|()| f.sync_all())
        .map_err(|e| format!("{}: {e}", path.display()))
}
