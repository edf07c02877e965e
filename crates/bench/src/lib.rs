//! The experiment harness behind `run_all`: every table and figure of the
//! paper, and the simulated-rank sweep, is one entry of
//! [`figures::FIGURES`], run over one shared [`Measurements`] memo.
//!
//! Every entry follows the same recipe:
//!
//! 1. take the relevant grid from the memo (full paper dimensions with
//!    `--full`, a proportionally scaled grid by default so the whole suite
//!    runs in minutes on a laptop);
//! 2. run the *real* solvers to measure iteration counts and communication
//!    events, each configuration at most once per grid and run;
//! 3. where the figure reports wall time at production core counts, feed
//!    those measurements through the calibrated machine model
//!    (`pop-perfmodel`, substitution S2);
//! 4. return its tables, which the driver prints and writes as CSVs under
//!    `results/` (`results/full/` with `--full`).

pub mod figures;

use pop_comm::{CommWorld, DistLayout, DistVec};
use pop_core::setup::PrecondSpec;
use pop_core::solvers::{SolveStats, SolverConfig};
use pop_grid::Grid;
use pop_ocean::{SolverChoice, SolverSetup};
use pop_perfmodel::cost::{PrecondKind, SolverKind, SolverProfile};
use pop_stencil::NinePoint;
use std::cell::{OnceCell, RefCell};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `run_all`'s command line: `[--full] [--seed N] [figNN|table1|ranksim …]`.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Use the paper's full grid dimensions (3600×2400 for 0.1°) and the
    /// saturated 12-month ensemble horizons.
    pub full: bool,
    /// Random seed for grid generation and the machine model's noise.
    pub seed: u64,
    /// The figures to run, by name; empty means all of them.
    pub figures: Vec<String>,
}

impl RunOptions {
    /// Parse the arguments after the program name. An unknown option or
    /// figure name is an error naming what is accepted.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = RunOptions {
            full: false,
            seed: 2015, // the year of the paper
            figures: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => opts.full = true,
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs an integer")?;
                }
                name if figures::FIGURES.iter().any(|f| f.name == name) => opts.figures.push(a),
                other => {
                    let known: Vec<&str> = figures::FIGURES.iter().map(|f| f.name).collect();
                    return Err(format!(
                        "unknown argument {other} (options: --full, --seed N; figures: {})",
                        known.join(" ")
                    ));
                }
            }
        }
        Ok(opts)
    }

    /// Where this setting's CSVs live, so neither overwrites the other's.
    pub fn results_dir(&self) -> PathBuf {
        if self.full {
            PathBuf::from("results/full")
        } else {
            PathBuf::from("results")
        }
    }
}

/// The two production resolutions the figures measure on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Res {
    Gx1,
    Gx01,
}

/// The two production grids at either full or scaled dimensions, with
/// physically matched time steps.
pub struct ExperimentGrid {
    pub grid: Grid,
    pub label: &'static str,
    /// Barotropic time step matching the production stiffness.
    pub tau: f64,
    /// Process-block extents used when measuring solver statistics.
    pub bx: usize,
    pub by: usize,
}

impl ExperimentGrid {
    pub fn new(res: Res, opts: &RunOptions) -> Self {
        match res {
            // The 1°-like grid. Full size is cheap, so `--full` only affects
            // 0.1°.
            Res::Gx1 => ExperimentGrid {
                grid: Grid::gx1(opts.seed),
                label: "1deg",
                // Stiffness-calibrated: our synthetic bathymetry/metrics make
                // the operator somewhat harder than the real gx1 grid, so τ is
                // chosen where the measured ChronGear+diagonal iteration count
                // lands in the paper's regime (~180 at tol 1e-13) rather than
                // at the nominal one-hour coupling step. See DESIGN.md S4.
                tau: 1100.0,
                bx: 40,
                by: 48,
            },
            // The 0.1°-like grid: 3600×2400 with `--full`, 900×600 otherwise.
            // τ is stiffness-calibrated (measured K ≈ the paper's ~150 for
            // ChronGear+diagonal at tol 1e-13); the 4x-coarser quick grid
            // keeps the same gravity-wave CFL regime `gHτ²/dx²` with 4x the τ.
            // See DESIGN.md S4.
            Res::Gx01 => {
                let (nx, ny, tau) = if opts.full {
                    (3600usize, 2400usize, 86.4)
                } else {
                    (900, 600, 345.6)
                };
                ExperimentGrid {
                    grid: Grid::gx01_scaled(opts.seed, nx, ny),
                    label: "0.1deg",
                    tau,
                    bx: (nx / 20).max(8),
                    by: (ny / 20).max(8),
                }
            }
        }
    }
}

/// Measured behaviour of one solver configuration on a real grid.
#[derive(Debug, Clone)]
pub struct MeasuredConfig {
    pub choice: SolverChoice,
    pub stats: SolveStats,
    pub lanczos_steps: usize,
}

impl MeasuredConfig {
    /// Convert to the machine model's input.
    pub fn profile(&self, check_every: usize) -> SolverProfile {
        SolverProfile {
            solver: if self.choice.is_pcsi() {
                SolverKind::Pcsi
            } else {
                SolverKind::ChronGear
            },
            precond: if self.choice.precond == PrecondSpec::Evp {
                PrecondKind::Evp
            } else {
                PrecondKind::Diagonal
            },
            iterations: self.stats.iterations as f64,
            check_every,
        }
    }
}

/// A solvable system on the experiment grid: smooth right-hand side with a
/// gyre-like shape (what the barotropic mode sees after spin-up).
pub struct Workload {
    pub layout: Arc<DistLayout>,
    pub world: CommWorld,
    pub op: NinePoint,
    pub rhs: DistVec,
}

impl Workload {
    pub fn new(eg: &ExperimentGrid) -> Self {
        let layout = DistLayout::build(&eg.grid, eg.bx, eg.by);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&eg.grid, &layout, &world, eg.tau);
        // Smooth multi-scale surface-height tendency.
        let (nx, ny) = (eg.grid.nx as f64, eg.grid.ny as f64);
        let mut x_true = DistVec::zeros(&layout);
        x_true.fill_with(|i, j| {
            let xf = i as f64 / nx * std::f64::consts::TAU;
            let yf = j as f64 / ny * std::f64::consts::PI;
            (2.0 * xf).sin() * yf.sin() + 0.3 * (5.0 * xf).cos() * (3.0 * yf).sin()
        });
        world.halo_update(&mut x_true);
        let mut rhs = DistVec::zeros(&layout);
        op.apply(&world, &x_true, &mut rhs);
        Workload {
            layout,
            world,
            op,
            rhs,
        }
    }

    /// Measure one solver configuration the way POP experiences it: a cold
    /// spin-up solve (discarded), then a warm-started solve against a
    /// shifted right-hand side — each production time step starts from the
    /// previous surface height, which is what the paper's average iteration
    /// counts reflect. Deterministic: a serial world, and the comm counters
    /// are reset before the warm solve.
    pub fn measure(&self, choice: SolverChoice, cfg: &SolverConfig) -> MeasuredConfig {
        let setup = SolverSetup::new(choice, &self.op, &self.world);
        let mut x = DistVec::zeros(&self.layout);
        let cold = setup.solve(&self.op, &self.world, &self.rhs, &mut x, cfg);
        assert!(
            cold.converged,
            "{} failed to converge (cold): {cold:?}",
            choice.label()
        );
        // Next step's tendency: the same large-scale field plus a ~5% change
        // in shape, the typical step-to-step evolution of ψ.
        let (nx, ny) = (
            self.layout.decomp.grid_nx as f64,
            self.layout.decomp.grid_ny as f64,
        );
        let mut delta = DistVec::zeros(&self.layout);
        delta.fill_with(|i, j| {
            let xf = i as f64 / nx * std::f64::consts::TAU;
            let yf = j as f64 / ny * std::f64::consts::PI;
            (3.0 * xf + 0.7).sin() * (2.0 * yf).sin()
        });
        let mut rhs2 = self.rhs.clone();
        let scale = 0.05 * self.world.norm2_sq(&self.rhs).sqrt()
            / self.world.norm2_sq(&delta).sqrt().max(1e-300);
        rhs2.axpy(scale, &delta);
        self.world.reset_stats();
        let stats = setup.solve(&self.op, &self.world, &rhs2, &mut x, cfg);
        assert!(
            stats.converged,
            "{} failed to converge (warm): {stats:?}",
            choice.label()
        );
        MeasuredConfig {
            choice,
            stats,
            lanczos_steps: setup.lanczos_steps,
        }
    }
}

/// One run's shared state: each resolution's [`Workload`] is built on first
/// use, and each (resolution, configuration) is measured at most once —
/// [`Workload::measure`] is deterministic, so a shared result is the value
/// every figure would compute on its own.
pub struct Measurements {
    pub opts: RunOptions,
    /// The solver config every measurement uses.
    pub cfg: SolverConfig,
    grid_of: fn(Res, &RunOptions) -> ExperimentGrid,
    workloads: [OnceCell<(ExperimentGrid, Workload)>; 2],
    measured: RefCell<Vec<(Res, MeasuredConfig)>>,
}

impl Measurements {
    /// The production grids of [`ExperimentGrid::new`].
    pub fn new(opts: RunOptions) -> Self {
        Self::with_grids(opts, ExperimentGrid::new)
    }

    /// Measure on the grids `grid_of` builds instead.
    pub fn with_grids(opts: RunOptions, grid_of: fn(Res, &RunOptions) -> ExperimentGrid) -> Self {
        Measurements {
            opts,
            // Production tolerance, POP's check-every-10 cadence.
            cfg: SolverConfig {
                tol: 1e-13,
                max_iters: 100_000,
                check_every: 10,
                ..SolverConfig::default()
            },
            grid_of,
            workloads: Default::default(),
            measured: RefCell::default(),
        }
    }

    /// The grid and system at `res`, built on first use.
    pub fn workload(&self, res: Res) -> (&ExperimentGrid, &Workload) {
        let (eg, wl) = self.workloads[res as usize].get_or_init(|| {
            let eg = (self.grid_of)(res, &self.opts);
            let wl = Workload::new(&eg);
            (eg, wl)
        });
        (eg, wl)
    }

    /// `choice` measured at `res`, the first request running the solves.
    pub fn measure(&self, res: Res, choice: SolverChoice) -> MeasuredConfig {
        let known = self
            .measured
            .borrow()
            .iter()
            .find_map(|(r, m)| (*r == res && m.choice == choice).then(|| m.clone()));
        known.unwrap_or_else(|| {
            let m = self.workload(res).1.measure(choice, &self.cfg);
            self.measured.borrow_mut().push((res, m.clone()));
            m
        })
    }

    /// The paper's four configurations at `res`, in `PAPER_SET` order.
    pub fn paper_set(&self, res: Res) -> [MeasuredConfig; 4] {
        SolverChoice::PAPER_SET.map(|c| self.measure(res, c))
    }
}

/// One table of a figure: printed, then written as one CSV.
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<H: ToString>(
        title: &str,
        headers: impl IntoIterator<Item = H>,
        rows: Vec<Vec<String>>,
    ) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows,
        }
    }

    /// Render as an aligned text table.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (w, c) in widths.iter().zip(cells) {
                s.push_str(&format!("{c:>w$}  ", w = w));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        for row in &self.rows {
            line(row);
        }
    }
}

/// Write `table` as `dir/name.csv`, creating `dir` if needed.
pub fn write_csv(dir: &Path, name: &str, table: &Table) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{}", table.headers.join(","))?;
    for row in &table.rows {
        writeln!(f, "{}", row.join(","))?;
    }
    f.flush()?;
    println!("[wrote {}]", path.display());
    Ok(())
}

/// Two-significant-digit formatting helper for time columns.
pub fn fmt_s(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_csv_that_cannot_be_written_is_an_error() {
        let file = std::env::temp_dir().join(format!("pop_bench_not_a_dir_{}", std::process::id()));
        std::fs::write(&file, "").unwrap();
        let table = Table::new("t", ["a"], vec![vec!["1".to_string()]]);
        let result = write_csv(&file.join("results"), "t", &table);
        std::fs::remove_file(&file).unwrap();
        assert!(result.is_err());
    }

    /// A typo must not silently run the default (all figures, or the full
    /// settings of one): `--qiuck` is an error, and so is the old sweep's
    /// `--quick`, since quick is what runs without `--full`.
    #[test]
    fn a_misspelt_argument_is_an_error_and_ranksim_is_a_figure() {
        let parse = |args: &[&str]| RunOptions::parse(args.iter().map(|s| s.to_string()));
        for bad in ["--qiuck", "--quick", "--smoke", "ransim"] {
            let err = parse(&[bad]).unwrap_err();
            assert!(err.contains(bad) && err.contains("ranksim"), "got: {err}");
        }
        let quick = parse(&["ranksim"]).unwrap();
        assert!(!quick.full);
        assert_eq!(quick.figures, ["ranksim"]);
        assert!(parse(&["--full", "ranksim"]).unwrap().full);
    }

    /// Two small basins stand in for the production grids.
    fn small(res: Res, _: &RunOptions) -> ExperimentGrid {
        let n = match res {
            Res::Gx1 => 24,
            Res::Gx01 => 32,
        };
        ExperimentGrid {
            grid: Grid::idealized_basin(n, n, 1000.0, 5.0e4),
            label: "small",
            tau: 1800.0,
            bx: 8,
            by: 8,
        }
    }

    #[test]
    fn each_configuration_is_measured_once_and_as_a_fresh_measurement() {
        let m = Measurements::with_grids(RunOptions::parse([]).unwrap(), small);
        let first = m.measure(Res::Gx1, SolverChoice::PcsiEvp);
        let again = m.measure(Res::Gx1, SolverChoice::PcsiEvp);
        let set = m.paper_set(Res::Gx01);
        assert_eq!(
            m.measured.borrow().len(),
            5,
            "one measurement per distinct (grid, choice)"
        );

        let fresh_gx1 = Workload::new(&small(Res::Gx1, &m.opts));
        let fresh_gx01 = Workload::new(&small(Res::Gx01, &m.opts));
        let pairs = [(&fresh_gx1, &first), (&fresh_gx1, &again)]
            .into_iter()
            .chain(set.iter().map(|s| (&fresh_gx01, s)));
        for (wl, got) in pairs {
            let want = wl.measure(got.choice, &m.cfg);
            assert_eq!(got.stats.iterations, want.stats.iterations);
            assert_eq!(got.stats.comm, want.stats.comm);
            assert_eq!(got.lanczos_steps, want.lanczos_steps);
        }
        assert_eq!(
            set.iter().map(|s| s.choice).collect::<Vec<_>>(),
            SolverChoice::PAPER_SET
        );
    }
}
