//! The paper's figures and Table 1, and the simulated-rank sweep
//! (`ranksim`), one [`Figure`] entry each, and the driver that runs a
//! selection of them over one [`Measurements`] memo.

use crate::{fmt_s, write_csv, MeasuredConfig, Measurements, Res, RunOptions, Table};
use pop_comm::{CommWorld, DistLayout, DistVec};
use pop_core::lanczos::{estimate_bounds, estimate_bounds_fixed_steps, LanczosConfig};
use pop_core::precond::{BlockEvp, Diagonal, EvpScratch, EvpSubBlock, Preconditioner};
use pop_core::solvers::{LinearSolver, Pcsi};
use pop_grid::{Decomposition, Grid};
use pop_ocean::{MiniPopConfig, SolverChoice};
use pop_perfmodel::cost::day_cost;
use pop_perfmodel::paper::{self, verification, yellowstone_01, yellowstone_1};
use pop_perfmodel::{MachineModel, PopConfig, PopModel};
use pop_stencil::{LocalStencil, NinePoint};
use pop_verif::consistency::{evaluate, DEFAULT_ALLOWED_FAILURES, DEFAULT_MARGIN};
use pop_verif::{rmse, EnsembleConfig, Verdict, VerificationLab};
use std::io;

mod ranksim;

/// One table or figure of the paper.
pub struct Figure {
    /// What `run_all` selects it by.
    pub name: &'static str,
    /// The CSVs it writes, one per table `run` returns, in order.
    pub csvs: &'static [&'static str],
    pub run: fn(&Measurements) -> Vec<Table>,
}

impl Figure {
    const fn new(
        name: &'static str,
        csvs: &'static [&'static str],
        run: fn(&Measurements) -> Vec<Table>,
    ) -> Self {
        Figure { name, csvs, run }
    }
}

/// Every reproduction, in the order `run_all` runs them.
pub static FIGURES: [Figure; 15] = [
    Figure::new("fig01", &["fig01_barotropic_fraction"], fig01),
    Figure::new("fig02", &["fig02_comm_breakdown"], fig02),
    Figure::new("fig03", &["fig03_lanczos_steps"], fig03),
    Figure::new("fig04", &["fig04_sparsity"], fig04),
    Figure::new("fig05", &[], fig05),
    Figure::new("fig06", &["fig06_iteration_counts"], fig06),
    Figure::new("fig07", &["fig07_lowres_scaling"], fig07),
    Figure::new("table1", &["table1_total_improvement"], table1),
    Figure::new(
        "fig08",
        &[
            "fig08_highres_yellowstone_time",
            "fig08_highres_yellowstone_sypd",
        ],
        fig08,
    ),
    Figure::new("fig09", &["fig09_pcsi_fraction"], fig09),
    Figure::new("fig10", &["fig10_reduction", "fig10_halo"], fig10),
    Figure::new("fig11", &["fig11_highres_edison_time"], fig11),
    Figure::new("fig12", &["fig12_rmse_tolerance"], fig12),
    Figure::new("fig13", &["fig13_rmsz_ensemble"], fig13),
    Figure::new("ranksim", &["ranksim_scaling"], ranksim::ranksim),
];

/// Run the figures `opts` selects (all when it names none), printing each
/// table and writing it under [`RunOptions::results_dir`].
pub fn run(opts: RunOptions) -> io::Result<()> {
    let dir = opts.results_dir();
    let m = Measurements::new(opts);
    let chosen =
        |f: &&Figure| m.opts.figures.is_empty() || m.opts.figures.iter().any(|n| n == f.name);
    for fig in FIGURES.iter().filter(chosen) {
        println!("\n################ {} ################", fig.name);
        let tables = (fig.run)(&m);
        assert_eq!(
            tables.len(),
            fig.csvs.len(),
            "{}: one table per CSV",
            fig.name
        );
        for (csv, table) in fig.csvs.iter().zip(&tables) {
            table.print();
            write_csv(&dir, csv, table).map_err(|e| {
                let at = dir.join(format!("{csv}.csv"));
                io::Error::new(e.kind(), format!("writing {}: {e}", at.display()))
            })?;
        }
    }
    Ok(())
}

const SECONDS: [&str; 5] = [
    "cores",
    "cg_diag_s",
    "cg_evp_s",
    "pcsi_diag_s",
    "pcsi_evp_s",
];
const CONFIGS: [&str; 5] = ["cores", "cg_diag", "cg_evp", "pcsi_diag", "pcsi_evp"];
const SHARE: [&str; 4] = [
    "cores",
    "barotropic_pct",
    "baroclinic_pct",
    "total_s_per_day",
];
/// Global points of the production 0.1° grid, whatever grid was measured.
const GX01_POINTS: f64 = 3600.0 * 2400.0;

/// A table row: `label`, then `cells`.
fn row(label: impl ToString, cells: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(label.to_string()).chain(cells).collect()
}

/// One row per core count: the count, then one cell per configuration.
fn per_core(
    cores: &[usize],
    ms: &[MeasuredConfig],
    cell: impl Fn(usize, &MeasuredConfig) -> String,
) -> Vec<Vec<String>> {
    let cell = &cell;
    cores
        .iter()
        .map(|&p| row(p, ms.iter().map(move |mc| cell(p, mc))))
        .collect()
}

/// The last row's `cg → pcsi+diag → pcsi+evp` seconds and speed-ups.
fn speedups(rows: &[Vec<String>]) -> String {
    let last = rows.last().expect("rows");
    let s = |i: usize| last[i].parse::<f64>().expect("number");
    format!(
        "cg {}s -> pcsi+diag {}s ({:.1}x) -> pcsi+evp {}s ({:.1}x)",
        last[1],
        last[3],
        s(1) / s(3),
        last[4],
        s(1) / s(4)
    )
}

/// Barotropic share of modelled 0.1° POP time with `choice` (Figs. 1, 9).
fn share(m: &Measurements, choice: SolverChoice, title: &str) -> Vec<Table> {
    let measured = m.measure(Res::Gx01, choice);
    println!(
        "measured {} on 0.1deg: K = {} iterations at tol {:e}",
        choice.label(),
        measured.stats.iterations,
        m.cfg.tol
    );
    let model = PopModel::new(PopConfig::gx01_yellowstone());
    let profile = measured.profile(m.cfg.check_every);
    let rows = yellowstone_01::CORE_COUNTS
        .iter()
        .map(|&p| {
            let t = model.day(p, &profile, m.opts.seed);
            vec![
                p.to_string(),
                format!("{:.1}", 100.0 * t.barotropic_fraction),
                format!("{:.1}", 100.0 * t.baroclinic / t.total),
                fmt_s(t.total),
            ]
        })
        .collect();
    vec![Table::new(title, SHARE, rows)]
}

/// Figure 1: percentage of 0.1° POP execution time spent in the barotropic
/// solver (ChronGear + diagonal) as core counts grow — the motivating
/// problem: ~5% at 470 cores, ~50% at 16,875.
fn fig01(m: &Measurements) -> Vec<Table> {
    println!(
        "paper: ~{:.0}% at 470 cores, ~{:.0}% at 16,875 cores",
        100.0 * yellowstone_01::CG_FRACTION_470,
        100.0 * yellowstone_01::CG_FRACTION
    );
    share(
        m,
        SolverChoice::ChronGearDiag,
        "Fig 1: barotropic share of 0.1deg POP time, ChronGear+diagonal (modelled)",
    )
}

/// Figure 2: global-reduction vs halo-update time of the ChronGear solver in
/// 0.1° POP for one simulated day. The reduction component grows with core
/// count and dominates beyond a couple thousand cores; halo time shrinks.
fn fig02(m: &Measurements) -> Vec<Table> {
    let mc = m.measure(Res::Gx01, SolverChoice::ChronGearDiag);
    let comm = &mc.stats.comm;
    println!(
        "measured ChronGear+diagonal, K = {}: {} reductions, {} halo updates, {:.1} MB halo traffic",
        mc.stats.iterations,
        comm.allreduces,
        comm.halo_updates,
        comm.halo_bytes as f64 / 1e6
    );
    let machine = MachineModel::yellowstone();
    let profile = mc.profile(m.cfg.check_every);
    let rows: Vec<Vec<String>> = yellowstone_01::CORE_COUNTS
        .iter()
        .map(|&p| {
            let day = day_cost(
                &machine,
                &profile,
                GX01_POINTS,
                p,
                yellowstone_01::DT_COUNT,
                1,
                0,
            );
            vec![
                p.to_string(),
                fmt_s(day.reduction),
                fmt_s(day.halo),
                fmt_s(day.compute),
            ]
        })
        .collect();
    let reduction = |r: &Vec<String>| r[1].parse::<f64>().expect("number");
    let (lo, hi) = (reduction(&rows[0]), reduction(rows.last().expect("rows")));
    println!(
        "paper shape: reduction grows and dominates past ~2,000 cores; halo shrinks.\n\
         ours: reduction {lo}s -> {hi}s ({}x) from the fewest to the most cores",
        fmt_s(hi / lo)
    );
    vec![Table::new(
        "ChronGear+diagonal component seconds per simulated day (modelled)",
        ["cores", "reduction_s", "halo_s", "compute_s"],
        rows,
    )]
}

/// Figure 3: effect of the number of Lanczos steps on the P-CSI iteration
/// count in 1° POP. A handful of steps already gives near-optimal
/// convergence; the paper's ε = 0.15 settles there automatically.
fn fig03(m: &Measurements) -> Vec<Table> {
    let (seed, cfg) = (m.opts.seed, &m.cfg);
    let (_, wl) = m.workload(Res::Gx1);
    let diag = Diagonal::new(&wl.op);
    let evp = BlockEvp::with_defaults(&wl.op);
    let pres: [&dyn Preconditioner; 2] = [&diag, &evp];
    let pcsi = |pre: &dyn Preconditioner, bounds| {
        let mut x = DistVec::zeros(&wl.layout);
        Pcsi::new(bounds).solve(&wl.op, pre, &wl.world, &wl.rhs, &mut x, cfg)
    };
    let mut rows: Vec<Vec<String>> = [2usize, 3, 4, 6, 8, 12, 16, 24, 40]
        .into_iter()
        .map(|steps| {
            let iters = pres.map(|pre| {
                let st = pcsi(
                    pre,
                    estimate_bounds_fixed_steps(&wl.op, pre, &wl.world, steps, seed),
                );
                if st.converged {
                    st.iterations.to_string()
                } else {
                    "diverged".to_string()
                }
            });
            row(steps, iters)
        })
        .collect();
    // The adaptive (paper-default ε = 0.15) row.
    let adaptive = pres.map(|pre| {
        let (bounds, steps) = estimate_bounds(&wl.op, pre, &wl.world, &LanczosConfig::default());
        format!("{} ({} steps)", pcsi(pre, bounds).iterations, steps)
    });
    rows.push(row("eps=0.15", adaptive));
    println!(
        "paper: a small number of Lanczos steps yields near-optimal P-CSI convergence; \
         tolerance eps = {} 'works efficiently' for both preconditioners.",
        paper::lanczos::TOLERANCE
    );
    vec![Table::new(
        "Fig 3: P-CSI iterations vs Lanczos steps on the 1deg grid",
        ["lanczos_steps", "pcsi_diag_iters", "pcsi_evp_iters"],
        rows,
    )]
}

/// Figure 4: the nine-diagonal *block* structure of the coefficient matrix
/// when the domain is reordered block-by-block. Each block row couples to at
/// most nine block columns: itself, its E/W/N/S neighbours (thin bands), and
/// its four diagonal neighbours (single corner entries).
fn fig04(_: &Measurements) -> Vec<Table> {
    // A small all-ocean basin split 3×3, as in the paper's illustration.
    let n = 18;
    let g = Grid::idealized_basin(n, n, 1000.0, 5.0e4);
    let d = Decomposition::new(&g, n / 3, n / 3);
    let world = CommWorld::serial();
    let layout = DistLayout::new(&g, d, 2);
    let op = NinePoint::assemble(&g, &layout, &world, 1800.0);

    // Count couplings between every pair of blocks by walking each ocean
    // point's nine stencil legs.
    let nb = layout.decomp.blocks.len();
    let mut counts = vec![vec![0usize; nb]; nb];
    let block_of = |gi: isize, gj: isize| -> Option<usize> {
        if gi < 0 || gj < 0 || gi >= g.nx as isize || gj >= g.ny as isize {
            return None;
        }
        let bi = gi as usize / layout.decomp.block_nx;
        let bj = gj as usize / layout.decomp.block_ny;
        layout.decomp.block_at[bj * layout.decomp.mx + bi]
    };
    for (b, info) in layout.decomp.blocks.iter().enumerate() {
        for j in 0..info.ny as isize {
            for i in 0..info.nx as isize {
                if layout.masks[b][j as usize * info.nx + i as usize] == 0 {
                    continue;
                }
                let (gi, gj) = (info.i0 as isize + i, info.j0 as isize + j);
                let legs = [
                    (0, 0, op.a0.blocks[b].at(i, j)),
                    (0, 1, op.an.blocks[b].at(i, j)),
                    (0, -1, op.an.blocks[b].at(i, j - 1)),
                    (1, 0, op.ae.blocks[b].at(i, j)),
                    (-1, 0, op.ae.blocks[b].at(i - 1, j)),
                    (1, 1, op.ane.blocks[b].at(i, j)),
                    (1, -1, op.ane.blocks[b].at(i, j - 1)),
                    (-1, 1, op.ane.blocks[b].at(i - 1, j)),
                    (-1, -1, op.ane.blocks[b].at(i - 1, j - 1)),
                ];
                for (di, dj, c) in legs {
                    if c != 0.0 {
                        if let Some(ob) = block_of(gi + di, gj + dj) {
                            counts[b][ob] += 1;
                        }
                    }
                }
            }
        }
    }

    println!("couplings between 3x3 domain blocks");
    println!("(row = block, columns = blocks it couples to; B=dense in-block,");
    println!(" b=boundary band to an axis neighbour, c=corner entry, .=none)\n");
    println!(
        "     {}",
        (0..nb).map(|c| format!("B{c}   ")).collect::<String>()
    );
    for (r, legs) in counts.iter().enumerate() {
        let sym = |(c, &v): (usize, &usize)| match v {
            _ if r == c => "B",
            0 => ".",
            1..=2 => "c", // corner coupling: a single stencil leg (×2 symmetric)
            _ => "b",     // boundary band
        };
        let syms: String = legs
            .iter()
            .enumerate()
            .map(|cv| format!("{:<5}", sym(cv)))
            .collect();
        println!("B{r}   {syms}");
    }
    let max_blocks = counts
        .iter()
        .map(|row| row.iter().filter(|&&v| v > 0).count())
        .max()
        .unwrap_or(0);
    println!(
        "\neach block row couples to at most {max_blocks} blocks (paper: nine-diagonal block matrix)"
    );
    assert!(max_blocks <= 9);
    let rows = counts
        .iter()
        .enumerate()
        .map(|(r, legs)| row(format!("B{r}"), legs.iter().map(|v| v.to_string())))
        .collect();
    vec![Table::new(
        "Fig 4: stencil legs between 3x3 domain blocks",
        row("block", (0..9).map(|c| format!("c{c}"))),
        rows,
    )]
}

/// Figure 5: the EVP marching pattern. The equation centered at `(i,j)`
/// determines the unknown at `(i+1,j+1)`, so one SW→NE sweep from the
/// initial-guess line `e` (south row + west column) fills the domain and
/// overshoots onto the Dirichlet ring `f` (north + east), whose mismatch
/// drives the influence-matrix correction. Prints only; writes no CSV.
fn fig05(_: &Measurements) -> Vec<Table> {
    let n = 7usize;
    println!("EVP marching on a {n}x{n} block\n");
    println!("E = initial-guess point (value assumed), number = marching order,");
    println!("F = overshoot onto the Dirichlet ring (drives the correction)\n");
    // The equation at (i, j), taken lexicographically, produces (i+1, j+1).
    for j in (0..=n).rev() {
        let line: String = (0..=n)
            .map(|i| match (i, j) {
                _ if i < n && j < n && (i == 0 || j == 0) => "  E ".to_string(),
                (0, _) | (_, 0) => "  . ".to_string(),
                _ if i == n || j == n => "  F ".to_string(),
                _ => format!("{:>4}", format!("{:2} ", (j - 1) * n + (i - 1))),
            })
            .collect();
        println!("{line}");
    }

    // And demonstrate the full algorithm end to end: exact solve of a block.
    let raw = LocalStencil::reference(n, n, 200.0, 4.0);
    let sub = EvpSubBlock::new(&raw, false);
    assert!(sub.uses_marching());
    let psi: Vec<f64> = (0..n * n).map(|k| ((k as f64) * 0.37).sin()).collect();
    let mut x = vec![0.0; n * n];
    sub.solve(&psi, &mut x, &mut EvpScratch::default());
    let inside = |i: isize, j: isize| (0..n as isize).contains(&i) && (0..n as isize).contains(&j);
    let worst = (0..n * n)
        .map(|k| {
            let (i, j) = ((k % n) as isize, (k / n) as isize);
            let ax = raw.apply_at(i, j, |ii, jj| {
                if inside(ii, jj) {
                    x[jj as usize * n + ii as usize]
                } else {
                    0.0
                }
            });
            (ax - psi[k]).abs()
        })
        .fold(0.0f64, f64::max);
    println!(
        "\nEVP solve of the {n}x{n} block: max residual {worst:.2e} \
         (two marching sweeps + one {k}x{k} correction, k = 2n-1)",
        k = 2 * n - 1
    );
    println!("costs: solve O(22 n^2) vs dense LU O(n^4); setup O(26 n^3) done once (paper 4.2)");
    Vec::new()
}

/// Figure 6: average iteration counts of the four solver configurations at
/// both resolutions. The paper's headline convergence claims:
/// EVP cuts the count by ~2/3 for both solvers; P-CSI needs more iterations
/// than ChronGear; 0.1° converges in fewer iterations than 1° (its aspect
/// ratio is nearer 1).
fn fig06(m: &Measurements) -> Vec<Table> {
    use paper::fig6::*;
    let mut rows = Vec::new();
    for (res, paper_k) in [
        (
            Res::Gx1,
            [GX1_CG_DIAG, GX1_CG_EVP, GX1_PCSI_DIAG, GX1_PCSI_EVP],
        ),
        (
            Res::Gx01,
            [GX01_CG_DIAG, GX01_CG_EVP, GX01_PCSI_DIAG, GX01_PCSI_EVP],
        ),
    ] {
        let (eg, _) = m.workload(res);
        println!(
            "{} on {}x{} (tau = {}s)",
            eg.label, eg.grid.nx, eg.grid.ny, eg.tau
        );
        let ms = m.paper_set(res);
        for (mc, pk) in ms.iter().zip(paper_k) {
            let k = mc.stats.iterations as f64;
            rows.push(vec![
                eg.label.to_string(),
                mc.choice.label(),
                mc.stats.iterations.to_string(),
                format!("{pk:.0}"),
                format!("{:.2}", k / pk),
            ]);
        }
        // Shape checks the paper's text states, in PAPER_SET order:
        // cg+diag, cg+evp, pcsi+diag, pcsi+evp.
        let k = ms.map(|mc| mc.stats.iterations as f64);
        println!(
            "{}: EVP/diag iteration ratio = {:.2} (ChronGear), {:.2} (P-CSI)  [paper ~0.33]",
            eg.label,
            k[1] / k[0],
            k[3] / k[2]
        );
        assert!(k[1] < 0.7 * k[0], "EVP must cut ChronGear iterations");
        assert!(k[3] < 0.7 * k[2], "EVP must cut P-CSI iterations");
        assert!(k[2] > k[0], "P-CSI needs more iterations than ChronGear");
    }
    vec![Table::new(
        "average solver iterations (Fig 6)",
        ["grid", "config", "measured_K", "paper_K", "ratio"],
        rows,
    )]
}

/// Figure 7: execution time of the barotropic mode in 1° POP for one
/// simulated day, 48–768 cores, all four solver configurations. P-CSI
/// outperforms ChronGear at every core count; EVP helps both.
fn fig07(m: &Measurements) -> Vec<Table> {
    let model = PopModel::new(PopConfig::gx1_yellowstone());
    let rows = per_core(
        &yellowstone_1::CORE_COUNTS,
        &m.paper_set(Res::Gx1),
        |p, mc| {
            let t = model.day(p, &mc.profile(m.cfg.check_every), m.opts.seed);
            fmt_s(t.barotropic.total())
        },
    );
    println!(
        "paper @768 cores: cg+diag {:.2}s, pcsi+diag {:.2}s (1.4x), pcsi+evp {:.2}s (1.6x)\n\
         ours  @768 cores: {}",
        yellowstone_1::CG_DIAG_DAY_S_768,
        yellowstone_1::PCSI_DIAG_DAY_S_768,
        yellowstone_1::PCSI_EVP_DAY_S_768,
        speedups(&rows)
    );
    vec![Table::new(
        "1deg barotropic seconds per simulated day (modelled)",
        SECONDS,
        rows,
    )]
}

/// Table 1: percent improvement of the *total* 1° POP execution time for
/// each new solver configuration relative to ChronGear + diagonal.
fn table1(m: &Measurements) -> Vec<Table> {
    use yellowstone_1::*;
    let [cg, cg_evp, pcsi_diag, pcsi_evp] = m.paper_set(Res::Gx1);
    let model = PopModel::new(PopConfig::gx1_yellowstone());
    let total = |mc: &MeasuredConfig, p| {
        model
            .day(p, &mc.profile(m.cfg.check_every), m.opts.seed)
            .total
    };
    let mut rows = Vec::new();
    for (name, mc, paper_pct) in [
        ("ChronGear+EVP", cg_evp, TABLE1_CG_EVP),
        ("P-CSI+Diagonal", pcsi_diag, TABLE1_PCSI_DIAG),
        ("P-CSI+EVP", pcsi_evp, TABLE1_PCSI_EVP),
    ] {
        let ours = CORE_COUNTS.map(|p| {
            let (base, new) = (total(&cg, p), total(&mc, p));
            format!("{:+.1}", 100.0 * (base - new) / base)
        });
        rows.push(row(format!("{name} (ours)"), ours));
        let theirs = paper_pct.map(|v| format!("{v:+.1}"));
        rows.push(row(format!("{name} (paper)"), theirs));
    }
    println!("paper headline: P-CSI+EVP reaches 16.7% at 768 cores.");
    vec![Table::new(
        "percent improvement of total 1deg POP time vs ChronGear+diagonal",
        ["config", "p48", "p96", "p192", "p384", "p768"],
        rows,
    )]
}

/// 0.1° barotropic seconds and simulated years per day of the four
/// configurations on `model` (Figs. 8, 11); `seed` picks each core count's
/// machine-noise draw.
fn highres(
    m: &Measurements,
    model: PopModel,
    seed: impl Fn(usize) -> u64,
) -> [Vec<Vec<String>>; 2] {
    let ms = m.paper_set(Res::Gx01);
    let day = |p, mc: &MeasuredConfig| model.day(p, &mc.profile(m.cfg.check_every), seed(p));
    [
        per_core(&yellowstone_01::CORE_COUNTS, &ms, |p, mc| {
            fmt_s(day(p, mc).barotropic.total())
        }),
        per_core(&yellowstone_01::CORE_COUNTS, &ms, |p, mc| {
            format!("{:.1}", day(p, mc).sypd)
        }),
    ]
}

/// Figure 8: 0.1° POP on Yellowstone — barotropic seconds per simulated day
/// (left) and core simulation rate in simulated years per day (right),
/// 470–16,875 cores. The paper's headline: P-CSI+EVP speeds the barotropic
/// mode up 5.2× at 16,875 cores, lifting POP from 6.2 to 10.5 SYPD.
fn fig08(m: &Measurements) -> Vec<Table> {
    use yellowstone_01::*;
    let [time, rate] = highres(m, PopModel::new(PopConfig::gx01_yellowstone()), |_| {
        m.opts.seed
    });
    let last = rate.last().expect("rows");
    println!(
        "headline comparison at 16,875 cores:\n  barotropic: ours {}\n  \
         paper:      cg {}s -> pcsi+diag {}s (4.3x) -> pcsi+evp ({}x)\n  \
         SYPD: ours {} -> {} | paper {} -> {}",
        speedups(&time),
        CG_DIAG_DAY_S,
        PCSI_DIAG_DAY_S,
        PCSI_EVP_SPEEDUP,
        last[1],
        last[4],
        CG_SYPD,
        PCSI_EVP_SYPD
    );
    vec![
        Table::new(
            "0.1deg barotropic seconds per simulated day (modelled, Yellowstone)",
            SECONDS,
            time,
        ),
        Table::new(
            "0.1deg core simulation rate, simulated years per day",
            CONFIGS,
            rate,
        ),
    ]
}

/// Figure 9: with the EVP-preconditioned P-CSI solver, the barotropic mode
/// falls from ~50% of 0.1° POP time (Fig 1) to ~16% at 16,875 cores.
fn fig09(m: &Measurements) -> Vec<Table> {
    println!(
        "paper: ~{:.0}% at 16,875 cores (vs ~{:.0}% for ChronGear+diagonal)",
        100.0 * yellowstone_01::PCSI_EVP_FRACTION,
        100.0 * yellowstone_01::CG_FRACTION
    );
    share(
        m,
        SolverChoice::PcsiEvp,
        "Fig 9: barotropic share with P-CSI + EVP (modelled)",
    )
}

/// Figure 10: component breakdown of the 0.1° barotropic solvers on
/// Yellowstone — global-reduction time (left) and boundary-communication
/// time (right) per simulated day. P-CSI wins primarily by eliminating
/// reductions; EVP shrinks halo time by cutting iteration counts.
fn fig10(m: &Measurements) -> Vec<Table> {
    let machine = MachineModel::yellowstone();
    let ms = m.paper_set(Res::Gx01);
    let day = |p, mc: &MeasuredConfig| {
        let profile = mc.profile(m.cfg.check_every);
        day_cost(
            &machine,
            &profile,
            GX01_POINTS,
            p,
            yellowstone_01::DT_COUNT,
            1,
            0,
        )
    };
    let cores = &yellowstone_01::CORE_COUNTS;
    println!(
        "paper shape: P-CSI's reductions are negligible (checks only); \
         EVP roughly 3x-reduces both components via the iteration count; \
         ChronGear's reduction time decreases below ~1,200 cores then grows \
         (consistent with Eqs. 2-3)."
    );
    vec![
        Table::new(
            "global-reduction seconds per simulated day",
            CONFIGS,
            per_core(cores, &ms, |p, mc| fmt_s(day(p, mc).reduction)),
        ),
        Table::new(
            "boundary-communication seconds per simulated day",
            CONFIGS,
            per_core(cores, &ms, |p, mc| fmt_s(day(p, mc).halo)),
        ),
    ]
}

/// Figure 11: the 0.1° experiment repeated on Edison. Same shape as
/// Yellowstone, but reductions are slower and *noisy* (Dragonfly network
/// contention), so ChronGear times vary run to run; like the paper we run
/// several trials and average the best three. Paper: P-CSI+diag 3.7×,
/// P-CSI+EVP 5.6× at 16,875 cores.
fn fig11(m: &Measurements) -> Vec<Table> {
    use paper::edison_01::*;
    let seed = m.opts.seed;
    let [time, _] = highres(m, PopModel::new(PopConfig::gx01_edison()), |p| {
        seed.wrapping_add(p as u64)
    });
    println!(
        "headline comparison at 16,875 cores:\n  ours:  {}\n  \
         paper: cg {}s -> pcsi+diag {}s (3.7x) -> pcsi+evp ({}x)",
        speedups(&time),
        CG_DIAG_DAY_S,
        PCSI_DIAG_DAY_S,
        PCSI_EVP_SPEEDUP
    );
    // Variability: sample several independent trials of each config at the
    // top core count and report the spread (the paper's reported ChronGear
    // noisiness vs P-CSI's steadiness).
    let p = 16875;
    let mut one_trial = PopConfig::gx01_edison();
    one_trial.trials = 1;
    for choice in [SolverChoice::ChronGearDiag, SolverChoice::PcsiDiag] {
        let profile = m.measure(Res::Gx01, choice).profile(m.cfg.check_every);
        let ts: Vec<f64> = (0..12u64)
            .map(|s| {
                PopModel::new(one_trial)
                    .day(p, &profile, s * 977 + 13)
                    .barotropic
                    .total()
            })
            .collect();
        let mean = ts.iter().sum::<f64>() / ts.len() as f64;
        let max = ts.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = ts.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        println!(
            "  {} single-trial spread at {p} cores: {min:.1}..{max:.1}s around {mean:.1}s",
            choice.label()
        );
    }
    vec![Table::new(
        "0.1deg barotropic seconds per simulated day (modelled, Edison, best 3 of 5 trials)",
        SECONDS,
        time,
    )]
}

/// The eddying 64×48, three-level basin of Figs. 12 and 13, running
/// ChronGear + diagonal at POP's default 1e-13 unless a run says otherwise.
fn gyre_lab(cfg: EnsembleConfig, world: &CommWorld) -> VerificationLab {
    let grid = Grid::idealized_basin(64, 48, 500.0, 2.0e4);
    let mut base = MiniPopConfig::eddying_for(&grid);
    base.nlev = 3;
    VerificationLab::new(grid, base, cfg, world)
}

/// The solver tolerances Figs. 12 and 13 sweep.
fn tolerances(full: bool) -> Vec<f64> {
    if full {
        verification::TOLERANCES.to_vec()
    } else {
        vec![1e-10, 1e-11, 1e-13, 1e-16]
    }
}

/// `m1, …, m{n}` column names.
fn months(n: usize) -> impl Iterator<Item = String> {
    (1..=n).map(|i| format!("m{i}"))
}

/// Figure 12: the *failure* of the plain RMSE test. Runs of the mini ocean
/// with solver tolerances from 1e-10 to 1e-16 are compared (RMSE of monthly
/// temperature) against the strictest run. Once chaotic divergence has
/// saturated, the RMSE is set by the model's natural variability, not by
/// the solver error — so the loose tolerances are *not* distinguishable,
/// and can even score smallest in some months, exactly the paper's finding.
///
/// Chaotic saturation takes real simulated time: `--full` runs tens of
/// thousands of steps, on the order of 15–25 minutes. The quick setting
/// runs a shorter horizon (pre-saturation: RMSE then still orders by
/// tolerance — printed for contrast, and a useful negative control).
fn fig12(m: &Measurements) -> Vec<Table> {
    let quick = !m.opts.full;
    let (n_months, steps_per_month, spinup_steps) = if quick {
        (8, 600, 2000)
    } else {
        (12, 2500, 4000)
    };
    println!(
        "tolerance sweep, {n_months} months x {steps_per_month} steps{}",
        if quick {
            " (QUICK: pre-saturation horizon; pass --full for the paper-shaped result)"
        } else {
            ""
        }
    );
    let cfg = EnsembleConfig {
        members: 0, // unused here
        perturbation: verification::PERTURBATION,
        months: n_months,
        steps_per_month,
        spinup_steps,
    };
    let world = CommWorld::serial();
    let lab = gyre_lab(cfg, &world);
    let tolerances = tolerances(m.opts.full);
    // Reference: the strictest tolerance.
    let strict = tolerances.iter().copied().fold(f64::INFINITY, f64::min);
    println!("running reference at tol {strict:e}...");
    let reference = lab.run_trajectory(&world, None, SolverChoice::ChronGearDiag, strict);
    let mut rows = Vec::new();
    let mut final_rmse = Vec::new();
    for &tol in tolerances.iter().filter(|&&t| t != strict) {
        println!("running candidate at tol {tol:e}...");
        let cand = lab.run_trajectory(&world, None, SolverChoice::ChronGearDiag, tol);
        let series: Vec<f64> = cand
            .iter()
            .zip(&reference)
            .map(|(c, r)| rmse(c, r))
            .collect();
        let cells = series.iter().map(|v| format!("{v:.2e}"));
        rows.push(row(format!("{tol:.0e}"), cells));
        final_rmse.push((tol, series[n_months - 1]));
    }

    // The paper's observation, quantified: in the final month, is the RMSE
    // ordering still the tolerance ordering? After saturation it is not.
    final_rmse.sort_by(|a, b| a.0.total_cmp(&b.0));
    let ordered_by_tol = final_rmse.windows(2).all(|w| w[0].1 <= w[1].1);
    let max = final_rmse
        .iter()
        .map(|x| x.1)
        .fold(f64::NEG_INFINITY, f64::max);
    let min = final_rmse.iter().map(|x| x.1).fold(f64::INFINITY, f64::min);
    println!(
        "final-month RMSE max/min ratio across tolerances: {:.1} \
         (paper: O(1) — indistinguishable)\nfinal-month RMSE {} by tolerance{}",
        max / min.max(1e-300),
        if ordered_by_tol {
            "IS ordered"
        } else {
            "is NOT ordered"
        },
        if quick {
            " — expected pre-saturation; run with --full"
        } else {
            " (paper: not ordered; even 1e-10 is sometimes smallest)"
        }
    );
    vec![Table::new(
        &format!("monthly temperature RMSE vs the tol={strict:.0e} reference"),
        row("tolerance", months(n_months)),
        rows,
    )]
}

/// Figure 13: the ensemble-based RMSZ test succeeds where RMSE fails.
/// A perturbation ensemble (paper: 40 members, 1e-14 initial temperature
/// perturbation) defines the envelope of natural variability; candidates
/// with loose solver tolerances (1e-10, 1e-11) score RMSZ values orders of
/// magnitude outside the member envelope, while the default and stricter
/// tolerances — and the new P-CSI+EVP solver — fall inside.
fn fig13(m: &Measurements) -> Vec<Table> {
    let quick = !m.opts.full;
    let cfg = if quick {
        EnsembleConfig {
            members: 16,
            perturbation: verification::PERTURBATION,
            months: 8,
            steps_per_month: 600,
            spinup_steps: 2500,
        }
    } else {
        EnsembleConfig {
            members: verification::ENSEMBLE_SIZE,
            perturbation: verification::PERTURBATION,
            // Long enough that the chaotic divergence saturates — the regime
            // the paper's 12–24-month ensembles operate in, and what makes
            // a solver *change* at tight tolerance indistinguishable from
            // the ensemble's own variability.
            months: 12,
            steps_per_month: 2500,
            spinup_steps: 4000,
        }
    };
    println!(
        "{}-member ensemble, {} months x {} steps{}",
        cfg.members,
        cfg.months,
        cfg.steps_per_month,
        if quick {
            " (QUICK; pass --full for the 40-member setup)"
        } else {
            ""
        }
    );
    let world = CommWorld::serial();
    let lab = gyre_lab(cfg, &world);
    println!("building the ensemble...");
    let ensemble = lab.build_ensemble(&world);
    // The member envelope (the paper's yellow band).
    for (t, (lo, hi)) in ensemble.member_rmsz_range.iter().enumerate() {
        println!(
            "  member leave-one-out RMSZ, month {}: {lo:.2}..{hi:.2}",
            t + 1
        );
    }

    // Candidates: the tolerance sweep with the reference solver, plus the
    // paper's new solver at the default tolerance.
    let candidates = tolerances(m.opts.full)
        .into_iter()
        .map(|tol| {
            (
                format!("chrongear tol={tol:.0e}"),
                SolverChoice::ChronGearDiag,
                tol,
            )
        })
        .chain(std::iter::once((
            format!("P-CSI+EVP tol={:.0e}", verification::DEFAULT_TOLERANCE),
            SolverChoice::PcsiEvp,
            verification::DEFAULT_TOLERANCE,
        )));
    let mut rows = Vec::new();
    let mut verdicts = Vec::new();
    for (label, solver, tol) in candidates {
        println!("candidate: {label}...");
        let trajectory = lab.run_trajectory(&world, None, solver, tol);
        let report = evaluate(
            &ensemble,
            &trajectory,
            DEFAULT_MARGIN,
            DEFAULT_ALLOWED_FAILURES,
        );
        let cells = report.rmsz.iter().map(|z| format!("{z:.2}"));
        let verdict = format!("{:?}", report.verdict);
        rows.push(row(&label, cells.chain([verdict])));
        let expect_flag = tol >= 1e-11 && solver == SolverChoice::ChronGearDiag;
        verdicts.push((label, expect_flag, report.verdict));
    }

    println!("\npaper finding: tolerances 1e-10 and 1e-11 are 'noticeably removed from the");
    println!("ensemble distribution'; the default (1e-13), stricter tolerances, and the new");
    println!("P-CSI solver are consistent — enabling its inclusion in the CESM release.");
    for (label, expect_flag, v) in &verdicts {
        let marker = match (expect_flag, v) {
            (true, Verdict::Inconsistent) | (false, Verdict::Consistent) => "as in the paper",
            _ => "DIFFERS from the paper",
        };
        println!("  {label}: {v:?} ({marker})");
    }
    println!(
        "\nnote: with an unsaturated ensemble (finite horizon on the reduced-physics\n\
         model) the test is stricter than the paper's — any non-bit-similar candidate\n\
         sits above the band even when its RMSZ is orders of magnitude below the\n\
         flagged tolerances'. The discrimination ORDER is the reproducible claim;\n\
         see EXPERIMENTS.md, Fig 13, for the analysis."
    );
    let headers = months(ensemble.months()).chain(["verdict".to_string()]);
    vec![Table::new(
        "candidate RMSZ per month",
        row("candidate", headers),
        rows,
    )]
}
