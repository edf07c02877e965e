//! The block Error-Vector-Propagation preconditioner (paper §4, Alg. 3).
//!
//! EVP (Roache, *Elliptic marching methods and domain decomposition*) solves
//! a small Dirichlet elliptic problem by *marching*: the nine-point equation
//! centered at `(i,j)` is solved for the northeast unknown `(i+1,j+1)`, so a
//! single southwest-to-northeast sweep satisfies every equation given values
//! on the south/west "initial guess" line `e`. Marching overshoots onto the
//! north/east Dirichlet ring `f`; the mismatch there is linear in the guess
//! error, `F = W·E`, so a second sweep with the corrected guess
//! `e ← e − W⁻¹F` delivers the exact solution. Cost: `O(n²)` per solve after
//! an `O(n³)` one-time setup of the influence matrix `W` — the cheapest
//! direct block solver available, which is the paper's whole point.
//!
//! Marching is numerically unstable on large domains (the influence matrix
//! entries grow geometrically), so [`BlockEvp`] tiles each process block
//! into sub-blocks of bounded size (default 12, the stability limit the
//! paper quotes) and solves them independently as a block-Jacobi
//! preconditioner. Tiles that cannot march — they touch land, or their
//! influence matrix is unusable — are solved directly with a no-pivot band
//! LU of the same matrix (DESIGN.md S5).
//!
//! The default drops the N/S/E/W couplings (`reduced = true`), halving the
//! marching cost — the paper's §4.3 optimization, valid because those
//! couplings are an order of magnitude smaller than the rest.

use super::evp_multi::{self, MultiEvpScratch};
use super::evp_simd::{self, MarchPlan};
use super::tiling::{tile_block, Tile};
use super::Preconditioner;
use pop_comm::{BlockVec, MultiBlockVec};
use pop_simd::{SimdMode, LANES};
use pop_stencil::dense::BandLu;
use pop_stencil::{DenseMatrix, LocalStencil, NinePoint};

/// How a sub-block is solved.
#[derive(Debug, Clone)]
enum SubSolver {
    /// EVP marching with the inverse influence matrix `R = W⁻¹`.
    Evp {
        r_inv: DenseMatrix,
        /// `R` transposed into the lane layout (column-major, row count
        /// padded to `kp`) for the SIMD influence apply.
        r_inv_t: Vec<f64>,
        kp: usize,
        /// Precomputed chain coefficients for the restructured march.
        plan: MarchPlan,
    },
    /// Direct band-LU solve (land-touching tile, or an unstable or singular
    /// influence matrix).
    Band(BandLu),
}

/// An exact solver for one sub-domain `B̃ x = ψ` (Dirichlet-0 exterior).
#[derive(Debug, Clone)]
pub struct EvpSubBlock {
    pub nx: usize,
    pub ny: usize,
    stencil: LocalStencil,
    /// Ocean mask of the *original* coefficients; outputs are zeroed on land.
    mask: Vec<u8>,
    /// `f64` mask words (`all-ones`/`0.0`) for the branch-free copy-out.
    maskbits: Vec<f64>,
    solver: SubSolver,
    /// Pad indices of the guess line `e` and overshoot ring `f`, precomputed
    /// at setup so `solve` never allocates (it runs per tile per iteration).
    e_idx: Vec<usize>,
    f_idx: Vec<usize>,
}

/// Pad-index forms of [`e_points`] / [`f_points`] for an `nx × ny` tile.
fn line_indices(nx: usize, ny: usize) -> (Vec<usize>, Vec<usize>) {
    let stride = nx + 2;
    let to_idx = |pts: Vec<(usize, usize)>| {
        pts.into_iter()
            .map(|(i, j)| pad_idx(stride, i as isize, j as isize))
            .collect()
    };
    (to_idx(e_points(nx, ny)), to_idx(f_points(nx, ny)))
}

/// Reusable scratch for [`EvpSubBlock::solve`].
#[derive(Debug, Default, Clone)]
pub struct EvpScratch {
    xpad: Vec<f64>,
    fvals: Vec<f64>,
    corr: Vec<f64>,
    /// Per-row `g` buffer for the restructured marching sweep.
    g: Vec<f64>,
    /// Contiguous-tile staging for the band solve (in place: `ψ` in, `x` out).
    x_t: Vec<f64>,
}

impl EvpSubBlock {
    /// Build a sub-block solver for the *raw* extracted coefficients.
    ///
    /// The matrix solved is always the exact principal submatrix of the
    /// global operator over the tile (land rows as identity), so the block
    /// preconditioner is undistorted block-Jacobi. What varies is the
    /// algorithm: tiles whose interior corners are all alive (no land in or
    /// diagonally adjacent to the tile — the overwhelmingly common case away
    /// from coasts) are solved by EVP marching; land-touching tiles take the
    /// band LU (DESIGN.md S5). A setup-time probe additionally demotes
    /// tiles whose marching is too inaccurate (oversized blocks).
    pub fn new(raw: &LocalStencil, reduced: bool) -> Self {
        let stencil = if reduced { raw.reduced() } else { raw.clone() };
        let (nx, ny) = (stencil.nx, stencil.ny);
        let mut mask = vec![0u8; nx * ny];
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                mask[j as usize * nx + i as usize] = u8::from(raw.a0(i, j) > 0.0);
            }
        }

        // Marching requires a live corner coefficient at every interior
        // center (it divides by ANE(i,j)).
        let mut ane_max = 0.0f64;
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                ane_max = ane_max.max(stencil.ane(i, j).abs());
            }
        }
        let floor = 1e-12 * ane_max;
        let marchable = ane_max > 0.0
            && (0..ny as isize).all(|j| (0..nx as isize).all(|i| stencil.ane(i, j).abs() > floor));

        let solver = marchable
            .then(|| Self::try_marching_setup(&stencil, reduced))
            .flatten()
            .unwrap_or_else(|| {
                SubSolver::Band(
                    stencil
                        .band_lu()
                        .expect("sub-block principal submatrix must be positive definite"),
                )
            });

        let (e_idx, f_idx) = line_indices(nx, ny);
        let maskbits = pop_simd::mask_bits(&mask);
        EvpSubBlock {
            nx,
            ny,
            stencil,
            mask,
            maskbits,
            solver,
            e_idx,
            f_idx,
        }
    }

    /// March out the influence matrix, invert it, and verify solve accuracy
    /// on a probe right-hand side. `None` if anything is non-finite or the
    /// probe residual is poor (marching instability at this block size).
    fn try_marching_setup(stencil: &LocalStencil, reduced: bool) -> Option<SubSolver> {
        let (nx, ny) = (stencil.nx, stencil.ny);
        let k = nx + ny - 1;
        let e_list = e_points(nx, ny);
        let f_list = f_points(nx, ny);
        debug_assert_eq!(e_list.len(), k);
        debug_assert_eq!(f_list.len(), k);

        // Chain coefficients exist because `marchable` held (ANE ≠ 0).
        let plan = MarchPlan::new(stencil, reduced);
        let mode = pop_simd::mode();

        // Influence matrix: column c = response on f to a unit guess on e[c].
        let stride = nx + 2;
        let mut xpad = vec![0.0; stride * (ny + 2)];
        let mut g = Vec::new();
        let mut w = DenseMatrix::zeros(k);
        for (c, &(ei, ej)) in e_list.iter().enumerate() {
            xpad.fill(0.0);
            xpad[pad_idx(stride, ei as isize, ej as isize)] = 1.0;
            evp_simd::march(mode, stencil, &plan, &mut xpad, None, &mut g);
            for (r, &(fi, fj)) in f_list.iter().enumerate() {
                let v = xpad[pad_idx(stride, fi as isize, fj as isize)];
                if !v.is_finite() {
                    return None;
                }
                w.set(r, c, v);
            }
        }
        let r_inv = w.inverse().ok()?;
        if !r_inv_finite(&r_inv) {
            return None;
        }
        let kp = pop_simd::round_up_lanes(k);
        let r_inv_t = evp_simd::transpose_padded(&r_inv, kp);

        // Accuracy probe: solve for a pseudo-random ψ and check the residual.
        let (e_idx, f_idx) = line_indices(nx, ny);
        let mask = vec![1u8; nx * ny];
        let maskbits = pop_simd::mask_bits(&mask);
        let probe = EvpSubBlock {
            nx,
            ny,
            stencil: stencil.clone(),
            mask,
            maskbits,
            solver: SubSolver::Evp {
                r_inv,
                r_inv_t,
                kp,
                plan,
            },
            e_idx,
            f_idx,
        };
        let psi: Vec<f64> = (0..nx * ny)
            .map(|q| ((q.wrapping_mul(2654435761)) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let mut x = vec![0.0; nx * ny];
        probe.solve(&psi, &mut x, &mut EvpScratch::default());
        let mut worst = 0.0f64;
        for j in 0..ny as isize {
            for i in 0..nx as isize {
                let ax = stencil.apply_at(i, j, |ii, jj| {
                    if ii >= 0 && jj >= 0 && ii < nx as isize && jj < ny as isize {
                        x[jj as usize * nx + ii as usize]
                    } else {
                        0.0
                    }
                });
                let r = ax - psi[j as usize * nx + i as usize];
                if !r.is_finite() {
                    return None;
                }
                worst = worst.max(r.abs());
            }
        }
        // Preconditioner-grade accuracy is enough (ψ is O(1) here): the
        // paper's 12×12 stability limit corresponds to this threshold on our
        // worst-case nearly-pure-Laplacian tiles.
        if worst > 1e-4 {
            return None; // too unstable at this size; use the band LU
        }
        Some(probe.solver)
    }

    /// Did setup keep the EVP fast path (vs. the band-LU direct solve)?
    pub fn uses_marching(&self) -> bool {
        matches!(self.solver, SubSolver::Evp { .. })
    }

    /// Solve `B̃ x = ψ` (row-major `nx × ny` slices); land outputs zeroed.
    pub fn solve(&self, psi: &[f64], x: &mut [f64], scratch: &mut EvpScratch) {
        self.solve_mode(pop_simd::mode(), psi, x, scratch);
    }

    /// [`EvpSubBlock::solve`] with an explicit kernel dispatch choice
    /// (tests and benches; production callers use the global mode).
    pub fn solve_mode(&self, mode: SimdMode, psi: &[f64], x: &mut [f64], scratch: &mut EvpScratch) {
        let (nx, ny) = (self.nx, self.ny);
        assert_eq!(psi.len(), nx * ny);
        assert_eq!(x.len(), nx * ny);
        self.solve_strided_mode(mode, psi, nx, x, nx, scratch);
    }

    /// [`EvpSubBlock::solve`] reading `ψ` and writing `x` in place with
    /// arbitrary row strides — the tile is operated on directly inside its
    /// parent [`pop_comm::BlockVec`] storage, so the fused preconditioner
    /// sweep does no gather/scatter copies. Same arithmetic, same values.
    pub fn solve_strided(
        &self,
        psi: &[f64],
        psi_stride: usize,
        x: &mut [f64],
        x_stride: usize,
        scratch: &mut EvpScratch,
    ) {
        self.solve_strided_mode(pop_simd::mode(), psi, psi_stride, x, x_stride, scratch);
    }

    /// [`EvpSubBlock::solve_strided`] with an explicit dispatch choice.
    /// Every mode is bitwise-identical (DESIGN.md §9).
    pub fn solve_strided_mode(
        &self,
        mode: SimdMode,
        psi: &[f64],
        psi_stride: usize,
        x: &mut [f64],
        x_stride: usize,
        scratch: &mut EvpScratch,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        match &self.solver {
            SubSolver::Evp {
                r_inv,
                r_inv_t,
                kp,
                plan,
            } => {
                let stride = nx + 2;
                scratch.xpad.resize(stride * (ny + 2), 0.0);
                let xpad = &mut scratch.xpad;
                // Zero guess = zeroed e-line/ring; the interior needs no
                // reset (the sweep overwrites it before reading it).
                evp_simd::reset_march_pad(xpad, nx, ny);

                // First sweep with zero guess.
                evp_simd::march(
                    mode,
                    &self.stencil,
                    plan,
                    xpad,
                    Some((psi, psi_stride)),
                    &mut scratch.g,
                );

                // Mismatch on the Dirichlet ring (precomputed pad indices —
                // this path must not allocate in steady state).
                scratch.fvals.clear();
                scratch.fvals.extend(self.f_idx.iter().map(|&k| xpad[k]));

                // Corrected guess e = −R·F, then the definitive sweep.
                evp_simd::influence_apply(
                    mode,
                    r_inv,
                    r_inv_t,
                    *kp,
                    &scratch.fvals,
                    &mut scratch.corr,
                );
                evp_simd::reset_march_pad(xpad, nx, ny);
                for (c, &k) in self.e_idx.iter().enumerate() {
                    xpad[k] = -scratch.corr[c];
                }
                evp_simd::march(
                    mode,
                    &self.stencil,
                    plan,
                    xpad,
                    Some((psi, psi_stride)),
                    &mut scratch.g,
                );

                evp_simd::masked_copy_out(
                    mode,
                    nx,
                    ny,
                    xpad,
                    x,
                    x_stride,
                    &self.mask,
                    &self.maskbits,
                );
            }
            SubSolver::Band(lu) => {
                // The substitutions run over one contiguous tile: gather ψ,
                // solve in place, scatter with land zeroed.
                let xt = &mut scratch.x_t;
                xt.clear();
                for j in 0..ny {
                    xt.extend_from_slice(&psi[j * psi_stride..j * psi_stride + nx]);
                }
                lu.solve_in_place(xt);
                for j in 0..ny {
                    let row = j * nx..(j + 1) * nx;
                    let dst = &mut x[j * x_stride..j * x_stride + nx];
                    for ((d, &v), &m) in dst.iter_mut().zip(&xt[row.clone()]).zip(&self.mask[row]) {
                        *d = if m == 0 { 0.0 } else { v };
                    }
                }
            }
        }
    }

    /// The batched image of [`EvpSubBlock::solve_strided_mode`]: solve the
    /// tile for all `groups · LANES` right-hand sides at once, in place
    /// inside lane-major [`MultiBlockVec`] storage. `psi`/`x` start at the
    /// tile's first interior lane group of lane group 0; lane group `g`'s
    /// tile sits `g · psi_gstride` (resp. `x_gstride`) elements later, and
    /// each advances `psi_stride`/`x_stride` `f64` elements per tile row
    /// (block stride · `LANES`). Marching tiles take the fused lane kernels
    /// of [`evp_multi`] (every coefficient and influence-matrix entry
    /// loaded once for all lanes of all groups, one independent chain
    /// recurrence in flight per group); band-LU tiles run the lane-parallel
    /// substitution of [`evp_multi::band_solve_multi`] on a staged copy. Per
    /// lane the result is bitwise identical to the single-RHS solve.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn solve_strided_multi(
        &self,
        mode: SimdMode,
        psi: &[f64],
        psi_stride: usize,
        psi_gstride: usize,
        x: &mut [f64],
        x_stride: usize,
        x_gstride: usize,
        groups: usize,
        scratch: &mut MultiEvpScratch,
    ) {
        let (nx, ny) = (self.nx, self.ny);
        let sl = groups * LANES;
        match &self.solver {
            SubSolver::Evp { r_inv, plan, .. } => {
                scratch.xpad.resize((nx + 2) * (ny + 2) * sl, 0.0);
                let xpad = &mut scratch.xpad;
                evp_multi::reset_march_pad_multi(xpad, nx, ny, sl);

                // First sweep with zero guess, all lanes at once.
                evp_multi::march_multi(
                    mode,
                    &self.stencil,
                    plan,
                    xpad,
                    psi,
                    psi_stride,
                    psi_gstride,
                    &mut scratch.g,
                    groups,
                );

                // Mismatch on the Dirichlet ring, per lane (pure copies).
                scratch.fvals.clear();
                for &fk in &self.f_idx {
                    scratch
                        .fvals
                        .extend_from_slice(&xpad[fk * sl..(fk + 1) * sl]);
                }

                // Corrected guess e = −R·F, then the definitive sweep. The
                // e-line negation is the scalar unary `-` per lane (exact,
                // unlike `0.0 − x` which loses `−0.0`).
                evp_multi::influence_apply_multi(
                    mode,
                    r_inv,
                    &scratch.fvals,
                    &mut scratch.corr,
                    groups,
                );
                evp_multi::reset_march_pad_multi(xpad, nx, ny, sl);
                for (c, &ek) in self.e_idx.iter().enumerate() {
                    for v in 0..sl {
                        xpad[ek * sl + v] = -scratch.corr[c * sl + v];
                    }
                }
                evp_multi::march_multi(
                    mode,
                    &self.stencil,
                    plan,
                    xpad,
                    psi,
                    psi_stride,
                    psi_gstride,
                    &mut scratch.g,
                    groups,
                );

                evp_multi::masked_copy_out_multi(
                    mode,
                    nx,
                    ny,
                    xpad,
                    x,
                    x_stride,
                    x_gstride,
                    &self.maskbits,
                    groups,
                );
            }
            SubSolver::Band(lu) => {
                // Every lane through one lane-parallel substitution: stage
                // all tiles superlane-major, run the shared factorization's
                // recurrences in place on the whole batch at once (the
                // scalar substitution's serial chains are the single worst
                // per-lane cost in a batched apply), then zero land and
                // scatter. Per lane the staged values, solve sequence, and
                // mask zeroing are exactly the one-lane-at-a-time path's.
                let n = nx * ny;
                scratch.x_t.resize(n * sl, 0.0);
                for g in 0..groups {
                    for j in 0..ny {
                        for i in 0..nx {
                            let p = (j * nx + i) * sl + g * LANES;
                            let s = g * psi_gstride + j * psi_stride + i * LANES;
                            scratch.x_t[p..p + LANES].copy_from_slice(&psi[s..s + LANES]);
                        }
                    }
                }
                evp_multi::band_solve_multi(mode, lu, &mut scratch.x_t, groups);
                for g in 0..groups {
                    for j in 0..ny {
                        for i in 0..nx {
                            let p = (j * nx + i) * sl + g * LANES;
                            let d = g * x_gstride + j * x_stride + i * LANES;
                            if self.mask[j * nx + i] == 0 {
                                x[d..d + LANES].fill(0.0);
                            } else {
                                x[d..d + LANES].copy_from_slice(&scratch.x_t[p..p + LANES]);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Padded-array linear index for logical `(i, j)`, `-1 ≤ i ≤ nx`,
/// `-1 ≤ j ≤ ny`, with row stride `stride = nx + 2`.
#[inline]
fn pad_idx(stride: usize, i: isize, j: isize) -> usize {
    ((j + 1) as usize) * stride + (i + 1) as usize
}

/// The initial-guess line `e`: south row then west column (paper Fig. 5).
fn e_points(nx: usize, ny: usize) -> Vec<(usize, usize)> {
    let mut e = Vec::with_capacity(nx + ny - 1);
    e.extend((0..nx).map(|i| (i, 0)));
    e.extend((1..ny).map(|j| (0, j)));
    e
}

/// The overshoot line `f` on the Dirichlet ring: north ring then east ring.
fn f_points(nx: usize, ny: usize) -> Vec<(usize, usize)> {
    let mut f = Vec::with_capacity(nx + ny - 1);
    f.extend((1..=nx).map(|i| (i, ny)));
    f.extend((1..ny).map(|j| (nx, j)));
    f
}

fn r_inv_finite(m: &DenseMatrix) -> bool {
    (0..m.n()).all(|r| (0..m.n()).all(|c| m.get(r, c).is_finite()))
}

/// A count of tiles and of the grid points they cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCount {
    pub tiles: usize,
    pub points: usize,
}

/// How one [`BlockEvp`] apply splits over its three tile paths: zero-filled
/// all-land tiles, EVP marching tiles, and band-LU tiles (land-touching, or
/// demoted by the set-up accuracy probe).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCensus {
    pub all_land: TileCount,
    pub marching: TileCount,
    pub banded: TileCount,
}

/// The distributed block-EVP preconditioner: every process block tiled into
/// EVP sub-blocks, applied block-Jacobi style with no communication.
pub struct BlockEvp {
    /// Per parent block: its tiles and their solvers (`None` = all-land tile).
    subs: Vec<Vec<(Tile, Option<EvpSubBlock>)>>,
    tile_size: usize,
    reduced: bool,
}

impl BlockEvp {
    /// Defaults: tile size 8 and the reduced stencil (§4.3; `T'_p = 14 n²θ`).
    ///
    /// The paper quotes marching stability "up to 12×12" for POP's operator;
    /// on our worst-case (nearly pure-Laplacian) tiles the growth is faster,
    /// so the default stays at 8 and the setup-time accuracy probe demotes
    /// any tile that still marches poorly to the band-LU direct solve.
    pub fn with_defaults(op: &NinePoint) -> Self {
        Self::new(op, 8, true)
    }

    /// Build with explicit tile size and reduction choice.
    pub fn new(op: &NinePoint, tile_size: usize, reduced: bool) -> Self {
        assert!(tile_size >= 1);
        let mut subs = Vec::with_capacity(op.layout.n_blocks());
        for (b, info) in op.layout.decomp.blocks.iter().enumerate() {
            let tiles = tile_block(info.nx, info.ny, tile_size);
            let mut per_block = Vec::with_capacity(tiles.len());
            for t in tiles {
                let mask = &op.layout.masks[b];
                let any_ocean = (t.j0..t.j0 + t.ny)
                    .any(|j| (t.i0..t.i0 + t.nx).any(|i| mask[j * info.nx + i] != 0));
                if !any_ocean {
                    per_block.push((t, None));
                    continue;
                }
                let raw = op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
                per_block.push((t, Some(EvpSubBlock::new(&raw, reduced))));
            }
            subs.push(per_block);
        }
        BlockEvp {
            subs,
            tile_size,
            reduced,
        }
    }

    /// Which path every tile of one apply takes, in tiles and in the grid
    /// points they cover.
    pub fn census(&self) -> TileCensus {
        let mut census = TileCensus::default();
        for (t, s) in self.subs.iter().flatten() {
            let class = match s {
                None => &mut census.all_land,
                Some(s) if s.uses_marching() => &mut census.marching,
                Some(_) => &mut census.banded,
            };
            class.tiles += 1;
            class.points += t.nx * t.ny;
        }
        census
    }

    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    pub fn is_reduced(&self) -> bool {
        self.reduced
    }
}

/// Per-thread reusable tile buffers for [`BlockEvp::apply_block`] /
/// [`BlockLu`](super::BlockLu): the staged contiguous tile and the EVP
/// marching pads. Thread-local so steady-state preconditioner applications
/// allocate nothing, even when blocks run on pool workers.
#[derive(Default)]
pub(super) struct TileScratch {
    /// [`BlockLu`](super::BlockLu)'s gathered right-hand side, solved in place.
    pub tile: Vec<f64>,
    pub evp: EvpScratch,
    /// Lane-major pads/buffers for the batched tile solve.
    pub multi: MultiEvpScratch,
}

thread_local! {
    pub(super) static TILE_SCRATCH: std::cell::RefCell<TileScratch> =
        std::cell::RefCell::new(TileScratch::default());
}

impl Preconditioner for BlockEvp {
    fn apply_block(&self, b: usize, r: &BlockVec, z: &mut BlockVec) {
        TILE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let (stride, h) = (r.stride(), r.halo);
            debug_assert_eq!(z.stride(), stride);
            debug_assert_eq!(z.halo, h);
            let rraw = r.raw();
            let zraw = z.raw_mut();
            for (t, sub) in &self.subs[b] {
                match sub {
                    None => {
                        for j in t.j0..t.j0 + t.ny {
                            let off = (j + h) * stride + h + t.i0;
                            zraw[off..off + t.nx].fill(0.0);
                        }
                    }
                    Some(s) => {
                        // Solve the tile in place inside the block arrays —
                        // no gather/scatter copies on the fused path.
                        let off = (t.j0 + h) * stride + h + t.i0;
                        s.solve_strided(
                            &rraw[off..],
                            stride,
                            &mut zraw[off..],
                            stride,
                            &mut scratch.evp,
                        );
                    }
                }
            }
        });
    }

    /// Fused batched apply: every tile is solved for all `groups() × LANES`
    /// right-hand sides in one interleaved pass, so its influence matrix
    /// (or LU factors) and stencil coefficients are loaded once per batch
    /// instead of once per RHS — the amortization the batched solve engine
    /// is built on (DESIGN.md §12). Per lane, bitwise identical to
    /// [`BlockEvp::apply_block`].
    fn apply_block_multi(&self, b: usize, r: &MultiBlockVec, z: &mut MultiBlockVec) {
        let mode = pop_simd::mode();
        TILE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let (stride, h, rows) = (r.stride(), r.halo, r.rows());
            debug_assert_eq!(z.stride(), stride);
            debug_assert_eq!(z.halo, h);
            debug_assert_eq!(z.groups(), r.groups());
            let groups = r.groups();
            let rraw = r.raw();
            let zraw = z.raw_mut();
            let rs = stride * LANES;
            // Lane group `g`'s tile image sits `g · gs` elements past
            // group 0's in the lane-major block storage.
            let gs = rows * stride * LANES;
            for (t, sub) in &self.subs[b] {
                match sub {
                    None => {
                        for g in 0..groups {
                            let off = ((g * rows + t.j0 + h) * stride + h + t.i0) * LANES;
                            for j in 0..t.ny {
                                zraw[off + j * rs..off + j * rs + t.nx * LANES].fill(0.0);
                            }
                        }
                    }
                    Some(s) => {
                        // Solve the tile for every lane group at once, in
                        // place inside the lane-major block arrays — no
                        // gather/scatter copies.
                        let off = ((t.j0 + h) * stride + h + t.i0) * LANES;
                        s.solve_strided_multi(
                            mode,
                            &rraw[off..],
                            rs,
                            gs,
                            &mut zraw[off..],
                            rs,
                            gs,
                            groups,
                            &mut scratch.multi,
                        );
                    }
                }
            }
        });
    }

    fn name(&self) -> &'static str {
        if self.reduced {
            "evp"
        } else {
            "evp-full"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_comm::{CommWorld, DistLayout, DistVec};
    use pop_grid::Grid;

    fn dense_reference_solve(st: &LocalStencil, psi: &[f64]) -> Vec<f64> {
        st.to_dense().lu().expect("invertible").solve(psi)
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| ((k * 2654435761) % 1000) as f64 / 500.0 - 1.0)
            .collect()
    }

    #[test]
    fn evp_matches_dense_lu_on_clean_block() {
        for (nx, ny) in [(4, 4), (8, 8), (12, 12), (7, 11), (1, 5), (12, 3)] {
            let raw = LocalStencil::reference(nx, ny, 120.0, 5.0);
            let sub = EvpSubBlock::new(&raw, false);
            if nx.max(ny) <= 10 {
                assert!(sub.uses_marching(), "({nx},{ny}) should use marching");
            }
            let psi = rhs(nx * ny);
            let mut x = vec![0.0; nx * ny];
            let mut scratch = EvpScratch::default();
            sub.solve(&psi, &mut x, &mut scratch);
            // Reference: dense LU of the very same (raw) matrix. Tolerance
            // grows with size because marching round-off does (§4.3).
            let want = dense_reference_solve(&raw, &psi);
            let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let tol = if nx.max(ny) <= 8 { 1e-7 } else { 1e-4 };
            for (a, b) in x.iter().zip(&want) {
                assert!(
                    (a - b).abs() < tol * scale,
                    "({nx},{ny}): {a} vs {b} (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn evp_roundoff_small_at_default_block_size() {
        // The paper quotes O(1e-8) round-off "up to 12×12" for POP's
        // coefficients; our worst-case nearly-pure-Laplacian template reaches
        // that quality at the default 8×8 tile.
        let n = 8isize;
        let raw = LocalStencil::reference(8, 8, 100.0, 2.0);
        let sub = EvpSubBlock::new(&raw, false);
        assert!(sub.uses_marching(), "8x8 must stay on the marching path");
        let psi = rhs(64);
        let mut x = vec![0.0; 64];
        sub.solve(&psi, &mut x, &mut EvpScratch::default());
        // Residual check: ‖B̃x − ψ‖∞ / ‖ψ‖∞.
        let mut max_rel = 0.0f64;
        for j in 0..n {
            for i in 0..n {
                let ax = raw.apply_at(i, j, |ii, jj| {
                    if ii >= 0 && jj >= 0 && ii < n && jj < n {
                        x[(jj * n + ii) as usize]
                    } else {
                        0.0
                    }
                });
                max_rel = max_rel.max((ax - psi[(j * n + i) as usize]).abs());
            }
        }
        let scale = psi.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(
            max_rel / scale < 1e-6,
            "relative residual {}",
            max_rel / scale
        );
    }

    #[test]
    fn marching_instability_grows_with_block_size() {
        // The reason EVP must stay small: influence entries grow
        // geometrically. We measure the largest |W| entry growth indirectly
        // through solve residuals at increasing sizes.
        let resid = |n: usize| -> f64 {
            let raw = LocalStencil::reference(n, n, 100.0, 1.0);
            let sub = EvpSubBlock::new(&raw, false);
            if !sub.uses_marching() {
                return f64::INFINITY; // fallback already triggered
            }
            let psi = rhs(n * n);
            let mut x = vec![0.0; n * n];
            sub.solve(&psi, &mut x, &mut EvpScratch::default());
            let mut worst = 0.0f64;
            for j in 0..n as isize {
                for i in 0..n as isize {
                    let ax = raw.apply_at(i, j, |ii, jj| {
                        if ii >= 0 && jj >= 0 && (ii as usize) < n && (jj as usize) < n {
                            x[jj as usize * n + ii as usize]
                        } else {
                            0.0
                        }
                    });
                    worst = worst.max((ax - psi[j as usize * n + i as usize]).abs());
                }
            }
            worst
        };
        let small = resid(6);
        let mid = resid(10);
        assert!(small.is_finite() && mid.is_finite(), "6 and 10 must march");
        assert!(
            mid > 10.0 * small,
            "expected instability growth: resid(6)={small:e}, resid(10)={mid:e}"
        );
        // Past the stability limit the setup probe must demote the tile to
        // the band-LU direct solve.
        let big = LocalStencil::reference(28, 28, 100.0, 1.0);
        let sub = EvpSubBlock::new(&big, false);
        assert!(!sub.uses_marching(), "28x28 must fall back to the band LU");
    }

    #[test]
    fn evp_handles_land_holes() {
        let mut raw = LocalStencil::reference(8, 8, 90.0, 3.0);
        // Land points and their dead corners.
        for (i, j) in [(3, 3), (3, 4), (6, 1)] {
            raw.set(i, j, 0.0, 0.0, 0.0, 0.0);
        }
        for (i, j) in [(2, 2), (2, 3), (2, 4), (3, 2), (5, 0), (5, 1), (6, 0)] {
            raw.set_ane(i, j, 0.0);
        }
        let sub = EvpSubBlock::new(&raw, false);
        let psi = rhs(64);
        let mut x = vec![0.0; 64];
        sub.solve(&psi, &mut x, &mut EvpScratch::default());
        assert_eq!(x[3 * 8 + 3], 0.0, "land output zeroed");
        assert!(x.iter().all(|v| v.is_finite()));
        // Land-containing tiles take the band-LU path over the raw
        // principal submatrix (identity land rows), then zero land.
        assert!(!sub.uses_marching(), "land tile must use the band LU");
        let mut want = dense_reference_solve(&raw, &psi);
        for (k, w) in want.iter_mut().enumerate() {
            if raw.a0((k % 8) as isize, (k / 8) as isize) <= 0.0 {
                *w = 0.0;
            }
        }
        for (a, b) in x.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn reduced_mode_solves_reduced_matrix() {
        let raw = LocalStencil::reference(9, 9, 70.0, 2.0);
        let sub = EvpSubBlock::new(&raw, true);
        let psi = rhs(81);
        let mut x = vec![0.0; 81];
        sub.solve(&psi, &mut x, &mut EvpScratch::default());
        let want = dense_reference_solve(&raw.reduced(), &psi);
        let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (a, b) in x.iter().zip(&want) {
            assert!((a - b).abs() < 1e-5 * scale);
        }
    }

    #[test]
    fn block_evp_apply_matches_per_tile_dense() {
        let g = Grid::gx1_scaled(8, 48, 40);
        let layout = DistLayout::build(&g, 16, 10);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&g, &layout, &world, 1800.0);
        let pre = BlockEvp::new(&op, 8, false);
        // On this small coastal-heavy grid most tiles touch land and take
        // the band LU; the result is identical either way (checked below).
        // The census accounts for every tile and every point exactly once.
        let c = pre.census();
        assert!(c.banded.tiles > c.marching.tiles, "{c:?}");
        assert_eq!(
            c.all_land.points + c.marching.points + c.banded.points,
            g.nx * g.ny
        );
        let tiles_per_block = tile_block(16, 10, 8).len();
        assert_eq!(
            c.all_land.tiles + c.marching.tiles + c.banded.tiles,
            layout.n_blocks() * tiles_per_block
        );

        let mut r = DistVec::zeros(&layout);
        r.fill_with(|i, j| ((i * 3 + j * 5) as f64 * 0.1).sin());
        let mut z = DistVec::zeros(&layout);
        pre.apply(&world, &r, &mut z);

        // Independently: per tile dense solve of the raw principal submatrix.
        for (b, info) in layout.decomp.blocks.iter().enumerate() {
            for t in tile_block(info.nx, info.ny, 8) {
                let raw = op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
                let mask: Vec<u8> = (0..t.ny as isize)
                    .flat_map(|j| (0..t.nx as isize).map(move |i| (i, j)))
                    .map(|(i, j)| u8::from(raw.a0(i, j) > 0.0))
                    .collect();
                if mask.iter().all(|&m| m == 0) {
                    continue;
                }
                let mut psi = Vec::new();
                for j in t.j0..t.j0 + t.ny {
                    let row = r.blocks[b].interior_row(j);
                    psi.extend_from_slice(&row[t.i0..t.i0 + t.nx]);
                }
                let mut want = raw.to_dense().lu().expect("ok").solve(&psi);
                for (w, m) in want.iter_mut().zip(&mask) {
                    if *m == 0 {
                        *w = 0.0;
                    }
                }
                let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
                for j in 0..t.ny {
                    for i in 0..t.nx {
                        let got = z.blocks[b].get(t.i0 + i, t.j0 + j);
                        let expect = want[j * t.nx + i];
                        assert!(
                            (got - expect).abs() < 1e-5 * scale,
                            "block {b} tile {t:?} ({i},{j}): {got} vs {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_evp_is_symmetric_positive_as_an_operator() {
        // y'M⁻¹x == x'M⁻¹y and x'M⁻¹x > 0: the property CG theory needs.
        let g = Grid::gx1_scaled(12, 40, 32);
        let layout = DistLayout::build(&g, 10, 8);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&g, &layout, &world, 1200.0);
        let pre = BlockEvp::with_defaults(&op);

        let mut x = DistVec::zeros(&layout);
        let mut y = DistVec::zeros(&layout);
        x.fill_with(|i, j| ((i * 7 + j) as f64 * 0.3).cos());
        y.fill_with(|i, j| ((i + j * 11) as f64 * 0.17).sin());
        let mut mx = DistVec::zeros(&layout);
        let mut my = DistVec::zeros(&layout);
        pre.apply(&world, &x, &mut mx);
        pre.apply(&world, &y, &mut my);
        let ymx = world.dot(&y, &mx);
        let xmy = world.dot(&x, &my);
        assert!(
            (ymx - xmy).abs() < 1e-6 * ymx.abs().max(1.0),
            "asymmetric: {ymx} vs {xmy}"
        );
        let xmx = world.dot(&x, &mx);
        assert!(xmx > 0.0);
    }

    #[test]
    fn open_ocean_tiles_use_marching() {
        // Away from coasts the fast marching path must dominate: interior
        // tiles of an open basin have no dead corners.
        let g = Grid::idealized_basin(42, 42, 2500.0, 5.0e4);
        let layout = DistLayout::build(&g, 42, 42);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&g, &layout, &world, 3000.0);
        let pre = BlockEvp::new(&op, 8, false);
        let c = pre.census();
        assert!(
            10 * c.marching.tiles > 3 * (c.marching.tiles + c.banded.tiles),
            "interior tiles should march: {c:?}"
        );
    }
}
