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
//! LU of the same matrix (DESIGN.md S5), factored in colour order (red
//! points, then black) for the reduced system, whose two colours never
//! couple, and in natural order for the full one. Every tile solve — a
//! pack of four sibling tiles, a tile on its own, a pack or a tile under a
//! batch of right-hand sides — runs on the lane kernels of [`evp_multi`]
//! (DESIGN.md §9); [`EvpSubBlock::solve_reference`] is the scalar sequence
//! they are pinned against.
//!
//! Packs form across the blocks of each sweep group ([`pop_comm::group`]:
//! up to four consecutive same-shape blocks), so the fused sweeps, which
//! hand the preconditioner a whole group
//! ([`Preconditioner::apply_group`]), fill the lanes with tiles of up to
//! four blocks even where a block holds one tile. A lane whose block is not
//! handed in — [`Preconditioner::apply_block`], or a rank that owns part of
//! a group — runs as an idle lane.
//!
//! The default drops the N/S/E/W couplings (`reduced = true`), halving the
//! marching cost — the paper's §4.3 optimization, valid because those
//! couplings are an order of magnitude smaller than the rest.

use super::evp_multi::{
    self, Batched, EvpScratch, LaneOut, Layout, MarchPlan, Member, Packed, PerTile, Shared,
    TileCoefs,
};
use super::tiling::{tile_block, Tile};
use super::{assert_same_shape, assert_same_shape_multi, Preconditioner};
use pop_comm::{BlockVec, MultiBlockVec, SweepGroups};
use pop_simd::{SimdMode, LANES};
use pop_stencil::dense::BandLu;
use pop_stencil::{DenseMatrix, LocalStencil, NinePoint};

/// How a sub-block is solved.
#[derive(Debug, Clone)]
enum SubSolver {
    /// EVP marching with the inverse influence matrix `R = W⁻¹`. A marching
    /// tile is all ocean, so it carries no mask.
    Evp {
        /// `R`, row-major.
        r_inv: Vec<f64>,
        /// Every coefficient the restructured march reads.
        plan: MarchPlan,
    },
    /// Direct band-LU solve (land-touching tile, or an unstable or singular
    /// influence matrix).
    Band {
        /// The reduced system is factored in colour order, the full one in
        /// natural order ([`Layout::band`]).
        reduced: bool,
        lu: BandLu,
        /// Ocean mask of the *original* coefficients as `f64` mask words
        /// (`all-ones`/`0.0`), row-major: outputs are zeroed on land,
        /// branch-free.
        maskbits: Vec<f64>,
    },
}

/// An exact solver for one sub-domain `B̃ x = ψ` (Dirichlet-0 exterior).
#[derive(Debug, Clone)]
pub struct EvpSubBlock {
    pub nx: usize,
    pub ny: usize,
    solver: SubSolver,
}

/// Branch-free masked select, the scalar image of `LaneF64::and_bits`:
/// exactly `if ocean { v } else { 0.0 }` on all-ones / `+0.0` mask words.
#[inline(always)]
fn and_select(v: f64, maskword: f64) -> f64 {
    f64::from_bits(v.to_bits() & maskword.to_bits())
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
        let cells = || (0..ny as isize).flat_map(|j| (0..nx as isize).map(move |i| (i, j)));
        let mask: Vec<u8> = cells().map(|(i, j)| u8::from(raw.a0(i, j) > 0.0)).collect();

        // Marching requires a live corner coefficient at every interior
        // center (it divides by ANE(i,j)) — which, on an assembled operator,
        // implies that every point of the tile is ocean; that is required
        // here too, so a marching tile never needs a land mask.
        let ane_max = cells().fold(0.0f64, |m, (i, j)| m.max(stencil.ane(i, j).abs()));
        let floor = 1e-12 * ane_max;
        let marchable = ane_max > 0.0
            && cells().all(|(i, j)| stencil.ane(i, j).abs() > floor)
            && mask.iter().all(|&m| m != 0);

        let solver = marchable
            .then(|| Self::try_marching_setup(&stencil, reduced))
            .flatten()
            .unwrap_or_else(|| Self::band_setup(&stencil, &mask, reduced));
        EvpSubBlock { nx, ny, solver }
    }

    /// Factor the tile's matrix for the band-LU solve, in the order its
    /// solve stages the tile ([`Layout::band`]): the full system in natural
    /// order at half-width `nx + 1`; the reduced one as `P·B̃·Pᵀ` in colour
    /// order at [`evp_multi::colour_half_width`], two decoupled colours.
    /// The band is assembled in that order straight from the coefficients
    /// ([`LocalStencil::band_lu_in`]). Every cross-colour entry of the
    /// natural-order factor is an exact zero, and the same-colour entries
    /// are this factor's, bit for bit.
    fn band_setup(stencil: &LocalStencil, mask: &[u8], reduced: bool) -> SubSolver {
        let dims = (stencil.nx, stencil.ny);
        let layout = Layout::band(reduced, dims.0);
        let w = if reduced {
            evp_multi::colour_half_width(dims)
        } else {
            dims.0 + 1
        };
        let lu = stencil.band_lu_in(w, |i, j| layout.point(dims, i, j));
        SubSolver::Band {
            reduced,
            lu: lu.expect("sub-block principal submatrix must be positive definite"),
            maskbits: pop_simd::mask_bits(mask),
        }
    }

    /// March out the influence matrix, invert it, and verify solve accuracy
    /// on a probe right-hand side. `None` if anything is non-finite or the
    /// probe residual is poor (marching instability at this block size).
    fn try_marching_setup(stencil: &LocalStencil, reduced: bool) -> Option<SubSolver> {
        let (nx, ny) = (stencil.nx, stencil.ny);
        let k = nx + ny - 1;

        // Chain coefficients exist because `marchable` held (ANE ≠ 0).
        let plan = MarchPlan::new(stencil, reduced);
        let mut scratch = EvpScratch::default();
        let w = evp_multi::influence_matrix(pop_simd::mode(), &plan, &mut scratch);
        let finite = |m: &DenseMatrix| (0..k * k).all(|q| m.get(q / k, q % k).is_finite());
        if !finite(&w) {
            return None;
        }
        let inv = w.inverse().ok().filter(finite)?;
        let r_inv: Vec<f64> = (0..k * k).map(|q| inv.get(q / k, q % k)).collect();

        // Accuracy probe: solve for a pseudo-random ψ and check the residual.
        let probe = EvpSubBlock {
            nx,
            ny,
            solver: SubSolver::Evp { r_inv, plan },
        };
        let psi: Vec<f64> = (0..nx * ny)
            .map(|q| ((q.wrapping_mul(2654435761)) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let mut x = vec![0.0; nx * ny];
        probe.solve(&psi, &mut x, &mut scratch);
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
    /// (tests and benches; production callers use the global mode). Both
    /// lane types are bitwise-identical (DESIGN.md §9).
    pub fn solve_mode(&self, mode: SimdMode, psi: &[f64], x: &mut [f64], scratch: &mut EvpScratch) {
        assert_eq!(psi.len(), self.nx * self.ny);
        assert_eq!(x.len(), self.nx * self.ny);
        self.solve_at(mode, (psi, x), 0, self.nx, scratch);
    }

    /// Solve the tile whose first point sits at `off` in the row-strided
    /// storage `(r, z)`, as a pack of one: the tile in lane 0, its own
    /// arrays splat, the idle lanes repeating it and never stored.
    fn solve_at(
        &self,
        mode: SimdMode,
        (r, z): (&[f64], &mut [f64]),
        off: usize,
        stride: usize,
        scratch: &mut EvpScratch,
    ) {
        let z = std::ptr::from_mut(&mut z[off..]);
        let mut zl = [None; LANES];
        zl[0] = Some(z);
        // SAFETY: one stored lane, through the exclusive borrow of `z`.
        let io = unsafe { Packed::new([&r[off..]; LANES], zl, stride) };
        let coefs = self.coefs().map(Shared);
        evp_multi::solve_tile(mode, (self.nx, self.ny), coefs, io, scratch);
    }

    /// Test oracle: the per-point scalar operation sequence every lane of
    /// the `evp_multi` kernels is pinned against, bit for bit — plain
    /// scalar g-pass, chain, ascending influence fold from `+0.0`, band
    /// substitution and mask select; no dispatch, free to allocate.
    pub fn solve_reference(&self, psi: &[f64], x: &mut [f64]) {
        let (nx, ny) = (self.nx, self.ny);
        assert_eq!(psi.len(), nx * ny);
        assert_eq!(x.len(), nx * ny);
        match &self.solver {
            SubSolver::Evp { r_inv, plan } => {
                let xs = nx + 2;
                // First sweep from the zero guess; its overshoot on the
                // Dirichlet ring.
                let mut xpad = vec![0.0; xs * (ny + 2)];
                march_reference(plan, &mut xpad, psi);
                let f: Vec<f64> = evp_multi::f_line(nx, ny).map(|k| xpad[k]).collect();
                // Corrected guess e = −R·f, then the definitive sweep.
                xpad.fill(0.0);
                for (ek, row) in evp_multi::e_line(nx, ny).zip(r_inv.chunks_exact(f.len())) {
                    xpad[ek] = -row.iter().zip(&f).fold(0.0, |acc, (r, fc)| acc + r * fc);
                }
                march_reference(plan, &mut xpad, psi);
                for (j, row) in x.chunks_exact_mut(nx).enumerate() {
                    row.copy_from_slice(&xpad[(j + 1) * xs + 1..][..nx]);
                }
            }
            SubSolver::Band {
                reduced,
                lu,
                maskbits,
            } => {
                // Into the factor's order, solved, and back out masked.
                let layout = Layout::band(*reduced, nx);
                let row = |p: usize| layout.point((nx, ny), p % nx, p / nx);
                let mut y = vec![0.0; nx * ny];
                for (p, v) in psi.iter().enumerate() {
                    y[row(p)] = *v;
                }
                lu.solve_in_place(&mut y);
                for (p, (v, &m)) in x.iter_mut().zip(maskbits).enumerate() {
                    *v = and_select(y[row(p)], m);
                }
            }
        }
    }

    /// The batched image of [`EvpSubBlock::solve_mode`]: solve the tile for
    /// all `groups · LANES` right-hand sides `io` addresses at once (every
    /// coefficient and influence-matrix entry loaded once for all lanes of
    /// all groups, one independent chain recurrence or band substitution in
    /// flight per group). Per lane the result is bitwise identical to the
    /// single-RHS solve.
    pub(super) fn solve_batched(&self, mode: SimdMode, io: Batched, scratch: &mut EvpScratch) {
        let coefs = self.coefs().map(Shared);
        evp_multi::solve_tile(mode, (self.nx, self.ny), coefs, io, scratch);
    }

    /// The tile's set-up arrays as the kernels of [`evp_multi`] take them.
    fn coefs(&self) -> TileCoefs<&[f64]> {
        match &self.solver {
            SubSolver::Evp { r_inv, plan, .. } => TileCoefs::March {
                reduced: plan.reduced,
                planes: &plan.c,
                r_inv,
            },
            SubSolver::Band {
                reduced,
                lu,
                maskbits,
            } => {
                let (_, w, band) = lu.raw_parts();
                TileCoefs::Band {
                    reduced: *reduced,
                    w,
                    band,
                    mask: maskbits,
                }
            }
        }
    }
}

/// One scalar southwest→northeast marching sweep (paper Eq. 4) over the
/// `(nx+2) × (ny+2)` pad, in the restructured g/chain form of [`evp_multi`]:
/// the guess line `e` and the south/west ring are preset, everything with
/// `i ≥ 1 ∧ j ≥ 1` is produced. The chain step is fused on CPUs with FMA
/// (the plan's chain planes are signed for it).
fn march_reference(plan: &MarchPlan, xpad: &mut [f64], psi: &[f64]) {
    use evp_multi::{A0, AE, AE_W, ANE_S, ANE_SW, AN_S, D_INV, H1, H2};
    let (nx, n, xs) = (plan.nx, plan.nx * plan.ny, plan.nx + 2);
    assert_eq!(psi.len(), n);
    let fma = pop_simd::detected_fma();
    let c = |f: usize, p: usize| plan.c[f * n + p];
    for (p, rhs) in psi.iter().enumerate() {
        // Pad index of `x(i, j)`, the center of the equation that yields
        // `x(i+1, j+1)`.
        let xk = (p / nx + 1) * xs + p % nx + 1;
        let at = |k: usize| xpad[k];
        let mut q =
            c(A0, p) * at(xk) + c(ANE_S, p) * at(xk - xs + 1) + c(ANE_SW, p) * at(xk - xs - 1);
        if !plan.reduced {
            q += c(AN_S, p) * at(xk - xs) + c(AE, p) * at(xk + 1) + c(AE_W, p) * at(xk - 1);
        }
        let g = (rhs - q) * c(D_INV, p);
        let (ym1, y0) = (at(xk + xs - 1), at(xk + xs));
        xpad[xk + xs + 1] = match (plan.reduced, fma) {
            (true, true) => c(H2, p).mul_add(ym1, g),
            (true, false) => g - c(H2, p) * ym1,
            (false, true) => c(H2, p).mul_add(ym1, c(H1, p).mul_add(y0, g)),
            (false, false) => (g - c(H1, p) * y0) - c(H2, p) * ym1,
        };
    }
}

/// Up to [`LANES`] tiles of one sweep group that share a shape and a solver
/// class, solved together with one tile per lane (DESIGN.md §9). The
/// pack's coefficients live lane-interleaved in its group's slab; the
/// members' own [`EvpSubBlock`]s are gone.
#[derive(Debug)]
struct Pack {
    nx: usize,
    ny: usize,
    /// Each lane's tile: the group member (block `first + m`) it came from
    /// and its block-interior origin. Lanes `live..` repeat lane 0 (its data
    /// too) and are never written out.
    origin: [(usize, usize, usize); LANES],
    live: usize,
    /// The solver class, carrying each array's length in the slab.
    class: TileCoefs<usize>,
}

impl Pack {
    /// Pack `members` (2 to [`LANES`] `(member, tile, solver)` of one shape
    /// and class), appending their arrays to `slab` as
    /// `value[idx·LANES + lane]`, one array after another in
    /// [`TileCoefs::arrays`] order.
    fn new(members: &[(usize, Tile, EvpSubBlock)], slab: &mut Vec<f64>) -> Pack {
        let live = members.len();
        assert!((2..=LANES).contains(&live));
        let lane = |l: usize| &members[if l < live { l } else { 0 }];
        let first = &members[0].2;
        let class = first.coefs().map(|a| a.len() * LANES);
        for l in 0..LANES {
            let (_, t, s) = lane(l);
            assert_eq!(
                (t.nx, t.ny, s.nx, s.ny),
                (first.nx, first.ny, first.nx, first.ny)
            );
            assert!(
                s.coefs().map(|a| a.len() * LANES) == class,
                "pack members must share one solver class"
            );
        }
        let arrays: [_; LANES] = std::array::from_fn(|l| lane(l).2.coefs().arrays());
        // The marching planes become one record per tile point; every other
        // array keeps its order (a one-field record per entry).
        let fields = match class {
            TileCoefs::March { reduced, .. } => [evp_multi::planes(reduced), 1],
            TileCoefs::Band { .. } => [1, 1],
        };
        slab.reserve(class.arrays().iter().sum());
        for (a, nf) in fields.into_iter().enumerate() {
            let points = arrays[0][a].len() / nf;
            for p in 0..points {
                for f in 0..nf {
                    let src = f * points + p;
                    slab.extend(arrays.iter().map(|of_lane| of_lane[a][src]));
                }
            }
        }
        Pack {
            nx: first.nx,
            ny: first.ny,
            origin: std::array::from_fn(|l| {
                let (m, t, _) = lane(l);
                (*m, t.i0, t.j0)
            }),
            live,
            class,
        }
    }

    /// This pack's arrays, taken off the front of `slab`.
    fn take<'a>(&self, slab: &mut &'a [f64]) -> TileCoefs<&'a [f64]> {
        self.class.map(|len| {
            let (head, rest) = slab.split_at(len);
            *slab = rest;
            head
        })
    }

    /// Each lane's member and the offset of its tile origin in block
    /// storage of the given row stride and halo — computed per apply, so
    /// any same-shape [`BlockVec`] works, whatever its padding.
    fn offsets(&self, stride: usize, halo: usize) -> [(usize, usize); LANES] {
        self.origin
            .map(|(m, i0, j0)| (m, (j0 + halo) * stride + halo + i0))
    }

    /// Each lane's `ψ` and output for one solve of this pack over the
    /// members' storage handed in (`None`: not handed in), lane `l`'s tile
    /// starting at its offset in its member's storage: a live lane whose
    /// member is handed in reads and writes its tile; every other lane
    /// reads the first such lane's and is not stored. `None` if no lane is
    /// live. Offsets past a storage's end panic.
    fn lanes<'a>(
        &self,
        stride: usize,
        halo: usize,
        r: [Option<&'a [f64]>; LANES],
        z: [LaneOut; LANES],
    ) -> Option<([&'a [f64]; LANES], [LaneOut; LANES])> {
        let offs = self.offsets(stride, halo);
        let live = |l: usize| l < self.live && r[offs[l].0].is_some();
        let lead = (0..LANES).find(|&l| live(l))?;
        let psi = |l: usize| &r[offs[l].0].expect("a live lane")[offs[l].1..];
        let rl = std::array::from_fn(|l| psi(if live(l) { l } else { lead }));
        let zl = std::array::from_fn(|l| {
            let (m, off) = offs[l];
            z[m].filter(|_| live(l)).map(|zb| {
                assert!(off <= zb.len());
                // In bounds: checked just above.
                std::ptr::slice_from_raw_parts_mut(
                    zb.cast::<f64>().wrapping_add(off),
                    zb.len() - off,
                )
            })
        });
        Some((rl, zl))
    }
}

/// A count of tiles and of the grid points they cover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCount {
    pub tiles: usize,
    pub points: usize,
}

/// How one [`BlockEvp`] apply splits over its three tile paths: zero-filled
/// all-land tiles, EVP marching tiles, and band-LU tiles (land-touching, or
/// demoted by the set-up accuracy probe) — how many of the solved tiles go
/// four at a time through a pack, and how many lane slots the solves fill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCensus {
    pub all_land: TileCount,
    pub marching: TileCount,
    pub banded: TileCount,
    /// The marching and banded tiles solved through a pack (those with a
    /// same-shape, same-class sibling in their sweep group).
    pub packed: TileCount,
    /// The packs they form; `packed.tiles / packs` is the mean number of
    /// live lanes.
    pub packs: usize,
    /// Lane slots of one apply: [`LANES`] per tile solve (a pack, or a lone
    /// tile riding the lanes as a pack of one), so `lanes / LANES` is the
    /// solve count and `1 − (marching + banded tiles) / lanes` the idle
    /// share.
    pub lanes: usize,
}

impl TileCensus {
    /// The share of lane slots that carry no tile.
    pub fn idle_share(&self) -> f64 {
        let solved = self.marching.tiles + self.banded.tiles;
        if self.lanes == 0 {
            0.0
        } else {
            1.0 - solved as f64 / self.lanes as f64
        }
    }
}

/// One sweep group's tiles by the path that solves them; every tile names
/// the group member (block `first + m`) it belongs to.
#[derive(Debug, Default)]
struct GroupTiles {
    /// All-land tiles: zero-filled.
    land: Vec<(usize, Tile)>,
    /// Tiles alone in their shape and class: solved one at a time.
    lone: Vec<(usize, Tile, EvpSubBlock)>,
    packs: Vec<Pack>,
    /// Every pack's coefficients, in `packs` order — the one array a
    /// group's packed solves stream through.
    slab: Vec<f64>,
}

/// The distributed block-EVP preconditioner: every process block tiled into
/// EVP sub-blocks, applied block-Jacobi style with no communication. Tiles
/// are packed across the blocks of each sweep group, so a sweep that hands
/// it a whole group ([`Preconditioner::apply_group`]) fills the lanes with
/// tiles of up to four blocks.
pub struct BlockEvp {
    /// The layout's sweep groups, and each one's tiles.
    groups: SweepGroups,
    tiles: Vec<GroupTiles>,
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
        let layout = &op.layout;
        let mut tiles = Vec::with_capacity(layout.groups.len());
        for span in layout.groups.iter() {
            let mut grp = GroupTiles::default();
            // Same shape, same class: the tiles one lane kernel can solve
            // side by side. Each class's solvers live only until the class
            // is packed, so a packed tile's coefficients exist once.
            let mut classes: Vec<Vec<(usize, Tile, EvpSubBlock)>> = Vec::new();
            for (m, b) in span.enumerate() {
                let (info, mask) = (&layout.decomp.blocks[b], &layout.masks[b]);
                for t in tile_block(info.nx, info.ny, tile_size) {
                    let any_ocean = (t.j0..t.j0 + t.ny)
                        .any(|j| (t.i0..t.i0 + t.nx).any(|i| mask[j * info.nx + i] != 0));
                    if !any_ocean {
                        grp.land.push((m, t));
                        continue;
                    }
                    let raw = op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
                    let sub = EvpSubBlock::new(&raw, reduced);
                    let key = |t: &Tile, s: &EvpSubBlock| (t.nx, t.ny, s.uses_marching());
                    match classes
                        .iter_mut()
                        .find(|c| key(&c[0].1, &c[0].2) == key(&t, &sub))
                    {
                        Some(c) => c.push((m, t, sub)),
                        None => classes.push(vec![(m, t, sub)]),
                    }
                }
            }
            for class in classes {
                // The sibling rule, and the only rule: a tile with at least
                // one sibling in its group is packed, a tile alone keeps its
                // own solver.
                if class.len() == 1 {
                    grp.lone.extend(class);
                    continue;
                }
                let mut rest = &class[..];
                while !rest.is_empty() {
                    // Never a last pack of one: five tiles are 3 + 2.
                    let take = if rest.len() == LANES + 1 {
                        LANES - 1
                    } else {
                        rest.len().min(LANES)
                    };
                    let (members, tail) = rest.split_at(take);
                    grp.packs.push(Pack::new(members, &mut grp.slab));
                    rest = tail;
                }
            }
            grp.slab.shrink_to_fit();
            tiles.push(grp);
        }
        BlockEvp {
            groups: layout.groups.clone(),
            tiles,
            tile_size,
            reduced,
        }
    }

    /// Which path every tile of one apply takes, in tiles and in the grid
    /// points they cover, and the lane slots the solves fill.
    pub fn census(&self) -> TileCensus {
        let mut census = TileCensus::default();
        let count = |class: &mut TileCount, tiles: usize, points: usize| {
            class.tiles += tiles;
            class.points += tiles * points;
        };
        for grp in &self.tiles {
            for (_, t) in &grp.land {
                count(&mut census.all_land, 1, t.nx * t.ny);
            }
            for (_, t, s) in &grp.lone {
                let class = if s.uses_marching() {
                    &mut census.marching
                } else {
                    &mut census.banded
                };
                count(class, 1, t.nx * t.ny);
            }
            for p in &grp.packs {
                let class = match p.class {
                    TileCoefs::March { .. } => &mut census.marching,
                    TileCoefs::Band { .. } => &mut census.banded,
                };
                count(class, p.live, p.nx * p.ny);
                count(&mut census.packed, p.live, p.nx * p.ny);
            }
            census.packs += grp.packs.len();
            census.lanes += (grp.lone.len() + grp.packs.len()) * LANES;
        }
        census
    }

    pub fn tile_size(&self) -> usize {
        self.tile_size
    }

    pub fn is_reduced(&self) -> bool {
        self.reduced
    }

    /// The tiles of the sweep group holding block `b`, and `b`'s member
    /// index in it.
    fn group_of(&self, b: usize) -> (&GroupTiles, usize) {
        let g = self.groups.of(b);
        (&self.tiles[g], b - self.groups.range(g).start)
    }

    /// The tiles of the sweep group that block `first` opens.
    fn group_at(&self, first: usize) -> &GroupTiles {
        let (grp, m) = self.group_of(first);
        assert_eq!(m, 0, "block {first} does not open a sweep group");
        grp
    }
}

thread_local! {
    /// Per-thread EVP lane pads for [`BlockEvp`]'s applies. Thread-local so
    /// steady-state preconditioner applications allocate nothing, even
    /// when blocks run on pool workers.
    static TILE_SCRATCH: std::cell::RefCell<EvpScratch> =
        std::cell::RefCell::new(EvpScratch::default());
}

/// The row stride and halo every member handed in to a group apply shares,
/// or `None` if no member is. Panics unless `r` and `z` name the same
/// members and every pair, and every member, has one geometry (`check`
/// compares a pair).
fn group_geometry<T: pop_comm::Tile>(
    r: &[Option<&T>; LANES],
    z: &[Option<&mut T>; LANES],
    check: fn(&T, &T),
) -> Option<(usize, usize)> {
    let mut geometry = None;
    for (r, z) in r.iter().zip(z) {
        match (r, z) {
            (Some(r), Some(z)) => {
                check(r, z);
                let geo = (r.shape(), r.raw().len());
                assert!(
                    geometry.is_none_or(|g| g == geo),
                    "a sweep group's blocks share one geometry"
                );
                geometry = Some(geo);
            }
            (None, None) => {}
            _ => panic!("r and z must hand in the same members"),
        }
    }
    geometry.map(|((nx, ny, halo), _)| (pop_comm::tile::extent(nx, ny, halo).0, halo))
}

impl Preconditioner for BlockEvp {
    /// Block `b` alone: its group's packs run with only `b`'s lanes stored,
    /// as a rank that owns part of a group runs them.
    fn apply_block(&self, b: usize, r: &BlockVec, z: &mut BlockVec) {
        let (_, m) = self.group_of(b);
        let (rs, zs) = pop_comm::group::alone(m, r, z);
        self.apply_group(b - m, rs, zs);
    }

    /// Every member of one sweep group handed in, at once: each pack solves
    /// its tiles — of up to four blocks — side by side, one per lane,
    /// streaming the group's slab front to back. A lane whose member is not
    /// handed in runs as an idle lane does (another lane's data in, nothing
    /// stored).
    fn apply_group(
        &self,
        first: usize,
        r: [Option<&BlockVec>; LANES],
        mut z: [Option<&mut BlockVec>; LANES],
    ) {
        let grp = self.group_at(first);
        let Some((stride, h)) = group_geometry(&r, &z, assert_same_shape) else {
            return;
        };
        let mode = pop_simd::mode();
        TILE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for (m, t) in &grp.land {
                if let Some(zb) = z[*m].as_deref_mut() {
                    let zraw = zb.raw_mut();
                    for j in t.j0..t.j0 + t.ny {
                        let off = (j + h) * stride + h + t.i0;
                        zraw[off..off + t.nx].fill(0.0);
                    }
                }
            }
            // A tile alone in its class rides the lanes as a pack of one.
            for (m, t, s) in &grp.lone {
                if let (Some(rb), Some(zb)) = (r[*m], z[*m].as_deref_mut()) {
                    let off = (t.j0 + h) * stride + h + t.i0;
                    s.solve_at(mode, (rb.raw(), zb.raw_mut()), off, stride, scratch);
                }
            }
            // Four tiles per solve, one per lane, from up to four blocks.
            let rraw = r.map(|r| r.map(BlockVec::raw));
            let zraw = z.map(|z| z.map(|zb| std::ptr::from_mut(zb.raw_mut())));
            let mut slab = &grp.slab[..];
            for p in &grp.packs {
                let coefs = p.take(&mut slab).map(PerTile);
                let Some((rl, zl)) = p.lanes(stride, h, rraw, zraw) else {
                    continue;
                };
                // SAFETY: `Pack::lanes`' stored lanes are distinct tiles of
                // blocks handed in as `&mut`, whose borrows the raw pointers
                // inherit for this call; `r` blocks are shared borrows of
                // other storage.
                let io = unsafe { Packed::new(rl, zl, stride) };
                evp_multi::solve_tile(mode, (p.nx, p.ny), coefs, io, scratch);
            }
        });
    }

    /// Block `b` alone, batched: [`BlockEvp::apply_group_multi`] with one
    /// member.
    fn apply_block_multi(&self, b: usize, r: &MultiBlockVec, z: &mut MultiBlockVec) {
        let (_, m) = self.group_of(b);
        let (rs, zs) = pop_comm::group::alone(m, r, z);
        self.apply_group_multi(b - m, rs, zs);
    }

    /// Fused batched apply: every tile is solved for all `groups() × LANES`
    /// right-hand sides in one interleaved pass, so its influence matrix
    /// (or LU factors) and stencil coefficients are loaded once per batch
    /// instead of once per RHS — the amortization the batched solve engine
    /// is built on (DESIGN.md §12). The right-hand sides fill the lanes, so
    /// each tile of a pack is solved on its own, from its lane of the
    /// pack's slab. Per lane, bitwise identical to
    /// [`BlockEvp::apply_block`].
    fn apply_group_multi(
        &self,
        first: usize,
        r: [Option<&MultiBlockVec>; LANES],
        mut z: [Option<&mut MultiBlockVec>; LANES],
    ) {
        let grp = self.group_at(first);
        let Some((stride, h)) = group_geometry(&r, &z, assert_same_shape_multi) else {
            return;
        };
        let mode = pop_simd::mode();
        TILE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let lead = r.iter().flatten().next().expect("a member is handed in");
            let (rows, groups) = (lead.rows(), lead.groups());
            // A tile row advances `rs` floats; lane group `g`'s tile image
            // sits `g · gs` past group 0's in the lane-major block storage.
            let rs = stride * LANES;
            let gs = rows * stride * LANES;
            // Solve a tile of member `m` at block offset `off` for every
            // lane group at once, in place inside the lane-major block
            // arrays — no gather/scatter copies.
            fn io<'a>(
                (rb, zb): (&'a MultiBlockVec, &'a mut MultiBlockVec),
                off: usize,
                (rs, gs, groups): (usize, usize, usize),
            ) -> Batched<'a> {
                let off = off * LANES;
                Batched {
                    psi: &rb.raw()[off..],
                    x: &mut zb.raw_mut()[off..],
                    stride: rs,
                    gstride: gs,
                    groups,
                }
            }
            let lanes = (rs, gs, groups);
            for (m, t) in &grp.land {
                if let Some(zb) = z[*m].as_deref_mut() {
                    let zraw = zb.raw_mut();
                    for g in 0..groups {
                        let off = ((g * rows + t.j0 + h) * stride + h + t.i0) * LANES;
                        for j in 0..t.ny {
                            zraw[off + j * rs..off + j * rs + t.nx * LANES].fill(0.0);
                        }
                    }
                }
            }
            for (m, t, s) in &grp.lone {
                if let (Some(rb), Some(zb)) = (r[*m], z[*m].as_deref_mut()) {
                    let off = (t.j0 + h) * stride + h + t.i0;
                    s.solve_batched(mode, io((rb, zb), off, lanes), scratch);
                }
            }
            let mut slab = &grp.slab[..];
            for p in &grp.packs {
                let coefs = p.take(&mut slab);
                for (l, &(m, off)) in p.offsets(stride, h)[..p.live].iter().enumerate() {
                    if let (Some(rb), Some(zb)) = (r[m], z[m].as_deref_mut()) {
                        let member = coefs.map(|a| Member(a, l));
                        let io = io((rb, zb), off, lanes);
                        evp_multi::solve_tile(mode, (p.nx, p.ny), member, io, scratch);
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
pub(crate) mod tests {
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

    /// SplitMix64 on `(seed, k)`, as a value in `[0, 1)`.
    fn unit(seed: u64, k: usize) -> f64 {
        let mut z = (seed ^ (k as u64) << 20).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded SPD nine-point tile whose coefficients differ point by
    /// point, axis couplings included (unlike [`LocalStencil::reference`],
    /// whose `AN`/`AE` are zero, this exercises the full system's extra
    /// terms), with `land` seeded land cells: identity-free zero rows with
    /// every coupling that touches them dead.
    pub(crate) fn seeded_tile(nx: usize, ny: usize, seed: u64, land: usize) -> LocalStencil {
        let cell = |i: isize, j: isize| ((j + 1) as usize) * (nx + 1) + (i + 1) as usize;
        let mut dry = vec![false; (nx + 1) * (ny + 1)];
        for k in 0..land {
            let q = (unit(seed ^ 0xd1ce, k) * (nx * ny) as f64) as usize;
            dry[cell((q % nx) as isize, (q / nx) as isize)] = true;
        }
        let is_dry = |i: isize, j: isize| i < nx as isize && j < ny as isize && dry[cell(i, j)];
        let mut st = LocalStencil::zeros(nx, ny);
        for j in -1..ny as isize {
            for i in -1..nx as isize {
                let w = 15.0 * (1.0 + 0.3 * unit(seed, cell(i, j)));
                let t = unit(seed ^ 0xa5a5, cell(i, j));
                let live = |cells: &[(isize, isize)]| {
                    f64::from(u8::from(
                        !cells.iter().any(|&(di, dj)| is_dry(i + di, j + dj)),
                    ))
                };
                let a0 = if i >= 0 && j >= 0 {
                    (17.0 * w + 2.5) * live(&[(0, 0)])
                } else {
                    0.0
                };
                st.set(
                    i,
                    j,
                    a0,
                    -0.05 * w * t * live(&[(0, 0), (0, 1)]),
                    -0.04 * w * (1.0 - t) * live(&[(0, 0), (1, 0)]),
                    -4.0 * w * live(&[(0, 0), (1, 0), (0, 1), (1, 1)]),
                );
            }
        }
        st
    }

    /// Every dispatch mode this machine can run.
    pub(crate) fn modes() -> Vec<SimdMode> {
        let mut m = vec![SimdMode::Portable];
        if pop_simd::detected_avx2() {
            m.push(SimdMode::Avx2);
        }
        m
    }

    /// The lanes' output equals each member's scalar reference solve bit
    /// for bit — every shape (lane multiples and ragged tails), both classes
    /// (band members with distinct land masks), reduced and full systems,
    /// 1–4 live lanes (one = a lone tile's own arrays, splat), members from
    /// two blocks, every dispatch mode; idle and unstored lanes write
    /// nothing; and the block storage may have any stride (the pack knows
    /// tile origins, not offsets).
    #[test]
    fn pack_matches_each_members_own_solve_bitwise() {
        let mut scratch = EvpScratch::default();
        for (nx, ny) in [(8, 8), (8, 6), (7, 5), (5, 7), (12, 3)] {
            for (marching, reduced, live) in [
                (true, true, 4),
                (true, true, 3),
                (true, true, 1),
                (true, false, 2),
                (true, false, 4),
                (true, false, 1),
                (false, true, 4),
                (false, true, 2),
                (false, true, 1),
                (false, false, 3),
                (false, false, 1),
            ] {
                // Lane `l` comes from member block `l % 2`.
                let members: Vec<(usize, Tile, EvpSubBlock)> = (0..live)
                    .map(|l| {
                        let seed = (nx * 131 + ny * 17 + l * 7 + usize::from(reduced)) as u64;
                        let land = if marching { 0 } else { 2 + l };
                        let sub = EvpSubBlock::new(&seeded_tile(nx, ny, seed, land), reduced);
                        assert_eq!(sub.uses_marching(), marching, "{nx}x{ny} lane {l}");
                        let t = Tile {
                            i0: 1 + l * (nx + 1),
                            j0: 1 + l % 2,
                            nx,
                            ny,
                        };
                        (l % 2, t, sub)
                    })
                    .collect();
                // One member rides the lanes as `BlockEvp`'s lone tiles do;
                // more are packed.
                let mut slab = Vec::new();
                let pack = (live > 1).then(|| Pack::new(&members, &mut slab));
                let (_, t0, sub0) = &members[0];

                // Two block widths, so two row strides; every stored subset
                // of the live lanes.
                for (extra, stored) in [(0, 0b1111), (5, 0b1111), (0, 0b1010), (5, 0b0101)] {
                    let stored = |l: usize| l < live && (live == 1 || stored >> l & 1 == 1);
                    let (bx, by, halo) = (LANES * (nx + 1) + 3 + extra, ny + 4, 2);
                    let rs: [BlockVec; 2] = std::array::from_fn(|m| {
                        let mut r = BlockVec::zeros(bx, by, halo);
                        for (k, v) in r.raw_mut().iter_mut().enumerate() {
                            *v = 2.0 * unit(77 + m as u64, k) - 1.0;
                        }
                        r
                    });
                    for mode in modes() {
                        let tag = format!(
                            "{nx}x{ny} marching={marching} reduced={reduced} live={live} \
                             bx={bx} {mode:?}"
                        );
                        let mut zs: [BlockVec; 2] = std::array::from_fn(|_| {
                            let mut z = BlockVec::zeros(bx, by, halo);
                            z.fill(f64::NAN);
                            z
                        });
                        let stride = rs[0].stride();
                        let offs = match &pack {
                            Some(p) => p.offsets(stride, halo),
                            None => [(0, rs[0].offset(t0.i0 as isize, t0.j0 as isize)); LANES],
                        };
                        let zraw = zs.each_mut().map(|z| std::ptr::from_mut(z.raw_mut()));
                        let rl = offs.map(|(m, off)| &rs[m].raw()[off..]);
                        let zl: [LaneOut; LANES] = std::array::from_fn(|l| {
                            let (m, off) = offs[l];
                            let len = zraw[m].len() - off;
                            stored(l).then(|| {
                                std::ptr::slice_from_raw_parts_mut(
                                    zraw[m].cast::<f64>().wrapping_add(off),
                                    len,
                                )
                            })
                        });
                        // SAFETY: stored lanes are distinct tiles of `zs`,
                        // which nothing else touches until the solve ends.
                        let io = unsafe { Packed::new(rl, zl, stride) };
                        match &pack {
                            Some(p) => {
                                assert_eq!(p.live, live);
                                let mut rest = &slab[..];
                                let coefs = p.take(&mut rest).map(PerTile);
                                assert!(rest.is_empty(), "{tag}: slab not consumed");
                                evp_multi::solve_tile(mode, (nx, ny), coefs, io, &mut scratch);
                            }
                            None => {
                                let coefs = sub0.coefs().map(Shared);
                                evp_multi::solve_tile(mode, (nx, ny), coefs, io, &mut scratch);
                            }
                        }

                        for (l, (m, t, sub)) in members.iter().enumerate() {
                            if !stored(l) {
                                continue;
                            }
                            let (r, z) = (&rs[*m], &mut zs[*m]);
                            let psi: Vec<f64> = (0..ny)
                                .flat_map(|j| r.interior_row(t.j0 + j)[t.i0..t.i0 + nx].to_vec())
                                .collect();
                            let mut want = vec![0.0; nx * ny];
                            sub.solve_reference(&psi, &mut want);
                            for j in 0..ny {
                                for i in 0..nx {
                                    let got = z.get(t.i0 + i, t.j0 + j);
                                    assert_eq!(
                                        got.to_bits(),
                                        want[j * nx + i].to_bits(),
                                        "{tag} tile {t:?} ({i},{j}): {got:e} vs {:e}",
                                        want[j * nx + i]
                                    );
                                    *z.at_mut((t.i0 + i) as isize, (t.j0 + j) as isize) = f64::NAN;
                                }
                            }
                        }
                        assert!(
                            zs.iter().all(|z| z.raw().iter().all(|v| v.is_nan())),
                            "{tag}: a store landed outside the stored tiles"
                        );
                    }
                }
            }
        }
    }

    /// Set-up marches the influence matrix four unit guesses per lane sweep;
    /// one unit guess at a time through the reference march gives the same
    /// `W`, bit for bit — reduced and full systems, lane-multiple and ragged
    /// ring lengths, every dispatch mode, one scratch across all of them.
    #[test]
    fn influence_matrix_matches_one_guess_at_a_time_bitwise() {
        let mut scratch = EvpScratch::default();
        for (nx, ny) in [(8, 8), (7, 5), (12, 3), (1, 5), (2, 3)] {
            for reduced in [true, false] {
                let raw = seeded_tile(nx, ny, 97 + nx as u64, 0);
                let st = if reduced { raw.reduced() } else { raw };
                let plan = MarchPlan::new(&st, reduced);
                let zero = vec![0.0; nx * ny];
                for mode in modes() {
                    let w = evp_multi::influence_matrix(mode, &plan, &mut scratch);
                    assert_eq!(w.n(), nx + ny - 1);
                    for (c, ek) in evp_multi::e_line(nx, ny).enumerate() {
                        let mut xpad = vec![0.0; (nx + 2) * (ny + 2)];
                        xpad[ek] = 1.0;
                        march_reference(&plan, &mut xpad, &zero);
                        for (r, fk) in evp_multi::f_line(nx, ny).enumerate() {
                            assert_eq!(
                                w.get(r, c).to_bits(),
                                xpad[fk].to_bits(),
                                "{nx}x{ny} reduced={reduced} {mode:?} W[{r}][{c}]"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Why a reduced band tile may solve in colour order bit for bit: the
    /// reduced stencil couples each point only to its diagonal neighbours,
    /// which share its colour, so every cross-colour entry of the
    /// natural-order factor is an exact zero, every same-colour entry is
    /// the colour-order factor's, and the colour-order solve is the
    /// natural-order one minus `fma(±0, x, acc)` steps — no-ops for finite
    /// `x` and a non-zero `acc`, which random `ψ` gives. Square, ragged,
    /// odd-width (colours of unequal size) and one-point-wide (half-width 0)
    /// shapes, all ocean and with land.
    #[test]
    fn colour_order_band_tiles_are_the_natural_order_ones_bit_for_bit() {
        let shapes = [
            (8, 8),
            (8, 6),
            (8, 5),
            (7, 6),
            (7, 7),
            (5, 3),
            (8, 2),
            (2, 8),
            (1, 5),
            (5, 1),
        ];
        for (nx, ny) in shapes {
            let n = nx * ny;
            let colour_w = evp_multi::colour_half_width((nx, ny));
            if nx == 1 || ny == 1 {
                assert_eq!(colour_w, 0, "{nx}x{ny}");
            }
            for land in [0, 2] {
                let tag = format!("{nx}x{ny} land={land}");
                let raw = seeded_tile(nx, ny, (nx * 31 + ny) as u64, land);
                let st = raw.reduced();
                let mask: Vec<u8> = (0..n)
                    .map(|p| u8::from(raw.a0((p % nx) as isize, (p / nx) as isize) > 0.0))
                    .collect();
                let sub = EvpSubBlock {
                    nx,
                    ny,
                    solver: EvpSubBlock::band_setup(&st, &mask, true),
                };
                let SubSolver::Band { lu, maskbits, .. } = &sub.solver else {
                    unreachable!()
                };
                let natural = st
                    .band_lu_in(nx + 1, |i, j| j * nx + i)
                    .expect("positive definite");
                let (_, nw, nband) = natural.raw_parts();
                let (cn, cw, cband) = lu.raw_parts();
                assert_eq!((cn, cw, cband.len()), (n, colour_w, n * (2 * colour_w + 1)));
                if (nx, ny) == (8, 8) {
                    assert_eq!((cw, cband.len()), (5, 64 * 11), "{tag}");
                }

                // Entry (p, q) of each factor, if its band holds it.
                let row = |p: usize| evp_multi::colour_row((nx, ny), p % nx, p / nx);
                let entry = |band: &[f64], w: usize, r: usize, c: usize| {
                    (r.abs_diff(c) <= w).then(|| band[r * (2 * w + 1) + c + w - r])
                };
                let red = |p: usize| (p % nx + p / nx) % 2 == 0;
                for p in 0..n {
                    for q in 0..n {
                        let nat = entry(nband, nw, p, q);
                        let col = entry(cband, cw, row(p), row(q));
                        if red(p) != red(q) {
                            for v in [nat, col].into_iter().flatten() {
                                assert_eq!(v, 0.0, "{tag}: cross-colour ({p},{q}) = {v:e}");
                            }
                            continue;
                        }
                        match (nat, col) {
                            (Some(a), Some(b)) => assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{tag}: same-colour ({p},{q}): {a:e} vs {b:e}"
                            ),
                            (Some(v), None) | (None, Some(v)) => {
                                assert_eq!(v, 0.0, "{tag}: ({p},{q}) outside one band = {v:e}")
                            }
                            (None, None) => {}
                        }
                    }
                }

                for seed in 0..3 {
                    let psi: Vec<f64> = (0..n).map(|k| 2.0 * unit(seed, k) - 1.0).collect();
                    let mut want = psi.clone();
                    natural.solve_in_place(&mut want);
                    let mut got = vec![f64::NAN; n];
                    sub.solve_reference(&psi, &mut got);
                    for (p, (g, w)) in got.iter().zip(&want).enumerate() {
                        let w = and_select(*w, maskbits[p]);
                        assert_eq!(g.to_bits(), w.to_bits(), "{tag} seed {seed} point {p}");
                    }
                }
            }
        }
    }

    /// A NaN in `ψ` fills its whole band tile in colour order, as it did in
    /// natural order: the substitutions step over every in-band entry,
    /// exact zeros included, and `fma(±0, NaN, acc)` is NaN. Land still
    /// comes out `+0.0`. Only a tile one point wide (half-width 0) keeps the
    /// NaN at its own point.
    #[test]
    fn a_nan_in_psi_fills_its_band_tile_but_not_its_land() {
        for (nx, ny) in [(8, 8), (7, 5), (1, 5)] {
            let n = nx * ny;
            let sub = EvpSubBlock::new(&seeded_tile(nx, ny, 5, 2), true);
            let SubSolver::Band { lu, maskbits, .. } = &sub.solver else {
                panic!("{nx}x{ny}: a tile with land takes the band LU");
            };
            let ocean = |p: usize| maskbits[p].to_bits() != 0;
            let p0 = (0..n).find(|&p| ocean(p)).expect("an ocean point");
            let mut psi = rhs(n);
            psi[p0] = f64::NAN;
            let mut x = vec![0.0; n];
            sub.solve_reference(&psi, &mut x);
            let alone = lu.raw_parts().1 == 0;
            for (p, v) in x.iter().enumerate() {
                if !ocean(p) {
                    assert_eq!(v.to_bits(), 0, "{nx}x{ny} land point {p}: {v}");
                } else {
                    assert_eq!(v.is_nan(), !alone || p == p0, "{nx}x{ny} point {p}: {v}");
                }
            }
        }
    }

    /// FNV-1a over the bit patterns of a field.
    fn fnv(values: &[f64]) -> u64 {
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// On the operators the benchmark runs, one `BlockEvp::apply` — packs,
    /// lone tiles and all — equals the scalar reference solve of every tile
    /// on its own, bit for bit. Prints the census and an FNV hash of the
    /// output per operator, and on a CPU with FMA (the hashes depend on it,
    /// not on `POP_BARO_SIMD`) holds each hash to the one recorded, so a
    /// change that moves any bit of `M⁻¹` on these operators fails here:
    /// `cargo test -p pop-core block_apply_matches -- --nocapture`.
    #[test]
    fn block_apply_matches_tile_by_tile_solves_bitwise() {
        // (name, grid, block shape, τ, packed tiles and tile solves
        // expected, FMA hash)
        let cases = [
            (
                "gx1 40x48",
                Grid::gx1(2015),
                (40, 48),
                1100.0,
                (1323, 341),
                0x7dde_e637_90eb_2c57,
            ),
            (
                "gyre 16x12",
                Grid::idealized_basin(64, 48, 500.0, 2.0e4),
                (16, 12),
                2400.0,
                (64, 18),
                0x9294_b4c5_be4f_38fd,
            ),
            (
                "serve-0 8x8",
                Grid::gx1_scaled(2015, 96, 80),
                (8, 8),
                4000.0,
                (95, 38),
                0xa399_6557_cd90_b074,
            ),
            (
                "serve-1 8x8",
                Grid::gx1_scaled(2016, 96, 80),
                (8, 8),
                5500.0,
                (93, 39),
                0x0f2d_4dec_7d44_fbbb,
            ),
            (
                "ranks-1024 8x6",
                Grid::gx1_scaled(2015, 320, 240),
                (8, 6),
                2700.0,
                (1068, 365),
                0x40cd_3bd9_cfd6_5069,
            ),
        ];
        let world = CommWorld::serial();
        for (name, g, (bx, by), tau, packed, fma_hash) in cases {
            let layout = DistLayout::build(&g, bx, by);
            let op = NinePoint::assemble(&g, &layout, &world, tau);
            let pre = BlockEvp::with_defaults(&op);
            let c = pre.census();
            // Packs form across the blocks of a sweep group, so even the
            // one-tile-per-block operators fill most lanes.
            assert_eq!((c.packed.tiles, c.lanes / LANES), packed, "{name}: {c:?}");
            if name.starts_with("gx1") {
                let tiles = |t: TileCount| t.tiles;
                assert_eq!(
                    (tiles(c.all_land), tiles(c.marching), tiles(c.banded)),
                    (477, 1002, 321)
                );
            }

            let mut r = DistVec::zeros(&layout);
            r.fill_with(|i, j| ((i * 3 + j * 5) as f64 * 0.1).sin());
            let mut z = DistVec::zeros(&layout);
            pre.apply(&world, &r, &mut z);
            // What the preconditioner keeps: the packs' slabs, and the lone
            // tiles' own arrays.
            let slab: usize = pre.tiles.iter().map(|g| g.slab.len()).sum();
            let lone: usize = pre
                .tiles
                .iter()
                .flat_map(|g| &g.lone)
                .map(|(_, _, s)| s.coefs().arrays().map(<[f64]>::len).iter().sum::<usize>())
                .sum();
            let hash = fnv(&z.to_global());
            println!(
                "block-EVP apply fnv {name}: {hash:016x}  ({} dispatch; {} of {} tiles in {} packs, \
                 {} tile solves, {:.1} % of lanes idle, slabs {} KiB, lone tiles {} KiB)",
                pop_simd::mode().name(),
                c.packed.tiles,
                c.marching.tiles + c.banded.tiles,
                c.packs,
                c.lanes / LANES,
                100.0 * c.idle_share(),
                slab * 8 / 1024,
                lone * 8 / 1024
            );
            if pop_simd::detected_fma() {
                assert_eq!(hash, fma_hash, "{name}: {hash:016x} vs {fma_hash:016x}");
            }

            for (b, info) in layout.decomp.blocks.iter().enumerate() {
                let rb = &r.blocks[b];
                let mut want = BlockVec::zeros(info.nx, info.ny, rb.halo);
                want.fill(f64::NAN);
                for t in tile_block(info.nx, info.ny, pre.tile_size()) {
                    let raw = op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
                    let mut x = vec![0.0; t.nx * t.ny];
                    if !(0..t.ny as isize).all(|j| (0..t.nx as isize).all(|i| raw.a0(i, j) <= 0.0))
                    {
                        let psi: Vec<f64> = (t.j0..t.j0 + t.ny)
                            .flat_map(|j| rb.interior_row(j)[t.i0..t.i0 + t.nx].to_vec())
                            .collect();
                        EvpSubBlock::new(&raw, pre.is_reduced()).solve_reference(&psi, &mut x);
                    }
                    for (j, row) in x.chunks_exact(t.nx).enumerate() {
                        want.interior_row_mut(t.j0 + j)[t.i0..t.i0 + t.nx].copy_from_slice(row);
                    }
                }
                for j in 0..info.ny {
                    for (i, w) in want.interior_row(j).iter().enumerate() {
                        let got = z.blocks[b].get(i, j);
                        assert_eq!(got.to_bits(), w.to_bits(), "{name} block {b} ({i},{j})");
                    }
                }
            }
        }
    }
}
