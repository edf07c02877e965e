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

use super::evp_multi::{self, Batched, LaneScratch, Member, Packed, PerTile, Shared, TileCoefs};
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
    /// EVP marching with the inverse influence matrix `R = W⁻¹`. A marching
    /// tile is all ocean, so it carries no mask.
    Evp {
        /// `R`, row-major.
        r_inv: Vec<f64>,
        /// `R` transposed into the lane layout (column-major, row count
        /// padded to `kp`) for the SIMD influence apply.
        r_inv_t: Vec<f64>,
        kp: usize,
        /// Every coefficient the restructured march reads.
        plan: MarchPlan,
    },
    /// Direct band-LU solve (land-touching tile, or an unstable or singular
    /// influence matrix).
    Band {
        lu: BandLu,
        /// Ocean mask of the *original* coefficients as `f64` mask words
        /// (`all-ones`/`0.0`): outputs are zeroed on land, branch-free.
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
            .unwrap_or_else(|| SubSolver::Band {
                lu: stencil
                    .band_lu()
                    .expect("sub-block principal submatrix must be positive definite"),
                maskbits: pop_simd::mask_bits(&mask),
            });
        EvpSubBlock { nx, ny, solver }
    }

    /// March out the influence matrix, invert it, and verify solve accuracy
    /// on a probe right-hand side. `None` if anything is non-finite or the
    /// probe residual is poor (marching instability at this block size).
    fn try_marching_setup(stencil: &LocalStencil, reduced: bool) -> Option<SubSolver> {
        let (nx, ny) = (stencil.nx, stencil.ny);
        let k = nx + ny - 1;

        // Chain coefficients exist because `marchable` held (ANE ≠ 0).
        let plan = MarchPlan::new(stencil, reduced);
        let mode = pop_simd::mode();

        // Influence matrix: column c = response on f to a unit guess on e[c].
        let mut xpad = vec![0.0; (nx + 2) * (ny + 2)];
        let zero_row = vec![0.0; nx];
        let mut g = Vec::new();
        let mut w = DenseMatrix::zeros(k);
        for (c, e) in evp_simd::e_line(nx, ny).enumerate() {
            xpad.fill(0.0);
            xpad[e] = 1.0;
            evp_simd::march(mode, &plan, &mut xpad, (&zero_row, 0), &mut g);
            for (r, f) in evp_simd::f_line(nx, ny).enumerate() {
                if !xpad[f].is_finite() {
                    return None;
                }
                w.set(r, c, xpad[f]);
            }
        }
        let inv = w.inverse().ok()?;
        let r_inv: Vec<f64> = (0..k * k).map(|q| inv.get(q / k, q % k)).collect();
        if !r_inv.iter().all(|v| v.is_finite()) {
            return None;
        }
        let kp = pop_simd::round_up_lanes(k);
        let r_inv_t = evp_simd::transpose_padded(&inv, kp);

        // Accuracy probe: solve for a pseudo-random ψ and check the residual.
        let probe = EvpSubBlock {
            nx,
            ny,
            solver: SubSolver::Evp {
                r_inv,
                r_inv_t,
                kp,
                plan,
            },
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
                evp_simd::march(mode, plan, xpad, (psi, psi_stride), &mut scratch.g);

                // Mismatch on the Dirichlet ring (this path must not
                // allocate in steady state).
                scratch.fvals.clear();
                scratch
                    .fvals
                    .extend(evp_simd::f_line(nx, ny).map(|k| xpad[k]));

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
                for (c, k) in evp_simd::e_line(nx, ny).enumerate() {
                    xpad[k] = -scratch.corr[c];
                }
                evp_simd::march(mode, plan, xpad, (psi, psi_stride), &mut scratch.g);

                for j in 0..ny {
                    let src = (j + 1) * stride + 1;
                    x[j * x_stride..j * x_stride + nx].copy_from_slice(&xpad[src..src + nx]);
                }
            }
            SubSolver::Band { lu, maskbits } => {
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
                    for ((d, &v), &m) in dst.iter_mut().zip(&xt[row.clone()]).zip(&maskbits[row]) {
                        *d = and_select(v, m);
                    }
                }
            }
        }
    }

    /// The batched image of [`EvpSubBlock::solve_strided_mode`]: solve the
    /// tile for all `groups · LANES` right-hand sides `io` addresses at
    /// once, through the lane kernels of [`evp_multi`] (every coefficient
    /// and influence-matrix entry loaded once for all lanes of all groups,
    /// one independent chain recurrence or band substitution in flight per
    /// group). Per lane the result is bitwise identical to the single-RHS
    /// solve.
    pub(super) fn solve_batched(&self, mode: SimdMode, io: Batched, scratch: &mut LaneScratch) {
        let coefs = self.coefs().map(Shared);
        evp_multi::solve_tile(mode, (self.nx, self.ny), coefs, io, scratch);
    }

    /// The tile's set-up arrays as the lane kernels of [`evp_multi`] take
    /// them.
    fn coefs(&self) -> TileCoefs<&[f64]> {
        match &self.solver {
            SubSolver::Evp { r_inv, plan, .. } => TileCoefs::March {
                reduced: plan.reduced,
                planes: &plan.c,
                r_inv,
            },
            SubSolver::Band { lu, maskbits } => {
                let (_, w, band) = lu.raw_parts();
                TileCoefs::Band {
                    w,
                    band,
                    mask: maskbits,
                }
            }
        }
    }
}

/// Up to [`LANES`] tiles of one block that share a shape and a solver class,
/// solved together with one tile per lane (DESIGN.md §9). The pack's
/// coefficients live lane-interleaved in its block's slab; the members'
/// own [`EvpSubBlock`]s are gone.
#[derive(Debug)]
struct Pack {
    nx: usize,
    ny: usize,
    /// Block-interior origin of each lane's tile; lanes `live..` repeat
    /// lane 0 (its data too) and are never written out.
    origin: [(usize, usize); LANES],
    live: usize,
    /// The solver class, carrying each array's length in the slab.
    class: TileCoefs<usize>,
}

impl Pack {
    /// Pack `members` (2 to [`LANES`] tiles of one shape and class),
    /// appending their arrays to `slab` as `value[idx·LANES + lane]`, one
    /// array after another in [`TileCoefs::arrays`] order.
    fn new(members: &[(Tile, EvpSubBlock)], slab: &mut Vec<f64>) -> Pack {
        let live = members.len();
        assert!((2..=LANES).contains(&live));
        let lane = |l: usize| &members[if l < live { l } else { 0 }];
        let first = &members[0].1;
        let class = first.coefs().map(|a| a.len() * LANES);
        for l in 0..LANES {
            let (t, s) = lane(l);
            assert_eq!(
                (t.nx, t.ny, s.nx, s.ny),
                (first.nx, first.ny, first.nx, first.ny)
            );
            assert!(
                s.coefs().map(|a| a.len() * LANES) == class,
                "pack members must share one solver class"
            );
        }
        let arrays: [_; LANES] = std::array::from_fn(|l| lane(l).1.coefs().arrays());
        // The marching planes become one record per tile point; every other
        // array keeps its order (a one-field record per entry).
        let fields = match class {
            TileCoefs::March { reduced, .. } => [evp_simd::planes(reduced), 1],
            TileCoefs::Band { .. } => [1, 1],
        };
        for (a, nf) in fields.into_iter().enumerate() {
            let points = arrays[0][a].len() / nf;
            for idx in 0..points * nf {
                let src = idx % nf * points + idx / nf;
                slab.extend(arrays.iter().map(|of_lane| of_lane[a][src]));
            }
        }
        Pack {
            nx: first.nx,
            ny: first.ny,
            origin: std::array::from_fn(|l| (lane(l).0.i0, lane(l).0.j0)),
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

    /// Offset of lane `l`'s tile origin in block storage of the given row
    /// stride and halo — computed per apply, so any same-shape
    /// [`BlockVec`] works, whatever its padding.
    fn offsets(&self, stride: usize, halo: usize) -> [usize; LANES] {
        self.origin.map(|(i0, j0)| (j0 + halo) * stride + halo + i0)
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
/// demoted by the set-up accuracy probe) — and how many of the solved tiles
/// go four at a time through a pack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileCensus {
    pub all_land: TileCount,
    pub marching: TileCount,
    pub banded: TileCount,
    /// The marching and banded tiles solved through a pack (those with a
    /// same-shape, same-class sibling in their block).
    pub packed: TileCount,
    /// The packs they form; `packed.tiles / packs` is the mean number of
    /// live lanes.
    pub packs: usize,
}

/// One parent block's tiles by the path that solves them.
#[derive(Debug, Default)]
struct BlockTiles {
    /// All-land tiles: zero-filled.
    land: Vec<Tile>,
    /// Tiles alone in their shape and class: solved one at a time.
    lone: Vec<(Tile, EvpSubBlock)>,
    packs: Vec<Pack>,
    /// Every pack's coefficients, in `packs` order — the one array a
    /// block's packed solves stream through.
    slab: Vec<f64>,
}

/// The distributed block-EVP preconditioner: every process block tiled into
/// EVP sub-blocks, applied block-Jacobi style with no communication.
pub struct BlockEvp {
    blocks: Vec<BlockTiles>,
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
        let mut blocks = Vec::with_capacity(op.layout.n_blocks());
        for (b, info) in op.layout.decomp.blocks.iter().enumerate() {
            let mask = &op.layout.masks[b];
            let mut blk = BlockTiles::default();
            // Same shape, same class: the tiles one lane kernel can solve
            // side by side. Each group's solvers live only until the group
            // is packed, so a packed tile's coefficients exist once.
            let mut groups: Vec<Vec<(Tile, EvpSubBlock)>> = Vec::new();
            for t in tile_block(info.nx, info.ny, tile_size) {
                let any_ocean = (t.j0..t.j0 + t.ny)
                    .any(|j| (t.i0..t.i0 + t.nx).any(|i| mask[j * info.nx + i] != 0));
                if !any_ocean {
                    blk.land.push(t);
                    continue;
                }
                let raw = op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
                let sub = EvpSubBlock::new(&raw, reduced);
                let key = |t: &Tile, s: &EvpSubBlock| (t.nx, t.ny, s.uses_marching());
                match groups
                    .iter_mut()
                    .find(|g| key(&g[0].0, &g[0].1) == key(&t, &sub))
                {
                    Some(g) => g.push((t, sub)),
                    None => groups.push(vec![(t, sub)]),
                }
            }
            for group in groups {
                // The sibling rule, and the only rule: a tile with at least
                // one sibling is packed, a tile alone keeps its own solver.
                if group.len() == 1 {
                    blk.lone.extend(group);
                    continue;
                }
                let mut rest = &group[..];
                while !rest.is_empty() {
                    // Never a last pack of one: five tiles are 3 + 2.
                    let take = if rest.len() == LANES + 1 {
                        LANES - 1
                    } else {
                        rest.len().min(LANES)
                    };
                    let (members, tail) = rest.split_at(take);
                    blk.packs.push(Pack::new(members, &mut blk.slab));
                    rest = tail;
                }
            }
            blk.slab.shrink_to_fit();
            blocks.push(blk);
        }
        BlockEvp {
            blocks,
            tile_size,
            reduced,
        }
    }

    /// Which path every tile of one apply takes, in tiles and in the grid
    /// points they cover.
    pub fn census(&self) -> TileCensus {
        let mut census = TileCensus::default();
        let count = |class: &mut TileCount, tiles: usize, points: usize| {
            class.tiles += tiles;
            class.points += tiles * points;
        };
        for blk in &self.blocks {
            for t in &blk.land {
                count(&mut census.all_land, 1, t.nx * t.ny);
            }
            for (t, s) in &blk.lone {
                let class = if s.uses_marching() {
                    &mut census.marching
                } else {
                    &mut census.banded
                };
                count(class, 1, t.nx * t.ny);
            }
            for p in &blk.packs {
                let class = match p.class {
                    TileCoefs::March { .. } => &mut census.marching,
                    TileCoefs::Band { .. } => &mut census.banded,
                };
                count(class, p.live, p.nx * p.ny);
                count(&mut census.packed, p.live, p.nx * p.ny);
            }
            census.packs += blk.packs.len();
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
    /// Lane-major pads/buffers for the packed and the batched tile solves.
    pub lanes: LaneScratch,
}

thread_local! {
    pub(super) static TILE_SCRATCH: std::cell::RefCell<TileScratch> =
        std::cell::RefCell::new(TileScratch::default());
}

impl Preconditioner for BlockEvp {
    fn apply_block(&self, b: usize, r: &BlockVec, z: &mut BlockVec) {
        let mode = pop_simd::mode();
        TILE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let (stride, h) = (r.stride(), r.halo);
            debug_assert_eq!(z.stride(), stride);
            debug_assert_eq!(z.halo, h);
            let rraw = r.raw();
            let zraw = z.raw_mut();
            let blk = &self.blocks[b];
            for t in &blk.land {
                for j in t.j0..t.j0 + t.ny {
                    let off = (j + h) * stride + h + t.i0;
                    zraw[off..off + t.nx].fill(0.0);
                }
            }
            for (t, s) in &blk.lone {
                // Solve the tile in place inside the block arrays — no
                // gather/scatter copies on the fused path.
                let off = (t.j0 + h) * stride + h + t.i0;
                s.solve_strided(
                    &rraw[off..],
                    stride,
                    &mut zraw[off..],
                    stride,
                    &mut scratch.evp,
                );
            }
            // Four tiles per solve, one per lane, streaming the block's
            // slab front to back.
            let mut slab = &blk.slab[..];
            for p in &blk.packs {
                let io = Packed {
                    r: rraw,
                    z: zraw,
                    offs: p.offsets(stride, h),
                    live: p.live,
                    stride,
                };
                let coefs = p.take(&mut slab).map(PerTile);
                evp_multi::solve_tile(mode, (p.nx, p.ny), coefs, io, &mut scratch.lanes);
            }
        });
    }

    /// Fused batched apply: every tile is solved for all `groups() × LANES`
    /// right-hand sides in one interleaved pass, so its influence matrix
    /// (or LU factors) and stencil coefficients are loaded once per batch
    /// instead of once per RHS — the amortization the batched solve engine
    /// is built on (DESIGN.md §12). A packed tile is served from its pack's
    /// slab, one lane of it splat to every right-hand side. Per lane,
    /// bitwise identical to [`BlockEvp::apply_block`].
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
            // A tile row advances `rs` floats; lane group `g`'s tile image
            // sits `g · gs` past group 0's in the lane-major block storage.
            let rs = stride * LANES;
            let gs = rows * stride * LANES;
            let blk = &self.blocks[b];
            for t in &blk.land {
                for g in 0..groups {
                    let off = ((g * rows + t.j0 + h) * stride + h + t.i0) * LANES;
                    for j in 0..t.ny {
                        zraw[off + j * rs..off + j * rs + t.nx * LANES].fill(0.0);
                    }
                }
            }
            // Solve a tile for every lane group at once, in place inside
            // the lane-major block arrays — no gather/scatter copies.
            for (t, s) in &blk.lone {
                let off = ((t.j0 + h) * stride + h + t.i0) * LANES;
                let io = Batched {
                    psi: &rraw[off..],
                    x: &mut zraw[off..],
                    stride: rs,
                    gstride: gs,
                    groups,
                };
                s.solve_batched(mode, io, &mut scratch.lanes);
            }
            let mut slab = &blk.slab[..];
            for p in &blk.packs {
                let coefs = p.take(&mut slab);
                for (l, off) in p.offsets(stride, h)[..p.live].iter().enumerate() {
                    let off = off * LANES;
                    let io = Batched {
                        psi: &rraw[off..],
                        x: &mut zraw[off..],
                        stride: rs,
                        gstride: gs,
                        groups,
                    };
                    let member = coefs.map(|a| Member(a, l));
                    evp_multi::solve_tile(mode, (p.nx, p.ny), member, io, &mut scratch.lanes);
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
        let mut m = vec![SimdMode::Scalar, SimdMode::Portable];
        if pop_simd::detected_avx2() {
            m.push(SimdMode::Avx2);
        }
        m
    }

    /// A pack's output equals each member's own solve bit for bit — every
    /// shape (lane multiples and ragged tails), both classes (band members
    /// with distinct land masks), reduced and full systems, 2–4 live lanes,
    /// every dispatch mode; idle lanes write nothing; and the block storage
    /// may have any stride (the pack knows tile origins, not offsets).
    #[test]
    fn pack_matches_each_members_own_solve_bitwise() {
        for (nx, ny) in [(8, 8), (8, 6), (7, 5), (5, 7), (12, 3)] {
            for (marching, reduced, live) in [
                (true, true, 4),
                (true, true, 3),
                (true, false, 2),
                (true, false, 4),
                (false, true, 4),
                (false, true, 2),
                (false, false, 3),
            ] {
                let members: Vec<(Tile, EvpSubBlock)> = (0..live)
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
                        (t, sub)
                    })
                    .collect();
                let mut slab = Vec::new();
                let pack = Pack::new(&members, &mut slab);
                assert_eq!(pack.live, live);

                // Two block widths with different padded strides.
                for extra in [0, 5] {
                    let (bx, by, halo) = (LANES * (nx + 1) + 3 + extra, ny + 4, 2);
                    let mut r = BlockVec::zeros(bx, by, halo);
                    for (k, v) in r.raw_mut().iter_mut().enumerate() {
                        *v = 2.0 * unit(77, k) - 1.0;
                    }
                    for mode in modes() {
                        let tag = format!(
                            "{nx}x{ny} marching={marching} reduced={reduced} live={live} \
                             bx={bx} {mode:?}"
                        );
                        let mut z = BlockVec::zeros(bx, by, halo);
                        z.fill(f64::NAN);
                        let mut rest = &slab[..];
                        let coefs = pack.take(&mut rest).map(PerTile);
                        assert!(rest.is_empty(), "{tag}: slab not consumed");
                        let io = Packed {
                            r: r.raw(),
                            z: z.raw_mut(),
                            offs: pack.offsets(r.stride(), halo),
                            live,
                            stride: r.stride(),
                        };
                        evp_multi::solve_tile(
                            mode,
                            (nx, ny),
                            coefs,
                            io,
                            &mut LaneScratch::default(),
                        );

                        for (t, sub) in &members {
                            let psi: Vec<f64> = (0..ny)
                                .flat_map(|j| r.interior_row(t.j0 + j)[t.i0..t.i0 + nx].to_vec())
                                .collect();
                            let mut want = vec![0.0; nx * ny];
                            sub.solve_mode(mode, &psi, &mut want, &mut EvpScratch::default());
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
                            z.raw().iter().all(|v| v.is_nan()),
                            "{tag}: a store landed outside the live tiles"
                        );
                    }
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

    /// On the operators the benchmark runs, one `BlockEvp::apply` — packs
    /// and all — equals solving every tile on its own, bit for bit. Prints
    /// the census and an FNV hash of the output per operator, so two
    /// commits (or two `POP_BARO_SIMD` settings) can be compared by eye:
    /// `cargo test -p pop-core block_apply_matches -- --nocapture`.
    #[test]
    fn block_apply_matches_tile_by_tile_solves_bitwise() {
        // (name, grid, block shape, τ, packed tiles expected)
        let cases = [
            ("gx1 40x48", Grid::gx1(2015), (40, 48), 1100.0, 1316),
            (
                "gyre 16x12",
                Grid::idealized_basin(64, 48, 500.0, 2.0e4),
                (16, 12),
                2400.0,
                60,
            ),
            (
                "serve-0 8x8",
                Grid::gx1_scaled(2015, 96, 80),
                (8, 8),
                4000.0,
                0,
            ),
            (
                "serve-1 8x8",
                Grid::gx1_scaled(2016, 96, 80),
                (8, 8),
                5500.0,
                0,
            ),
        ];
        let world = CommWorld::serial();
        for (name, g, (bx, by), tau, packed) in cases {
            let layout = DistLayout::build(&g, bx, by);
            let op = NinePoint::assemble(&g, &layout, &world, tau);
            let pre = BlockEvp::with_defaults(&op);
            let c = pre.census();
            assert_eq!(c.packed.tiles, packed, "{name}: {c:?}");
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
            let slab: usize = pre.blocks.iter().map(|b| b.slab.len()).sum();
            let lone: usize = pre
                .blocks
                .iter()
                .flat_map(|b| &b.lone)
                .map(|(_, s)| match &s.solver {
                    SubSolver::Evp {
                        r_inv,
                        r_inv_t,
                        plan,
                        ..
                    } => r_inv.len() + r_inv_t.len() + plan.c.len(),
                    SubSolver::Band { lu, maskbits } => lu.raw_parts().2.len() + maskbits.len(),
                })
                .sum();
            println!(
                "block-EVP apply fnv {name}: {:016x}  ({} dispatch; {} of {} tiles in {} packs, \
                 slabs {} KiB, lone tiles {} KiB)",
                fnv(&z.to_global()),
                pop_simd::mode().name(),
                c.packed.tiles,
                c.marching.tiles + c.banded.tiles,
                c.packs,
                slab * 8 / 1024,
                lone * 8 / 1024
            );

            let mut scratch = EvpScratch::default();
            for (b, info) in layout.decomp.blocks.iter().enumerate() {
                let (rb, stride) = (&r.blocks[b], r.blocks[b].stride());
                let mut want = BlockVec::zeros(info.nx, info.ny, rb.halo);
                want.fill(f64::NAN);
                for t in tile_block(info.nx, info.ny, pre.tile_size()) {
                    let raw = op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
                    let off = rb.offset(t.i0 as isize, t.j0 as isize);
                    if (0..t.ny as isize).all(|j| (0..t.nx as isize).all(|i| raw.a0(i, j) <= 0.0)) {
                        for j in 0..t.ny {
                            want.interior_row_mut(t.j0 + j)[t.i0..t.i0 + t.nx].fill(0.0);
                        }
                        continue;
                    }
                    EvpSubBlock::new(&raw, pre.is_reduced()).solve_strided(
                        &rb.raw()[off..],
                        stride,
                        &mut want.raw_mut()[off..],
                        stride,
                        &mut scratch,
                    );
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
