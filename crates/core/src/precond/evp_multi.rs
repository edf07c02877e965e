//! The EVP tile solve, the one kernel family behind [`super::BlockEvp`]: one
//! march, one influence fold, one band substitution and one copy-out, each
//! generic over *what rides the four lanes* and *where a coefficient comes
//! from*.
//!
//! ## The restructured march
//!
//! The classic marching recurrence solves the equation centered at
//! `(i, j)` for `x(i+1, j+1)`, which chains a divide into every step of a
//! loop-carried dependency. Each center row is split into
//!
//! 1. a **g-pass** over terms from already-completed rows:
//!    `g_i = (ψ_i − q_i) · d⁻¹_i` with `d⁻¹_i = 1/ANE(i,j)` precomputed at
//!    set-up, and
//! 2. a **chain pass** over the in-progress output row,
//!    `y_{i+1} = g_i − h2_i·y_{i−1}` (reduced) or
//!    `y_{i+1} = (g_i − h1_i·y_i) − h2_i·y_{i−1}` (full), with
//!    `h1 = AN(i,j)/ANE(i,j)`, `h2 = ANE(i−1,j)/ANE(i,j)` precomputed at
//!    set-up ([`MarchPlan`]).
//!
//! The chain keeps only a multiply and a subtract on the critical path (the
//! divide became a set-up-time reciprocal). Within one tile it is a serial
//! recurrence that no instruction set vectorises, so the lanes never run
//! *along* a tile row: they hold independent chains. (Expanding the reduced
//! recurrence one level — distance-4, four interleaved chains within a row
//! — was tried and measured slower at POP's 8–12 column tiles.)
//!
//! ## What rides the lanes
//!
//! Three things, and they are the same arithmetic:
//!
//! - **four tiles × one right-hand side** — a pack of [`super::BlockEvp`]'s
//!   single-RHS apply. Same-shape tiles of one sweep group (up to four
//!   consecutive same-shape blocks) are packed four to a lane group, their
//!   coefficients lane-interleaved in the group's slab ([`PerTile`]:
//!   `V::load(&slab[idx·4])`), and the marching chain and the band
//!   substitutions advance four tiles per step. [`Packed`] stages `ψ` in
//!   and `x` out through a 4×4 transpose, each lane from its own block.
//! - **one tile × one right-hand side** — a tile with no same-shape sibling
//!   in its group, and [`super::EvpSubBlock::solve`]: a pack of one. The
//!   tile's own arrays are splat ([`Shared`]), [`Packed`] stages it with
//!   one live lane, and the three idle lanes repeat lane 0 and are never
//!   stored.
//! - **one tile × `groups · LANES` right-hand sides** — the batched apply.
//!   The pad is superlane-major (`groups · LANES` consecutive `f64` per pad
//!   point — lane group, then lane), every coefficient is splat once and
//!   shared by all lanes of all groups ([`Shared`] for a tile's own arrays,
//!   [`Member`] for one tile of a pack's slab), and one *independent*
//!   chain per lane group is in flight. [`Batched`] reads and writes the
//!   lane-major [`pop_comm::MultiBlockVec`] storage in place.
//!
//! ## The group count is a type parameter
//!
//! Every kernel that carries state along a serial chain — the marching
//! chain ([`march_sweep`]), the influence fold ([`influence_rows`]), the
//! band substitutions ([`band_solve`]) — and the copy-out
//! ([`Batched`]'s `scatter`) takes the lane-group count as a const generic
//! `G ∈ 1..=`[`MAX_GROUPS`]. The chain registers (`y₋₂`, `y₋₁`, the fold
//! and substitution accumulators) are then `[V; G]` arrays the compiler
//! keeps in registers, with the group loop unrolled; with a runtime count
//! they were indexed through memory, so every serial step paid a store and
//! a load. The job ([`Solve`]) maps its staging's runtime `groups()` to `G`
//! with one `match` — the only dispatch. A pack and a lone tile
//! ([`Packed`]) always have one group, so they are the `G = 1` instance.
//! No lane's operation order depends on `G`: only which register an
//! instruction feeds.
//!
//! ## Band tiles in colour order
//!
//! A reduced band tile's factor numbers its unknowns red (`i + j` even)
//! first, then black ([`colour_row`]). The reduced stencil couples a point
//! only to its diagonal neighbours, which share its colour, so that factor
//! is two decoupled systems at about half the natural half-width (5 rather
//! than 9 at 8×8). [`TileIo::gather`] writes `ψ` straight into that order
//! and [`TileIo::scatter`] reads `x` back out of it ([`Layout`]): the
//! permutation rides copies the band solve makes anyway, and
//! [`band_solve`] never sees it. Full-system band tiles keep natural order.
//!
//! Each lane executes exactly the per-point operation sequence of the
//! scalar test oracle [`super::EvpSubBlock::solve_reference`] — `(ψ −
//! ((a0·xc + ane_s·xse) + ane_sw·xsw))·d⁻¹`, the axis terms summed among
//! themselves first in the full system, the band substitutions of
//! [`pop_stencil::dense::BandLu::solve_in_place`] in the factor's order —
//! so per-lane results are bitwise identical to it on both lane types:
//! interleaving lanes reorders *instructions*, never any lane's
//! arithmetic. Three rules hold throughout:
//!
//! - the chain recurrence's FMA contraction is keyed on the CPU property
//!   [`pop_simd::detected_fma`], never on the dispatch mode: the chain
//!   planes are stored signed for it, and `fma(−h, y, g)` on lanes is the
//!   exact lane image of the scalar `(−h).mul_add(y, g)`;
//! - the band substitutions follow the same key: each row is one chain
//!   from `acc = x[r]` with its newest unknown last (forward columns
//!   ascending, back columns descending), one `fma(−f, x, acc)` per step
//!   on FMA CPUs and `acc + (−f)·x` elsewhere — the factors are stored
//!   negated for it — and a back row ends `acc · (1/u_rr)`, so no tile
//!   solve divides;
//! - the influence apply accumulates each output row over ascending columns
//!   from `+0.0`, the scalar row dot product.

use pop_comm::MAX_GROUPS;
use pop_simd::{LaneF64, LaneJob, SimdMode, LANES};
use pop_stencil::{DenseMatrix, LocalStencil};
use std::marker::PhantomData;

/// Reusable scratch for an EVP tile solve ([`super::EvpSubBlock::solve`]);
/// [`super::BlockEvp`] keeps one per thread so steady-state preconditioner
/// applications allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct EvpScratch {
    /// Superlane-major marching pad: `(nx+2)·(ny+2)` points of
    /// `groups·LANES` values.
    xpad: Vec<f64>,
    /// Per-row `g` buffer: `nx` points of `groups·LANES` values.
    g: Vec<f64>,
    /// Overshoot-ring values, then the guess correction `R·f`: ring length
    /// × `groups·LANES` each.
    fvals: Vec<f64>,
    corr: Vec<f64>,
    /// Superlane-major contiguous tile: a pack's transposed `ψ`, or the
    /// band-LU solve's staging (in place: `ψ` in, `x` out).
    tile: Vec<f64>,
}

// ---------------------------------------------------------------------------
// The marching coefficients
// ---------------------------------------------------------------------------

/// The coefficient planes of a [`MarchPlan`], in storage order: plane `f`
/// holds one value per tile point, row-major, at `c[f·nx·ny ..]`. The first
/// [`planes`]`(true)` serve the reduced system; the full system adds the
/// axis couplings.
pub(super) const A0: usize = 0;
/// `ANE(i, j−1)`, the coupling to `x(i+1, j−1)`.
pub(super) const ANE_S: usize = 1;
/// `ANE(i−1, j−1)`, the coupling to `x(i−1, j−1)`.
pub(super) const ANE_SW: usize = 2;
/// `1/ANE(i,j)`: the marching pivot as a reciprocal, so the per-point
/// divide is a multiply (the one-time reciprocal rounding is absorbed by
/// the influence matrix, which is marched with the same plan).
pub(super) const D_INV: usize = 3;
/// The chain coefficient `ANE(i−1,j)/ANE(i,j)`, stored ready for the chain
/// step this CPU runs: negated where the step is `fma(−h2, y₋₂, g)`
/// ([`pop_simd::detected_fma`]), as is where it is `g − h2·y₋₂`.
pub(super) const H2: usize = 4;
/// `AN(i, j−1)`.
pub(super) const AN_S: usize = 5;
pub(super) const AE: usize = 6;
/// `AE(i−1, j)`.
pub(super) const AE_W: usize = 7;
/// `AN(i,j)/ANE(i,j)`, signed like [`H2`]. (The reduced system has no such
/// plane: the term is dropped, not multiplied by zero — `0·y` is not
/// bitwise neutral for `−0.0`.)
pub(super) const H1: usize = 8;

/// How many coefficient planes a marching tile carries.
pub(super) const fn planes(reduced: bool) -> usize {
    if reduced {
        H2 + 1
    } else {
        H1 + 1
    }
}

/// Set-up-time precomputation for the restructured marching sweep: every
/// coefficient a sweep reads, as row-major `nx × ny` planes (see [`A0`] …
/// [`H1`]). Built only for marchable tiles (`ANE ≠ 0` at every center); the
/// tile's `LocalStencil` is not needed afterwards.
#[derive(Debug, Clone)]
pub(super) struct MarchPlan {
    pub(super) nx: usize,
    pub(super) ny: usize,
    pub(super) reduced: bool,
    pub(super) c: Vec<f64>,
}

impl MarchPlan {
    pub(super) fn new(st: &LocalStencil, reduced: bool) -> Self {
        let (nx, ny) = (st.nx, st.ny);
        let (cs, a0, an, ae, ane) = st.raw_parts();
        let n = nx * ny;
        let chain = |h: f64| if pop_simd::detected_fma() { -h } else { h };
        let mut c = vec![0.0; planes(reduced) * n];
        for j in 0..ny {
            for i in 0..nx {
                let (p, ck) = (j * nx + i, (j + 1) * cs + 1 + i);
                c[A0 * n + p] = a0[ck];
                c[ANE_S * n + p] = ane[ck - cs];
                c[ANE_SW * n + p] = ane[ck - cs - 1];
                c[D_INV * n + p] = 1.0 / ane[ck];
                c[H2 * n + p] = chain(ane[ck - 1] / ane[ck]);
                if !reduced {
                    c[AN_S * n + p] = an[ck - cs];
                    c[AE * n + p] = ae[ck];
                    c[AE_W * n + p] = ae[ck - 1];
                    c[H1 * n + p] = chain(an[ck] / ane[ck]);
                }
            }
        }
        MarchPlan { nx, ny, reduced, c }
    }
}

/// Marching-pad indices (row stride `nx + 2`) of the initial-guess line
/// `e`: south row then west column (paper Fig. 5).
pub(super) fn e_line(nx: usize, ny: usize) -> impl Iterator<Item = usize> {
    let xs = nx + 2;
    (0..nx)
        .map(move |i| xs + i + 1)
        .chain((1..ny).map(move |j| (j + 1) * xs + 1))
}

/// Marching-pad indices of the overshoot line `f` on the Dirichlet ring:
/// north ring then east ring. As long as [`e_line`]: `nx + ny − 1`.
pub(super) fn f_line(nx: usize, ny: usize) -> impl Iterator<Item = usize> {
    let xs = nx + 2;
    (1..=nx)
        .map(move |i| (ny + 1) * xs + i + 1)
        .chain((1..ny).map(move |j| (j + 1) * xs + nx + 1))
}

// ---------------------------------------------------------------------------
// Where a staged point lives
// ---------------------------------------------------------------------------

/// Band row of point `(i, j)` of a reduced `nx × ny` band tile: colour
/// order, red points (`i + j` even) first, then black, row-major within each
/// colour. With `p = j·nx + i` that is row `⌊p/2⌋`, plus `⌈n/2⌉` for a black
/// point: an even `nx` puts `nx/2` points of each colour in every row, and an
/// odd `nx` makes the colour `p`'s parity. The reduced stencil couples a point
/// only to its diagonal neighbours, which share its colour, so the factor
/// ordered this way is two decoupled systems of half the natural half-width
/// (DESIGN.md S5). The one place the order is written: the factor's
/// permutation, [`Layout::Colour`]'s staging and
/// [`super::EvpSubBlock::solve_reference`] all come here.
#[inline(always)]
pub(super) fn colour_row((nx, ny): (usize, usize), i: usize, j: usize) -> usize {
    (j * nx + i) / 2 + (i + j) % 2 * (nx * ny).div_ceil(2)
}

/// Half-width of a reduced `nx × ny` tile's matrix in colour order: the
/// farthest [`colour_row`] distance between diagonal neighbours. It is a
/// function of the shape alone (5 for 8×8, against `nx + 1` = 9 in natural
/// order), so same-shape tiles keep one solver class; 0 for a tile one
/// point wide or high, which has no diagonal neighbours.
pub(super) fn colour_half_width((nx, ny): (usize, usize)) -> usize {
    let row = |i, j| colour_row((nx, ny), i, j);
    (1..ny)
        .flat_map(|j| (1..nx).map(move |i| (i, j)))
        .flat_map(|(i, j)| {
            [
                row(i, j).abs_diff(row(i - 1, j - 1)),
                row(i - 1, j).abs_diff(row(i, j - 1)),
            ]
        })
        .max()
        .unwrap_or(0)
}

/// Where a staged tile keeps point `(i, j)`, counted in points of `groups ·
/// LANES` values.
#[derive(Debug, Clone, Copy)]
pub(super) enum Layout {
    /// Row `j` starts `j · pitch` points in: `ψ` for the march and a
    /// full-system band tile (pitch `nx`), the march pad's interior (pitch
    /// `nx + 2`).
    Rows(usize),
    /// A reduced band tile's colour order ([`colour_row`]).
    Colour,
}

impl Layout {
    /// The order a band tile's factor holds its unknowns in: colour order
    /// for the reduced system, natural for the full one.
    pub(super) fn band(reduced: bool, nx: usize) -> Layout {
        if reduced {
            Layout::Colour
        } else {
            Layout::Rows(nx)
        }
    }

    /// Point `(i, j)` of an `nx × ny` tile.
    #[inline(always)]
    pub(super) fn point(self, dims: (usize, usize), i: usize, j: usize) -> usize {
        match self {
            Layout::Rows(pitch) => j * pitch + i,
            Layout::Colour => colour_row(dims, i, j),
        }
    }
}

// ---------------------------------------------------------------------------
// Where a coefficient comes from
// ---------------------------------------------------------------------------

/// A flat coefficient array as the lane kernels read it: entry `idx` as one
/// value per lane.
pub(super) trait Coefs: Copy {
    /// Does the marching array hold one `fields`-long record per tile point
    /// (a pack's slab, streamed front to back) rather than one `points`-long
    /// plane per field (a tile's own [`MarchPlan`], which
    /// [`super::EvpSubBlock::solve_reference`] reads along rows)?
    const RECORDS: bool;

    /// How many entries the array holds.
    fn len(self) -> usize;

    /// # Safety
    /// `idx < self.len()` — unchecked: [`solve_tile`] checks every array's
    /// length against the tile shape once, and the kernels index inside
    /// those lengths by construction (the per-entry check measured ≈ 10 %
    /// of a packed apply). [`LaneJob::run`]'s contract for `V` holds.
    unsafe fn at<V: LaneF64>(self, idx: usize) -> V;

    /// Field `f` of tile point `p` in the marching array.
    ///
    /// # Safety
    /// As [`Coefs::at`], with `p < points` and `f < fields`.
    #[inline(always)]
    unsafe fn field<V: LaneF64>(self, p: usize, f: usize, points: usize, fields: usize) -> V {
        self.at(if Self::RECORDS {
            p * fields + f
        } else {
            f * points + p
        })
    }
}

/// One tile's own contiguous array: every lane is another right-hand side
/// of the same tile, so the entry is splat.
#[derive(Clone, Copy)]
pub(super) struct Shared<'a>(pub &'a [f64]);

/// A pack's lane-interleaved array (`value[idx·LANES + lane]`): lane `l` is
/// the pack's tile `l`.
#[derive(Clone, Copy)]
pub(super) struct PerTile<'a>(pub &'a [f64]);

/// Tile `.1` of a pack's lane-interleaved array, splat: the pack's data
/// serving a batched solve of one member.
#[derive(Clone, Copy)]
pub(super) struct Member<'a>(pub &'a [f64], pub usize);

impl Coefs for Shared<'_> {
    const RECORDS: bool = false;

    fn len(self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    unsafe fn at<V: LaneF64>(self, idx: usize) -> V {
        debug_assert!(idx < self.len());
        V::splat(*self.0.get_unchecked(idx))
    }
}

impl Coefs for PerTile<'_> {
    const RECORDS: bool = true;

    fn len(self) -> usize {
        self.0.len() / LANES
    }

    #[inline(always)]
    unsafe fn at<V: LaneF64>(self, idx: usize) -> V {
        debug_assert!(idx < self.len());
        V::load(self.0.as_ptr().add(idx * LANES))
    }
}

impl Coefs for Member<'_> {
    const RECORDS: bool = true;

    fn len(self) -> usize {
        assert!(self.1 < LANES);
        self.0.len() / LANES
    }

    #[inline(always)]
    unsafe fn at<V: LaneF64>(self, idx: usize) -> V {
        debug_assert!(idx < self.len());
        V::splat(*self.0.get_unchecked(idx * LANES + self.1))
    }
}

/// The set-up data of one tile (or one pack of tiles) as `T`-typed arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum TileCoefs<T> {
    /// EVP marching: the [`MarchPlan`] planes and the
    /// row-major inverse influence matrix `R = W⁻¹`. No mask: a marchable
    /// tile is all ocean.
    March { reduced: bool, planes: T, r_inv: T },
    /// Band LU: the `n·(2w+1)` factor of [`pop_stencil::dense::BandLu`]
    /// (`−l`, `1/u_rr`, `−u`), in [`Layout::band`]`(reduced)` order, and the
    /// land mask words, row-major.
    Band {
        reduced: bool,
        w: usize,
        band: T,
        mask: T,
    },
}

impl<T> TileCoefs<T> {
    /// The arrays alone, in storage order (the order a pack's slab holds
    /// them in).
    pub(super) fn arrays(self) -> [T; 2] {
        match self {
            TileCoefs::March { planes, r_inv, .. } => [planes, r_inv],
            TileCoefs::Band { band, mask, .. } => [band, mask],
        }
    }

    /// The same tile with every array mapped through `f`, in storage order.
    pub(super) fn map<U>(self, mut f: impl FnMut(T) -> U) -> TileCoefs<U> {
        match self {
            TileCoefs::March {
                reduced,
                planes,
                r_inv,
            } => TileCoefs::March {
                reduced,
                planes: f(planes),
                r_inv: f(r_inv),
            },
            TileCoefs::Band {
                reduced,
                w,
                band,
                mask,
            } => TileCoefs::Band {
                reduced,
                w,
                band: f(band),
                mask: f(mask),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The kernels
// ---------------------------------------------------------------------------

/// Zero exactly the superlane-major pad cells a sweep *reads before
/// writing*: the two full south pad rows (ring plus south e-line) and the
/// two west pad columns of every higher row (west ring plus west e-line).
/// Everything else — the whole interior and the north/east ring — is written
/// by the sweep's chain pass before any later row's g-pass reads it, so
/// stale values from a previous sweep (or a previous tile's solve) are
/// unreachable. Lane stores rather than `fill`: the spans are a few lane
/// groups long, shorter than a `memset` call.
///
/// # Safety
/// [`LaneJob::run`]'s contract for `V`.
#[inline(always)]
unsafe fn reset_march_pad<V: LaneF64>(xpad: &mut [f64], nx: usize, ny: usize, groups: usize) {
    let zero = V::splat(0.0);
    let row = (nx + 2) * groups;
    let mut clear = |from: usize, lane_groups: usize| {
        for q in from..from + lane_groups {
            zero.store(xpad[q * LANES..][..LANES].as_mut_ptr());
        }
    };
    clear(0, 2 * row);
    for j in 2..ny + 2 {
        clear(j * row, 2 * groups);
    }
}

/// The southwest→northeast marching sweep over the superlane-major pad:
/// per center row, a lane-wide g-pass then the lane-wide chain recurrence —
/// one independent chain per lane group, `G` in flight in registers.
/// Values on the guess line `e` and the south/west ring must be preset;
/// everything with `i ≥ 1 ∧ j ≥ 1` — including the north/east ring — is
/// produced. `psi = (slice, row stride, group stride)`:
/// lane group `g`'s right-hand sides of row `j`, column `i` are the `LANES`
/// values at `g · group stride + j · row stride + i · LANES`.
///
/// # Safety
/// [`LaneJob::run`]'s contract for `V`. `planes` must hold the tile's
/// planes, `xpad` `(nx+2)·(ny+2)` and `g` `nx` points of `G · LANES`.
/// (`use_fma` is no safety matter — [`LaneF64::mul_add`] runs wherever its
/// lanes do — but it must be the [`pop_simd::detected_fma`] the plan's chain
/// planes were signed for.)
#[inline(always)]
unsafe fn march_sweep<V: LaneF64, C: Coefs, const G: usize>(
    (nx, ny): (usize, usize),
    reduced: bool,
    planes: C,
    xpad: &mut [f64],
    (psi, psi_stride, psi_gstride): (&[f64], usize, usize),
    g: &mut [f64],
    use_fma: bool,
) {
    let (n, nf, xs, sl) = (nx * ny, self::planes(reduced), nx + 2, G * LANES);
    let coef = |p: usize, f: usize| planes.field::<V>(p, f, n, nf);
    for j in 0..ny {
        // Split so the g-pass reads only completed rows while the chain
        // writes the in-progress output row.
        let (done, out) = xpad.split_at_mut((j + 2) * xs * sl);
        // Pad *point* index of `x(0, j)`; lane group `g` of point `p` lives
        // at `p·sl + g·LANES`.
        let xrow = (j + 1) * xs + 1;
        let at = |p: usize, gr: usize| V::load(done.as_ptr().add(p * sl + gr * LANES));
        for i in 0..nx {
            let (p, xk) = (j * nx + i, xrow + i);
            // One load per coefficient, shared by every lane group.
            let a0 = coef(p, A0);
            let ane_s = coef(p, ANE_S);
            let ane_sw = coef(p, ANE_SW);
            let d_inv = coef(p, D_INV);
            for gr in 0..G {
                let q = a0.mul(at(xk, gr));
                let q = q.add(ane_s.mul(at(xk - (xs - 1), gr)));
                let mut q = q.add(ane_sw.mul(at(xk - (xs + 1), gr)));
                if !reduced {
                    let t4 = coef(p, AN_S).mul(at(xk - xs, gr));
                    let t5 = coef(p, AE).mul(at(xk + 1, gr));
                    let t6 = coef(p, AE_W).mul(at(xk - 1, gr));
                    q = q.add(t4.add(t5).add(t6));
                }
                let rhs = V::load(
                    psi.as_ptr()
                        .add(gr * psi_gstride + j * psi_stride + i * LANES),
                );
                rhs.sub(q)
                    .mul(d_inv)
                    .store(g.as_mut_ptr().add(i * sl + gr * LANES));
            }
        }
        // The chain: each lane runs the scalar recurrence on its own tile /
        // right-hand side — the solve's serial critical path, so on CPUs
        // with FMA one fused `fma(−h2, y₋₂, g)` per step, half the
        // dependency latency of `mul` then `sub`. Point 0 of `out` is the
        // west ring, point 1 the preset guess, point `i+2` receives
        // `x(i+1, j+1)`.
        let mut ym1 = [V::splat(0.0); G];
        let mut y0 = [V::splat(0.0); G];
        for gr in 0..G {
            ym1[gr] = V::load(out.as_ptr().add(gr * LANES));
            y0[gr] = V::load(out.as_ptr().add(sl + gr * LANES));
        }
        for i in 0..nx {
            let p = j * nx + i;
            // Signed at set-up: `−h` on FMA CPUs, `h` elsewhere.
            let h2 = coef(p, H2);
            let h1 = if reduced { h2 } else { coef(p, H1) };
            for gr in 0..G {
                let gi = V::load(g.as_ptr().add(i * sl + gr * LANES));
                let y = match (reduced, use_fma) {
                    (true, true) => h2.mul_add(ym1[gr], gi),
                    (true, false) => gi.sub(h2.mul(ym1[gr])),
                    (false, true) => h2.mul_add(ym1[gr], h1.mul_add(y0[gr], gi)),
                    (false, false) => gi.sub(h1.mul(y0[gr])).sub(h2.mul(ym1[gr])),
                };
                y.store(out.as_mut_ptr().add((i + 2) * sl + gr * LANES));
                ym1[gr] = y0[gr];
                y0[gr] = y;
            }
        }
    }
}

/// `RB` output rows of `corr = R·f` from row `r0`: the matrix is traversed
/// once, each entry feeding all lanes of all groups; per lane every output
/// row is the scalar ascending-column fold from `+0.0`. Several rows at once
/// only so that enough independent accumulators hide the add latency.
///
/// # Safety
/// As [`influence`], with `r0 + RB ≤ k`.
#[inline(always)]
unsafe fn influence_rows<V: LaneF64, C: Coefs, const RB: usize, const G: usize>(
    r_inv: C,
    k: usize,
    f: &[f64],
    corr: &mut [f64],
    r0: usize,
) {
    let sl = G * LANES;
    let mut acc = [[V::splat(0.0); G]; RB];
    for c in 0..k {
        for (rb, row) in acc.iter_mut().enumerate() {
            let ev = r_inv.at::<V>((r0 + rb) * k + c);
            for (gr, a) in row.iter_mut().enumerate() {
                *a = a.add(ev.mul(V::load(f.as_ptr().add(c * sl + gr * LANES))));
            }
        }
    }
    for (rb, row) in acc.iter().enumerate() {
        for (gr, a) in row.iter().enumerate() {
            a.store(corr.as_mut_ptr().add((r0 + rb) * sl + gr * LANES));
        }
    }
}

/// `corr = R·f` for every lane's overshoot vector at once (`k` ring points
/// of `G · LANES` values each).
///
/// # Safety
/// [`LaneJob::run`]'s contract for `V`. `r_inv` must hold `k²` entries, `f`
/// and `corr` `k · G · LANES` values.
#[inline(always)]
unsafe fn influence<V: LaneF64, C: Coefs, const G: usize>(
    r_inv: C,
    k: usize,
    f: &[f64],
    corr: &mut [f64],
) {
    let mut r = 0;
    while r < k {
        // About MAX_GROUPS accumulator registers in flight either way.
        let rb = (k - r).min(MAX_GROUPS / G);
        if rb >= 4 {
            influence_rows::<V, C, 4, G>(r_inv, k, f, corr, r);
            r += 4;
        } else if rb >= 2 {
            influence_rows::<V, C, 2, G>(r_inv, k, f, corr, r);
            r += 2;
        } else {
            influence_rows::<V, C, 1, G>(r_inv, k, f, corr, r);
            r += 1;
        }
    }
}

/// The whole marching solve into `xpad`: a sweep from the zero guess, the
/// overshoot on the Dirichlet ring folded through `R`, and the definitive
/// sweep from the corrected guess `e = −R·f`.
///
/// # Safety
/// As [`march_sweep`] (the buffers are sized here) and [`influence`]:
/// `planes` and `r_inv` must hold an `nx × ny` tile's arrays, and `psi` its
/// right-hand sides.
#[inline(always)]
unsafe fn march_solve<V: LaneF64, C: Coefs, const G: usize>(
    (nx, ny): (usize, usize),
    reduced: bool,
    planes: C,
    r_inv: C,
    psi: (&[f64], usize, usize),
    (xpad, g, fvals, corr): (&mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>, &mut Vec<f64>),
    use_fma: bool,
) {
    let (sl, k) = (G * LANES, nx + ny - 1);
    xpad.resize((nx + 2) * (ny + 2) * sl, 0.0);
    g.resize(nx * sl, 0.0);
    fvals.resize(k * sl, 0.0);
    corr.resize(k * sl, 0.0);

    reset_march_pad::<V>(xpad, nx, ny, G);
    march_sweep::<V, C, G>((nx, ny), reduced, planes, xpad, psi, g, use_fma);
    // Mismatch on the Dirichlet ring, per lane (pure copies).
    for (c, fk) in f_line(nx, ny).enumerate() {
        fvals[c * sl..(c + 1) * sl].copy_from_slice(&xpad[fk * sl..(fk + 1) * sl]);
    }
    influence::<V, C, G>(r_inv, k, fvals, corr);
    // The e-line negation is the scalar unary `-` per lane (exact, unlike
    // `0.0 − x`, which loses `−0.0`).
    reset_march_pad::<V>(xpad, nx, ny, G);
    for (c, ek) in e_line(nx, ny).enumerate() {
        for v in 0..sl {
            xpad[ek * sl + v] = -corr[c * sl + v];
        }
    }
    march_sweep::<V, C, G>((nx, ny), reduced, planes, xpad, psi, g, use_fma);
}

/// Lane-parallel band-LU solve, in place: every lane runs the exact scalar
/// [`pop_stencil::dense::BandLu::solve_in_place`] recurrence on its own
/// right-hand side (and, in a pack, its own factor) — per row one chain
/// from `acc = x[r]`, a step `fma(−f, x, acc)` (or `acc + (−f)·x` where
/// `use_fma` is false) per band column, the newest unknown last, and a back
/// row ending `acc · (1/u_rr)`. The substitutions are serial dependency
/// chains per lane, so their latency is the cost: `G` independent chains
/// are in flight in registers, and the newest unknown is taken from the
/// register that produced it rather than reloaded from the tile. `x` is `n`
/// points of `G · LANES` values, `b` on entry.
///
/// # Safety
/// [`LaneJob::run`]'s contract for `V`. `band` must hold `n · (2w + 1)`
/// entries and `x` `n · G · LANES`. (`use_fma` must be the
/// [`pop_simd::detected_fma`] the scalar reference keys on.)
#[inline(always)]
unsafe fn band_solve<V: LaneF64, C: Coefs, const G: usize>(
    n: usize,
    w: usize,
    band: C,
    x: &mut [f64],
    use_fma: bool,
) {
    let (sl, bw) = (G * LANES, 2 * w + 1);
    let xp = x.as_mut_ptr();
    let at = |p: usize, gr: usize| V::load(xp.add(p * sl + gr * LANES));
    // Row `p` of every group into the chain registers (plain loops:
    // `array::from_fn` does not inline into a `target_feature` caller).
    let row = |p: usize| {
        let mut acc = [V::splat(0.0); G];
        for (gr, a) in acc.iter_mut().enumerate() {
            *a = at(p, gr);
        }
        acc
    };
    let step = |acc: V, f: V, xc: V| {
        if use_fma {
            f.mul_add(xc, acc)
        } else {
            acc.add(f.mul(xc))
        }
    };
    // Forward substitution (unit lower), columns ascending; `newest` holds
    // `x[r − 1]`.
    let mut newest = if n > 0 { row(0) } else { [V::splat(0.0); G] };
    for r in 1..n {
        let lo = r.saturating_sub(w);
        let mut acc = row(r);
        for c in lo..r - 1 {
            let f = band.at::<V>(r * bw + c + w - r);
            for (gr, a) in acc.iter_mut().enumerate() {
                *a = step(*a, f, at(c, gr));
            }
        }
        if lo < r {
            let f = band.at::<V>(r * bw + w - 1);
            for (a, y) in acc.iter_mut().zip(&newest) {
                *a = step(*a, f, *y);
            }
        }
        for (gr, a) in acc.iter().enumerate() {
            a.store(xp.add(r * sl + gr * LANES));
        }
        newest = acc;
    }
    // Back substitution, columns descending; `newest` holds `x[r + 1]`.
    for r in (0..n).rev() {
        let hi = (r + w + 1).min(n);
        let mut acc = row(r);
        for c in (r + 2..hi).rev() {
            let f = band.at::<V>(r * bw + c + w - r);
            for (gr, a) in acc.iter_mut().enumerate() {
                *a = step(*a, f, at(c, gr));
            }
        }
        if r + 1 < hi {
            let f = band.at::<V>(r * bw + w + 1);
            for (a, y) in acc.iter_mut().zip(&newest) {
                *a = step(*a, f, *y);
            }
        }
        let inv_pivot = band.at::<V>(r * bw + w);
        for (gr, a) in acc.iter_mut().enumerate() {
            *a = a.mul(inv_pivot);
            a.store(xp.add(r * sl + gr * LANES));
        }
        newest = acc;
    }
}

// ---------------------------------------------------------------------------
// Staging: what the lanes are
// ---------------------------------------------------------------------------

/// How a tile solve's `ψ` reaches the lanes and its `x` leaves them.
pub(super) trait TileIo {
    /// Lane groups riding the solve.
    fn groups(&self) -> usize;

    /// Panic unless an `nx × ny` tile lies inside the storage addressed.
    fn assert_fits(&self, dims: (usize, usize));

    /// `ψ` as the marching sweep reads it — `(slice, row stride, group
    /// stride)` — in place where the storage is lane-major already, staged
    /// into `buf` otherwise.
    ///
    /// # Safety
    /// As [`TileIo::gather`].
    unsafe fn psi<'s, V: LaneF64>(
        &'s self,
        dims: (usize, usize),
        buf: &'s mut Vec<f64>,
    ) -> (&'s [f64], usize, usize);

    /// `ψ` as one contiguous superlane-major tile (`nx·ny` points of
    /// `groups · LANES` values), point `(i, j)` at `layout`'s place — for
    /// the in-place band substitution, the order its factor was built in.
    ///
    /// # Safety
    /// [`LaneJob::run`]'s contract for `V`. `layout` must place every point
    /// below `nx·ny` ([`Layout::Colour`], or [`Layout::Rows`] of pitch `nx`).
    unsafe fn gather<V: LaneF64>(&self, dims: (usize, usize), layout: Layout, dst: &mut Vec<f64>);

    /// Write the solved tile out, land zeroed through the row-major `mask`
    /// words (the branch-free select; `None` = all ocean). Point `(i, j)` of
    /// the solution is the `groups · LANES` values at `layout`'s place in
    /// `src`.
    ///
    /// # Safety
    /// As [`TileIo::gather`], except that `src` must hold every point
    /// `layout` places; `mask` must hold `nx·ny` entries, and `G` must be
    /// [`TileIo::groups`].
    unsafe fn scatter<V: LaneF64, C: Coefs, const G: usize>(
        &mut self,
        dims: (usize, usize),
        src: &[f64],
        layout: Layout,
        mask: Option<C>,
    );
}

/// One tile × `groups · LANES` right-hand sides, in place inside lane-major
/// [`pop_comm::MultiBlockVec`] storage. `psi`/`x` start at the tile's first
/// interior lane group of lane group 0; lane group `g`'s tile sits `g ·
/// gstride` elements later, and each advances `stride` `f64` elements per
/// tile row (block stride · `LANES`).
pub(super) struct Batched<'a> {
    pub psi: &'a [f64],
    pub x: &'a mut [f64],
    pub stride: usize,
    pub gstride: usize,
    pub groups: usize,
}

impl TileIo for Batched<'_> {
    fn groups(&self) -> usize {
        self.groups
    }

    fn assert_fits(&self, (nx, ny): (usize, usize)) {
        let end = (self.groups - 1) * self.gstride + (ny - 1) * self.stride + nx * LANES;
        assert!(end <= self.psi.len() && end <= self.x.len());
    }

    #[inline(always)]
    unsafe fn psi<'s, V: LaneF64>(
        &'s self,
        _: (usize, usize),
        _: &'s mut Vec<f64>,
    ) -> (&'s [f64], usize, usize) {
        (self.psi, self.stride, self.gstride)
    }

    #[inline(always)]
    unsafe fn gather<V: LaneF64>(
        &self,
        (nx, ny): (usize, usize),
        layout: Layout,
        dst: &mut Vec<f64>,
    ) {
        let sl = self.groups * LANES;
        dst.resize(nx * ny * sl, 0.0);
        for g in 0..self.groups {
            for j in 0..ny {
                for i in 0..nx {
                    let p = layout.point((nx, ny), i, j) * sl + g * LANES;
                    let s = g * self.gstride + j * self.stride + i * LANES;
                    dst[p..p + LANES].copy_from_slice(&self.psi[s..s + LANES]);
                }
            }
        }
    }

    #[inline(always)]
    unsafe fn scatter<V: LaneF64, C: Coefs, const G: usize>(
        &mut self,
        (nx, ny): (usize, usize),
        src: &[f64],
        layout: Layout,
        mask: Option<C>,
    ) {
        debug_assert_eq!(G, self.groups);
        let sl = G * LANES;
        for j in 0..ny {
            for i in 0..nx {
                // One mask word per point, shared by every lane.
                let m = mask.map(|m| m.at::<V>(j * nx + i));
                let s = src.as_ptr().add(layout.point((nx, ny), i, j) * sl);
                for gr in 0..G {
                    let v = V::load(s.add(gr * LANES));
                    m.map_or(v, |m| v.and_bits(m)).store(
                        self.x
                            .as_mut_ptr()
                            .add(gr * self.gstride + j * self.stride + i * LANES),
                    );
                }
            }
        }
    }
}

/// One lane's output: its tile's first point onwards, in block storage
/// other lanes may share, or `None` for a lane that is not stored.
pub(super) type LaneOut = Option<*mut [f64]>;

/// Four same-shape tiles × one right-hand side, staged through a 4×4
/// transpose between the rows of [`pop_comm::BlockVec`]s (four columns of
/// one tile per load) and the lane layout (one column of four tiles per
/// load). Each lane reads and writes its own tile, in its own block or in
/// one it shares with other lanes; an idle lane reads a live lane's `ψ` and
/// is not stored.
pub(super) struct Packed<'a> {
    /// Lane `l`'s `ψ`: its tile's first point onwards, rows `stride` apart.
    r: [&'a [f64]; LANES],
    /// Lane `l`'s output likewise, `None` for a lane that is not stored.
    z: [LaneOut; LANES],
    stride: usize,
    _z: PhantomData<&'a mut [f64]>,
}

impl<'a> Packed<'a> {
    /// # Safety
    /// Every `Some` in `z` must be valid for writes for `'a`, unaliased by
    /// `r` and by anything else used during `'a`, and the `nx × ny` tiles
    /// (rows `stride` apart) that different lanes store must not overlap.
    pub(super) unsafe fn new(r: [&'a [f64]; LANES], z: [LaneOut; LANES], stride: usize) -> Self {
        Packed {
            r,
            z,
            stride,
            _z: PhantomData,
        }
    }
}

impl TileIo for Packed<'_> {
    #[inline(always)]
    fn groups(&self) -> usize {
        1
    }

    fn assert_fits(&self, (nx, ny): (usize, usize)) {
        assert!(nx <= self.stride);
        let end = (ny - 1) * self.stride + nx;
        assert!(self.r.iter().all(|r| end <= r.len()));
        assert!(self.z.iter().flatten().all(|z| end <= z.len()));
    }

    #[inline(always)]
    unsafe fn psi<'s, V: LaneF64>(
        &'s self,
        dims: (usize, usize),
        buf: &'s mut Vec<f64>,
    ) -> (&'s [f64], usize, usize) {
        self.gather::<V>(dims, Layout::Rows(dims.0), buf);
        (&buf[..], dims.0 * LANES, 0)
    }

    #[inline(always)]
    unsafe fn gather<V: LaneF64>(
        &self,
        (nx, ny): (usize, usize),
        layout: Layout,
        dst: &mut Vec<f64>,
    ) {
        dst.resize(nx * ny * LANES, 0.0);
        let base = dst.as_mut_ptr();
        let out = |i: usize, j: usize| {
            let p = layout.point((nx, ny), i, j);
            debug_assert!(p < nx * ny);
            base.add(p * LANES)
        };
        for j in 0..ny {
            // (Plain loops over the lanes: `array::map` does not inline
            // into a `target_feature` caller.)
            let mut row = [self.r[0].as_ptr(); LANES];
            for (t, r) in row.iter_mut().zip(self.r) {
                *t = r[j * self.stride..][..nx].as_ptr();
            }
            let mut i = 0;
            while i + LANES <= nx {
                let rows = [
                    V::load(row[0].add(i)),
                    V::load(row[1].add(i)),
                    V::load(row[2].add(i)),
                    V::load(row[3].add(i)),
                ];
                for (c, v) in V::transpose4(rows).into_iter().enumerate() {
                    v.store(out(i + c, j));
                }
                i += LANES;
            }
            for i in i..nx {
                for (l, t) in row.iter().enumerate() {
                    *out(i, j).add(l) = *t.add(i);
                }
            }
        }
    }

    #[inline(always)]
    unsafe fn scatter<V: LaneF64, C: Coefs, const G: usize>(
        &mut self,
        (nx, ny): (usize, usize),
        src: &[f64],
        layout: Layout,
        mask: Option<C>,
    ) {
        debug_assert_eq!(G, 1);
        let col = |j: usize, i: usize| {
            let v = V::load(src.as_ptr().add(layout.point((nx, ny), i, j) * LANES));
            mask.map_or(v, |m| v.and_bits(m.at::<V>(j * nx + i)))
        };
        // `assert_fits` held every stored row inside its lane's storage.
        let out = self.z.map(|z| z.map(|z| z.cast::<f64>()));
        for j in 0..ny {
            let row = j * self.stride;
            let mut i = 0;
            while i + LANES <= nx {
                let cols = [col(j, i), col(j, i + 1), col(j, i + 2), col(j, i + 3)];
                for (v, z) in V::transpose4(cols).into_iter().zip(out) {
                    if let Some(z) = z {
                        v.store(z.add(row + i));
                    }
                }
                i += LANES;
            }
            for i in i..nx {
                let mut t = [0.0; LANES];
                col(j, i).store(t.as_mut_ptr());
                for (v, z) in t.into_iter().zip(out) {
                    if let Some(z) = z {
                        *z.add(row + i) = v;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The jobs
// ---------------------------------------------------------------------------
//
// Each is a [`LaneJob`] for `pop_simd::dispatch`; whoever builds one checks
// every length its body indexes unchecked. `use_fma` is the CPU property
// [`pop_simd::detected_fma`], read where the job is built: the AVX2 lanes
// only run where it is true, and the portable `mul_add` is `f64::mul_add`.

/// One tile solve.
struct Solve<'a, C, Io> {
    dims: (usize, usize),
    coefs: TileCoefs<C>,
    io: Io,
    scratch: &'a mut EvpScratch,
    use_fma: bool,
}

impl<C: Coefs, Io: TileIo> Solve<'_, C, Io> {
    /// The solve with `G` lane groups riding the lanes.
    ///
    /// # Safety
    /// [`LaneJob::run`]'s contract for `V`, and `G == self.io.groups()`.
    #[inline(always)]
    unsafe fn solve<V: LaneF64, const G: usize>(self) {
        let Solve {
            dims: (nx, ny),
            coefs,
            mut io,
            scratch,
            use_fma,
        } = self;
        let sl = G * LANES;
        let EvpScratch {
            xpad,
            g,
            fvals,
            corr,
            tile,
        } = scratch;
        match coefs {
            TileCoefs::March {
                reduced,
                planes,
                r_inv,
            } => {
                let psi = io.psi::<V>((nx, ny), tile);
                march_solve::<V, C, G>(
                    (nx, ny),
                    reduced,
                    planes,
                    r_inv,
                    psi,
                    (xpad, g, fvals, corr),
                    use_fma,
                );
                // The interior of the pad starts one row and one point in.
                let xs = (nx + 2) * sl;
                io.scatter::<V, C, G>((nx, ny), &xpad[xs + sl..], Layout::Rows(nx + 2), None);
            }
            TileCoefs::Band {
                reduced,
                w,
                band,
                mask,
            } => {
                // Staged straight into the factor's order, and back out of it.
                let layout = Layout::band(reduced, nx);
                io.gather::<V>((nx, ny), layout, tile);
                band_solve::<V, C, G>(nx * ny, w, band, tile, use_fma);
                io.scatter::<V, C, G>((nx, ny), tile, layout, Some(mask));
            }
        }
    }
}

impl<C: Coefs, Io: TileIo> LaneJob for Solve<'_, C, Io> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: LaneF64>(self) {
        // `solve_tile` holds `groups()` to `1..=MAX_GROUPS`; a pack's is the
        // constant 1, so only the `G = 1` arm survives inlining there.
        match self.io.groups() {
            1 => self.solve::<V, 1>(),
            2 => self.solve::<V, 2>(),
            3 => self.solve::<V, 3>(),
            4 => self.solve::<V, 4>(),
            g => unreachable!("{g} lane groups: a tile solve takes 1..={MAX_GROUPS}"),
        }
    }
}

/// The set-up sweeps of one marching tile: its influence matrix `W`, column
/// `c` the overshoot on the ring line `f` of a unit guess on `e[c]` with
/// `ψ = 0` — four columns per sweep, one unit guess per lane.
struct Influence<'a> {
    plan: &'a MarchPlan,
    w: &'a mut DenseMatrix,
    scratch: &'a mut EvpScratch,
    use_fma: bool,
}

impl LaneJob for Influence<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: LaneF64>(self) {
        let Influence {
            plan,
            w,
            scratch,
            use_fma,
        } = self;
        let (nx, ny) = (plan.nx, plan.ny);
        let EvpScratch { xpad, g, tile, .. } = scratch;
        xpad.resize((nx + 2) * (ny + 2) * LANES, 0.0);
        g.resize(nx * LANES, 0.0);
        // One zero row of ψ, read for every tile row (row stride 0).
        tile.clear();
        tile.resize(nx * LANES, 0.0);
        for c0 in (0..w.n()).step_by(LANES) {
            reset_march_pad::<V>(xpad, nx, ny, 1);
            let cols = e_line(nx, ny).skip(c0).take(LANES);
            for (l, ek) in cols.enumerate() {
                xpad[ek * LANES + l] = 1.0;
            }
            // `influence_matrix` checked the planes' length; the pads are
            // sized above and `ψ` is one row of `nx` lane groups.
            let planes = Shared(&plan.c);
            let psi = (&tile[..], 0, 0);
            march_sweep::<V, _, 1>((nx, ny), plan.reduced, planes, xpad, psi, g, use_fma);
            for (r, fk) in f_line(nx, ny).enumerate() {
                for c in c0..w.n().min(c0 + LANES) {
                    w.set(r, c, xpad[fk * LANES + c - c0]);
                }
            }
        }
    }
}

/// Solve one `nx × ny` tile — or one pack of them — on the lanes `io`
/// describes, with the kernels `mode` selects.
///
/// Panics unless `coefs` holds exactly an `nx × ny` tile's arrays and `io`
/// addresses `nx × ny` points inside its storage — the lengths every
/// unchecked access below this point relies on.
pub(super) fn solve_tile<C: Coefs, Io: TileIo>(
    mode: SimdMode,
    dims: (usize, usize),
    coefs: TileCoefs<C>,
    io: Io,
    scratch: &mut EvpScratch,
) {
    let (n, k) = (dims.0 * dims.1, dims.0 + dims.1 - 1);
    let lens = coefs.map(Coefs::len).arrays();
    let want = match coefs {
        TileCoefs::March { reduced, .. } => [planes(reduced) * n, k * k],
        TileCoefs::Band { w, .. } => [n * (2 * w + 1), n],
    };
    assert_eq!(lens, want, "tile arrays do not fit a {dims:?} tile");
    assert!((1..=MAX_GROUPS).contains(&io.groups()));
    io.assert_fits(dims);
    let solve = Solve {
        dims,
        coefs,
        io,
        scratch,
        use_fma: pop_simd::detected_fma(),
    };
    pop_simd::dispatch(mode, solve);
}

/// March out the influence matrix `W` of `plan`'s tile (`F = W·E`: the
/// overshoot on the Dirichlet ring is linear in the guess error), four unit
/// guesses per lane sweep. Each lane's sweep is the solve's own, so `W` is
/// bit for bit the matrix one unit guess at a time would give.
pub(super) fn influence_matrix(
    mode: SimdMode,
    plan: &MarchPlan,
    scratch: &mut EvpScratch,
) -> DenseMatrix {
    // The length `march_sweep` indexes the planes inside, unchecked.
    assert_eq!(plan.c.len(), planes(plan.reduced) * plan.nx * plan.ny);
    let mut w = DenseMatrix::zeros(plan.nx + plan.ny - 1);
    let job = Influence {
        plan,
        w: &mut w,
        scratch,
        use_fma: pop_simd::detected_fma(),
    };
    pop_simd::dispatch(mode, job);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::evp::tests::{modes, seeded_tile};
    use crate::precond::EvpSubBlock;
    use pop_comm::{BlockVec, MultiBlockVec};

    /// `corr = R·f` on its own, `G` lane groups wide.
    struct Fold<'a, const G: usize> {
        r_inv: &'a [f64],
        f: &'a [f64],
        corr: &'a mut [f64],
    }

    impl<const G: usize> LaneJob for Fold<'_, G> {
        type Out = ();

        unsafe fn run<V: LaneF64>(self) {
            let k = self.f.len() / (G * LANES);
            assert_eq!((self.r_inv.len(), self.corr.len()), (k * k, self.f.len()));
            influence::<V, _, G>(Shared(self.r_inv), k, self.f, self.corr)
        }
    }

    /// Fold `−0.0` overshoots at `G` lane groups in every mode; every entry
    /// must come out `+0.0`.
    fn fold_negative_zeros<const G: usize>() {
        let k = 7;
        let r_inv: Vec<f64> = (0..k * k).map(|q| 1.0 + q as f64).collect();
        let f = vec![-0.0; k * G * LANES];
        for mode in modes() {
            let mut corr = vec![1.0; f.len()];
            let job = Fold::<G> {
                r_inv: &r_inv,
                f: &f,
                corr: &mut corr,
            };
            pop_simd::dispatch(mode, job);
            for (q, v) in corr.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    0.0f64.to_bits(),
                    "G={G} {mode:?} entry {q}: {v:?}"
                );
            }
        }
    }

    /// Every mode folds a row from `+0.0`: products that are all `−0.0` sum
    /// to `+0.0`, never to the `−0.0` an `Iterator::sum` fold starts from —
    /// whether four, two or one output rows are in flight, at every
    /// lane-group count.
    #[test]
    fn influence_folds_from_positive_zero_in_every_mode() {
        fold_negative_zeros::<1>();
        fold_negative_zeros::<2>();
        fold_negative_zeros::<3>();
        fold_negative_zeros::<4>();
        assert_eq!(MAX_GROUPS, 4, "one call per lane-group count");
    }

    fn lane_rhs(n: usize, lane_salt: usize) -> Vec<f64> {
        (0..n)
            .map(|k| {
                let q = k.wrapping_mul(2654435761).wrapping_add(lane_salt * 977);
                (q % 1000) as f64 / 500.0 - 1.0
            })
            .collect()
    }

    /// The batched tile solve is bitwise identical, per lane, to the scalar
    /// reference solve — marching and band-LU tiles (with live axis
    /// couplings, so the full system's extra terms count), a ragged shape,
    /// reduced and full systems, every group count up to [`MAX_GROUPS`]
    /// (each its own instance of the kernels), every dispatch mode this
    /// machine supports.
    #[test]
    fn batched_tile_solve_matches_single_rhs_bitwise() {
        let mut scratch = EvpScratch::default();
        for (nx, ny) in [(8, 8), (7, 5)] {
            for (land, reduced) in [(0, true), (0, false), (3, true), (3, false)] {
                let sub = EvpSubBlock::new(&seeded_tile(nx, ny, 41, land), reduced);
                assert_eq!(sub.uses_marching(), land == 0);
                for groups in 1..=MAX_GROUPS {
                    // Seeded per-lane right-hand sides loaded into a multi
                    // block whose tile starts at the interior origin.
                    let mut rm = MultiBlockVec::zeros(nx, ny, 2, groups);
                    let mut singles = Vec::new();
                    for l in 0..groups * LANES {
                        let psi = lane_rhs(nx * ny, l);
                        let mut b = BlockVec::zeros(nx, ny, 2);
                        for j in 0..ny {
                            for i in 0..nx {
                                b.set(i, j, psi[j * nx + i]);
                            }
                        }
                        rm.load_lane(l / LANES, l % LANES, &b);
                        singles.push(psi);
                    }
                    let wants: Vec<Vec<f64>> = singles
                        .iter()
                        .map(|psi| {
                            let mut want = vec![0.0; nx * ny];
                            sub.solve_reference(psi, &mut want);
                            want
                        })
                        .collect();
                    for mode in modes() {
                        let mut zm = MultiBlockVec::zeros(nx, ny, 2, groups);
                        let off = rm.offset(0, 0, 0);
                        let io = Batched {
                            psi: &rm.raw()[off..],
                            x: &mut zm.raw_mut()[off..],
                            stride: rm.stride() * LANES,
                            gstride: rm.rows() * rm.stride() * LANES,
                            groups,
                        };
                        sub.solve_batched(mode, io, &mut scratch);
                        for (l, want) in wants.iter().enumerate() {
                            for j in 0..ny {
                                for i in 0..nx {
                                    let got = zm.at(l / LANES, l % LANES, i as isize, j as isize);
                                    assert_eq!(
                                        got.to_bits(),
                                        want[j * nx + i].to_bits(),
                                        "mode {mode:?} {nx}x{ny} reduced={reduced} land={land} \
                                         groups={groups} lane {l} ({i},{j}): {got:e} vs {:e}",
                                        want[j * nx + i]
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
