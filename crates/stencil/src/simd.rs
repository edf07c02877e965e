//! Column-lane kernels for the fused 9-point apply, apply-with-dots and
//! residual.
//!
//! The nine-point row sweep over a [`BlockVec`] is written once
//! ([`Sweep`], a [`LaneJob`]): each of the four lanes computes one grid
//! column's output with the *exact* operation sequence of
//! `NinePoint::apply_reference` — the nine products summed in the same
//! fixed order, no FMA, no horizontal ops — and the columns past the last
//! whole lane group run the same sequence in the scalar tail loop
//! ([`Rows::nine_scalar`]), the only scalar nine-point code there is. Land
//! masking is a lanewise bitwise AND with `f64` mask words built in
//! registers from the block's `u8` land/ocean bytes
//! (`LaneF64::load_mask`), equivalent bit-for-bit to the reference's
//! `if ocean { v } else { 0.0 }` select. What happens to a point's masked
//! `A·x` is the sweep's [`Epilogue`]: [`Store`] it, [`StoreDots`], or
//! subtract it from a right-hand side ([`Residual`]). `pop_simd::dispatch`
//! picks the lane type; both produce bitwise-identical blocks.
//!
//! The residual's masked `‖r‖²` partial and the two dot-product partials of
//! the apply-with-dots variant are order-sensitive running sums; they stay
//! scalar row-major chains — folded in right behind each lane group's
//! store, each term one lane of a vector product — so no reduction ever
//! depends on dispatch. Whether the residual folds its norm at all is a
//! compile-time choice (`Residual<NORM>`): a sweep whose norm nobody reads
//! runs the same body without the fold.

use pop_comm::tile::extent;
use pop_comm::{BlockVec, MultiBlockVec};
use pop_simd::{LaneF64, LaneJob, SimdMode, LANES};

/// The padded layout the flat kernels index a tile by. Every operand of one
/// block apply is read or written through windows computed from a single
/// shape (unchecked `pop_simd::window`s and raw lane stores), so operands
/// that disagree are out-of-bounds accesses, not wrong answers: the entry
/// points compare shapes with plain `assert!`-strength checks, in release
/// builds too — a few integer compares per block apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TileShape {
    pub nx: usize,
    pub ny: usize,
    pub halo: usize,
    pub stride: usize,
    /// `f64`s of storage; with the fields above it fixes the lane-group
    /// count of a [`MultiBlockVec`].
    pub len: usize,
}

impl TileShape {
    /// The shape of the operand the kernels take their indexing from,
    /// checked to describe its storage: a halo ring, and `(ny + 2·halo)`
    /// rows of `stride = nx + 2·halo` points ([`pop_comm::tile::extent`]).
    /// (`nx`, `ny` and `halo` are public fields of the tiles, so the tile's
    /// word is not taken for it.)
    pub(crate) fn of(x: &BlockVec) -> Self {
        Self::claimed(x).validated(1)
    }

    /// [`TileShape::of`] for a batched operand.
    pub(crate) fn of_multi(x: &MultiBlockVec) -> Self {
        Self::claimed_multi(x).validated(x.groups() * LANES)
    }

    /// The shape a tile claims to have (its public fields, unverified).
    fn claimed(v: &BlockVec) -> Self {
        Self::new(v.nx, v.ny, v.halo, v.stride(), v.raw().len())
    }

    fn claimed_multi(v: &MultiBlockVec) -> Self {
        Self::new(v.nx, v.ny, v.halo, v.stride(), v.raw().len())
    }

    fn new(nx: usize, ny: usize, halo: usize, stride: usize, len: usize) -> Self {
        TileShape {
            nx,
            ny,
            halo,
            stride,
            len,
        }
    }

    fn validated(self, width: usize) -> Self {
        assert!(self.halo >= 1, "stencil needs one halo layer");
        let (stride, rows) = extent(self.nx, self.ny, self.halo);
        assert!(
            self.stride == stride && self.len == rows * stride * width,
            "tile storage does not match its shape"
        );
        self
    }

    /// Panic unless the named operand has exactly this shape.
    pub(crate) fn check(self, name: &str, v: &BlockVec) {
        self.check_shape(name, Self::claimed(v));
    }

    /// [`TileShape::check`] for a batched operand.
    pub(crate) fn check_multi(self, name: &str, v: &MultiBlockVec) {
        self.check_shape(name, Self::claimed_multi(v));
    }

    fn check_shape(self, name: &str, got: TileShape) {
        if got != self {
            shape_mismatch(name, got, self);
        }
    }

    /// Panic unless a coefficient tile (one value per point, whatever the
    /// operand's width) has this shape's row stride and row count.
    pub(crate) fn check_coeff(self, tile: &BlockVec) {
        let rows = extent(self.nx, self.ny, self.halo).1;
        assert!(
            tile.stride() == self.stride && tile.raw().len() == rows * self.stride,
            "coefficient tile stride mismatch"
        );
    }

    /// Panic unless a per-point interior array (a mask) covers
    /// the interior exactly.
    pub(crate) fn check_interior_len(self, name: &str, len: usize) {
        assert!(len == self.nx * self.ny, "`{name}` length mismatch");
    }
}

#[cold]
#[inline(never)]
fn shape_mismatch(name: &str, got: TileShape, want: TileShape) -> ! {
    panic!("stencil operand `{name}` shape mismatch: {got:?}, expected {want:?}");
}

/// Borrowed views of one block's operands: padded solution/coefficient
/// storage (row stride `s`, halo `h`) and the block interior shape. Built
/// only from operands that passed [`TileShape::check`]. `xr` is a
/// [`BlockVec`]'s storage for the column-lane sweep and a
/// [`MultiBlockVec`]'s (`LANES` values per point) for the batched one.
pub(crate) struct StencilBlock<'a> {
    pub nx: usize,
    pub ny: usize,
    pub h: usize,
    pub s: usize,
    pub xr: &'a [f64],
    pub a0: &'a [f64],
    pub an: &'a [f64],
    pub ae: &'a [f64],
    pub ane: &'a [f64],
}

impl<'a> StencilBlock<'a> {
    /// Views of the operand `xr` and the coefficient tiles
    /// `[a0, an, ae, ane]`, every one of them checked to have `shape`.
    pub(crate) fn new(shape: TileShape, xr: &'a [f64], [a0, an, ae, ane]: [&'a [f64]; 4]) -> Self {
        StencilBlock {
            nx: shape.nx,
            ny: shape.ny,
            h: shape.halo,
            s: shape.stride,
            xr,
            a0,
            an,
            ae,
            ane,
        }
    }
}

/// The row windows the nine-term kernel reads: the `w`-suffixed coefficient
/// windows start one cell west, the solution rows are one cell wider on
/// each side (`xc[i + 1]` is `x(i, j)`).
struct Rows<'a> {
    a0r: &'a [f64],
    anr: &'a [f64],
    ans: &'a [f64],
    aew: &'a [f64],
    anew: &'a [f64],
    anesw: &'a [f64],
    xc: &'a [f64],
    xn: &'a [f64],
    xs: &'a [f64],
}

impl<'a> Rows<'a> {
    #[inline(always)]
    fn slice(blk: &StencilBlock<'a>, j: usize) -> (usize, Rows<'a>) {
        let (nx, h, s) = (blk.nx, blk.h, blk.s);
        let base = (j + h) * s + h;
        debug_assert!(j < blk.ny && h >= 1 && s >= nx + 2 * h);
        // SAFETY: the northmost window ends at `base + s + nx + 1 ≤`
        // storage length for every interior row `j < ny` of a halo-padded
        // block (`h ≥ 1`, `s ≥ nx + 2h`, `(ny + 2h)·s` floats — what
        // `TileShape::validated` asserted of the shape every slice in
        // `blk` was checked against), and the lowest starts at
        // `base − s − 1 ≥ 0`; every other window lies between.
        // (Debug-checked inside `window`.)
        let rows = unsafe {
            let w = pop_simd::window;
            Rows {
                a0r: w(blk.a0, base, nx),
                anr: w(blk.an, base, nx),
                ans: w(blk.an, base - s, nx),
                aew: w(blk.ae, base - 1, nx + 1),
                anew: w(blk.ane, base - 1, nx + 1),
                anesw: w(blk.ane, base - s - 1, nx + 1),
                xc: w(blk.xr, base - 1, nx + 2),
                xn: w(blk.xr, base + s - 1, nx + 2),
                xs: w(blk.xr, base - s - 1, nx + 2),
            }
        };
        (base, rows)
    }

    /// The nine products summed in the canonical order, scalar.
    #[inline(always)]
    fn nine_scalar(&self, i: usize) -> f64 {
        self.a0r[i] * self.xc[i + 1]
            + self.anr[i] * self.xn[i + 1]
            + self.ans[i] * self.xs[i + 1]
            + self.aew[i + 1] * self.xc[i + 2]
            + self.aew[i] * self.xc[i]
            + self.anew[i + 1] * self.xn[i + 2]
            + self.anesw[i + 1] * self.xs[i + 2]
            + self.anew[i] * self.xn[i]
            + self.anesw[i] * self.xs[i]
    }

    /// The nine products summed in the canonical order, four columns per
    /// lane group. Operation-for-operation the lane image of
    /// [`Rows::nine_scalar`].
    ///
    /// # Safety
    /// `i + LANES <= nx`, and [`LaneJob::run`]'s contract for `V`.
    #[inline(always)]
    unsafe fn nine_lanes<V: LaneF64>(&self, i: usize) -> V {
        // The widest load is `LANES` values from `i + 2` of an
        // `nx + 2`-long solution window.
        debug_assert!(i + LANES <= self.a0r.len() && self.xc.len() == self.a0r.len() + 2);
        let at = |s: &[f64], k: usize| V::load(s.as_ptr().add(k));
        let v = at(self.a0r, i).mul(at(self.xc, i + 1));
        let v = v.add(at(self.anr, i).mul(at(self.xn, i + 1)));
        let v = v.add(at(self.ans, i).mul(at(self.xs, i + 1)));
        let v = v.add(at(self.aew, i + 1).mul(at(self.xc, i + 2)));
        let v = v.add(at(self.aew, i).mul(at(self.xc, i)));
        let v = v.add(at(self.anew, i + 1).mul(at(self.xn, i + 2)));
        let v = v.add(at(self.anesw, i + 1).mul(at(self.xs, i + 2)));
        let v = v.add(at(self.anew, i).mul(at(self.xn, i)));
        v.add(at(self.anesw, i).mul(at(self.xs, i)))
    }
}

/// Branch-free masked select, the scalar image of `LaneF64::and_bits` with
/// the word `LaneF64::load_mask` builds from the byte `m`.
#[inline(always)]
fn and_select(v: f64, m: u8) -> f64 {
    f64::from_bits(v.to_bits() & pop_simd::mask_word(m).to_bits())
}

/// The fold mask at one lane group or point: the sweep's `folds` bytes
/// (nonzero = ocean) and the interior index `p`.
#[derive(Clone, Copy)]
struct FoldAt<'a> {
    folds: &'a [u8],
    p: usize,
}

impl FoldAt<'_> {
    /// The four terms from `p` with land's zeroed.
    ///
    /// # Safety
    /// `p + LANES ≤ folds.len()`, and [`LaneJob::run`]'s contract for `V`.
    #[inline(always)]
    unsafe fn lanes<V: LaneF64>(self, t: V) -> V {
        debug_assert!(self.p + LANES <= self.folds.len());
        // SAFETY: by this function's contract.
        t.and_bits(V::load_mask(self.folds.as_ptr().add(self.p)))
    }

    /// Is point `p` ocean?
    ///
    /// # Safety
    /// `p < folds.len()`.
    #[inline(always)]
    unsafe fn ocean(self) -> bool {
        debug_assert!(self.p < self.folds.len());
        // SAFETY: by this function's contract.
        *self.folds.get_unchecked(self.p) != 0
    }
}

// ---------------------------------------------------------------------------
// The sweep and its epilogues
// ---------------------------------------------------------------------------

/// What a [`Sweep`] stores at each interior point, given the point's masked
/// `A·x` (`+0.0` on land), and what it sums on the way. `at` is the point's
/// offset in the padded tile storage.
trait Epilogue {
    /// The four values to store from `at`.
    ///
    /// # Safety
    /// `at .. at + LANES` must lie inside one interior row of the shape the
    /// epilogue's tiles were checked against, and [`LaneJob::run`]'s
    /// contract for `V` holds.
    #[inline(always)]
    unsafe fn lanes<V: LaneF64>(&self, _at: usize, ax: V) -> V {
        ax
    }

    /// The value to store at one column of the ragged tail.
    #[inline(always)]
    fn point(&self, _at: usize, ax: f64) -> f64 {
        ax
    }

    /// The order-sensitive running sums over the lane group just stored
    /// from `at`, while it is hot: `out` is what was stored, `x` the
    /// operand there. Each point's term is one lane of a vector product
    /// (the scalar product's bits) with land's zeroed by `fold`, and only
    /// the adds stay on the scalar chain, in row-major order. Adding
    /// land's `+0.0` is adding nothing: a sum that starts at `+0.0` is
    /// never `-0.0` (round-to-nearest gives `a + (-a) = +0.0`), and
    /// `s + (+0.0)` is `s` bit for bit for every other `s`, NaN included.
    ///
    /// # Safety
    /// As [`Epilogue::lanes`], and `fold` must hold the interior index of
    /// the group's first point in that same row.
    #[inline(always)]
    unsafe fn fold_lanes<V: LaneF64>(&mut self, _at: usize, _fold: FoldAt, _out: V, _x: V) {}

    /// [`Epilogue::fold_lanes`] for one column of the ragged tail.
    ///
    /// # Safety
    /// `at` and `fold` must hold an interior point's storage offset and
    /// row-major index in the shape the epilogue's tiles and mask were
    /// checked against.
    #[inline(always)]
    unsafe fn fold(&mut self, _at: usize, _fold: FoldAt, _out: f64, _x: f64) {}
}

/// The four lanes of `v`, for the scalar chains.
///
/// # Safety
/// [`LaneJob::run`]'s contract for `V`.
#[inline(always)]
unsafe fn spill<V: LaneF64>(v: V) -> [f64; LANES] {
    let mut a = [0.0; LANES];
    // SAFETY: `a` is `LANES` long.
    v.store(a.as_mut_ptr());
    a
}

/// `y = A x`: the masked `A·x` itself, nothing summed.
struct Store;

impl Epilogue for Store {}

/// `y = A x`, plus the masked `[Σ r·x, Σ y·x]`: two independent scalar
/// chains in row-major ocean-point order — the order (and hence the bits)
/// of two `masked_block_dot` passes — that overlap each other and the next
/// lane group's stencil loads instead of costing two passes of their own.
struct StoreDots<'a> {
    r: &'a [f64],
    acc: [f64; 2],
}

impl Epilogue for StoreDots<'_> {
    #[inline(always)]
    unsafe fn fold_lanes<V: LaneF64>(&mut self, at: usize, fold: FoldAt, y: V, x: V) {
        debug_assert!(at + LANES <= self.r.len());
        // SAFETY: in bounds by this function's contract — `r` had its
        // shape checked where the sweep was built. Unchecked because these
        // reads sit in the sweep's innermost loop.
        let rx = spill(fold.lanes(V::load(self.r.as_ptr().add(at)).mul(x)));
        let yx = spill(fold.lanes(y.mul(x)));
        for k in 0..LANES {
            self.acc[0] += rx[k];
            self.acc[1] += yx[k];
        }
    }

    #[inline(always)]
    unsafe fn fold(&mut self, at: usize, fold: FoldAt, y: f64, x: f64) {
        debug_assert!(at < self.r.len());
        // SAFETY: as in `fold_lanes`.
        if fold.ocean() {
            self.acc[0] += *self.r.get_unchecked(at) * x;
            self.acc[1] += y * x;
        }
    }
}

/// `r = rhs − A x`, plus the masked `‖r‖²` when `NORM` (a sweep whose norm
/// nobody reads skips the fold, not the residual). Masking `A·x` before the
/// subtraction makes land produce `rhs − 0.0`, exactly the reference's land
/// branch.
struct Residual<'a, const NORM: bool> {
    rhs: &'a [f64],
    acc: f64,
}

impl<const NORM: bool> Epilogue for Residual<'_, NORM> {
    #[inline(always)]
    unsafe fn lanes<V: LaneF64>(&self, at: usize, ax: V) -> V {
        debug_assert!(at + LANES <= self.rhs.len());
        // SAFETY: in bounds by this function's contract.
        V::load(self.rhs.as_ptr().add(at)).sub(ax)
    }

    #[inline(always)]
    fn point(&self, at: usize, ax: f64) -> f64 {
        self.rhs[at] - ax
    }

    #[inline(always)]
    unsafe fn fold_lanes<V: LaneF64>(&mut self, _at: usize, fold: FoldAt, r: V, _x: V) {
        if NORM {
            // SAFETY: by this function's contract.
            for t in spill(fold.lanes(r.mul(r))) {
                self.acc += t;
            }
        }
    }

    #[inline(always)]
    unsafe fn fold(&mut self, _at: usize, fold: FoldAt, r: f64, _x: f64) {
        // SAFETY: by this function's contract.
        if NORM && fold.ocean() {
            self.acc += r * r;
        }
    }
}

/// The nine-point row sweep over one block into the tile `out`; hands its
/// epilogue back. Built only by [`apply`], [`apply_dots`] and [`residual`],
/// from a [`StencilBlock`], an output and epilogue tiles that were all
/// checked against one [`TileShape`], and two interior masks of that
/// shape as bytes (nonzero = ocean): `words`, which the stored `A·x` is
/// ANDed with, and `folds`, over whose ocean points the epilogue sums.
/// The mask bytes become AND-mask words in registers.
struct Sweep<'a, E> {
    blk: &'a StencilBlock<'a>,
    words: &'a [u8],
    folds: &'a [u8],
    out: &'a mut [f64],
    epi: E,
}

impl<E: Epilogue> LaneJob for Sweep<'_, E> {
    type Out = E;

    #[inline(always)]
    unsafe fn run<V: LaneF64>(self) -> E {
        let Sweep {
            blk,
            words,
            folds,
            out,
            mut epi,
        } = self;
        let nx = blk.nx;
        debug_assert!(words.len() == nx * blk.ny && folds.len() == nx * blk.ny);
        for j in 0..blk.ny {
            let (base, rows) = Rows::slice(blk, j);
            let mut i = 0;
            while i + LANES <= nx {
                let p = j * nx + i;
                debug_assert!(base + i + LANES <= out.len());
                // SAFETY: `i + LANES ≤ nx` keeps the loads inside the row
                // windows and the masks' row `j`, and `base + i .. + LANES`
                // inside interior row `j` of `out`, which has the block's
                // shape.
                unsafe {
                    let ax = rows.nine_lanes::<V>(i);
                    let ax = ax.and_bits(V::load_mask(words.as_ptr().add(p)));
                    let v = epi.lanes(base + i, ax);
                    v.store(out.as_mut_ptr().add(base + i));
                    let x = V::load(rows.xc.as_ptr().add(i + 1));
                    epi.fold_lanes(base + i, FoldAt { folds, p }, v, x);
                }
                i += LANES;
            }
            for k in i..nx {
                let p = j * nx + k;
                let v = epi.point(base + k, and_select(rows.nine_scalar(k), words[p]));
                out[base + k] = v;
                // SAFETY: `k < nx`: interior point `(k, j)`.
                unsafe { epi.fold(base + k, FoldAt { folds, p }, v, rows.xc[k + 1]) };
            }
        }
        epi
    }
}

/// Run `epi` over the block with stores masked by `words` and sums by
/// `folds`, after checking that each mask covers the block's interior (the
/// sweep reads them unchecked).
fn sweep<E: Epilogue>(
    mode: SimdMode,
    blk: &StencilBlock,
    out: &mut [f64],
    words: &[u8],
    folds: &[u8],
    epi: E,
) -> E {
    let n = blk.nx * blk.ny;
    assert!(words.len() == n && folds.len() == n, "mask length mismatch");
    pop_simd::dispatch(
        mode,
        Sweep {
            blk,
            words,
            folds,
            out,
            epi,
        },
    )
}

/// `y = A x` over the block's interior, masked by `words`.
pub(crate) fn apply(mode: SimdMode, blk: &StencilBlock, yr: &mut [f64], words: &[u8]) {
    sweep(mode, blk, yr, words, words, Store);
}

/// [`apply`] plus the `[Σ r·x, Σ y·x]` partials over `folds`' ocean points.
pub(crate) fn apply_dots(
    mode: SimdMode,
    blk: &StencilBlock,
    yr: &mut [f64],
    rr: &[f64],
    folds: &[u8],
    words: &[u8],
) -> [f64; 2] {
    let epi = StoreDots {
        r: rr,
        acc: [0.0; 2],
    };
    sweep(mode, blk, yr, words, folds, epi).acc
}

/// `r = rhs − A x` over the block's interior, `A x` masked by `words`, plus
/// the `‖r‖²` partial over `folds`' ocean points when `NORM` (`0.0`
/// otherwise).
pub(crate) fn residual<const NORM: bool>(
    mode: SimdMode,
    blk: &StencilBlock,
    rhs: &[f64],
    rr: &mut [f64],
    folds: &[u8],
    words: &[u8],
) -> f64 {
    let epi = Residual::<NORM> { rhs, acc: 0.0 };
    sweep(mode, blk, rr, words, folds, epi).acc
}
