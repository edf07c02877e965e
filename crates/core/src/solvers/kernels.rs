//! The per-block kernels of the solver recurrences.
//!
//! Each recurrence (`csi.rs`, `chrongear.rs`) is one loop generic over
//! `T: TileKernels`, instantiated on [`BlockVec`] for one right-hand side
//! and on [`MultiBlockVec`] for a `k`-wide batch. What differs between the
//! two widths lives behind this trait: the stencil and preconditioner
//! calls, the masked dot products, and the lane plumbing of per-RHS
//! control (copy, finite check, gather, scatter of one lane — the whole
//! tile for a [`BlockVec`]). This is the only solver module that names a
//! lane kernel.
//!
//! The stencil, preconditioner and dot calls stay two families: the
//! point-vectorised kernels are the faster ones for one right-hand side, the
//! lane-vectorised ones for a batch. Every lane kernel repeats the point
//! kernel's exact per-point operation order in each lane, with per-lane
//! scalars, which is what keeps every lane of a batch bitwise on its
//! single-RHS trajectory (`tests/batch_equivalence.rs`).
//!
//! The pointwise vector updates are one family. A [`BlockVec`] interior row
//! is `nx` contiguous values sharing one scalar; a [`MultiBlockVec`] lane
//! row is `nx · LANES` contiguous values whose scalars repeat every `LANES`
//! values. So each update is one [`Update`] body over `LANES`-wide vectors,
//! and [`update`] runs it over every interior row of either tile type.
//!
//! # Widths and scalars
//!
//! A tile carries `w` values per point: 1 for a [`BlockVec`], the batch's
//! slot count for a [`MultiBlockVec`]. Per-lane recurrence scalars are
//! passed as `w`-long slices (slot `s` drives lane `s`), and per-block
//! partial sums are written in bands of `w` slots: band `j` of a kernel's
//! output is `out[j * w..(j + 1) * w]`, so one reduction row carries every
//! lane's partials.
//!
//! # Block temporaries
//!
//! A vector that one group's kernel both writes and consumes — P-CSI's
//! `z = M⁻¹r`, and its residual in a deferred sweep — never needs a
//! whole-field home: [`with_temps`] lends the kernel a pair of this
//! thread's tiles of the group's block shape per member instead, so the
//! sweep streams only the vectors that outlive it.

use crate::precond::Preconditioner;
use pop_comm::tile::extent;
use pop_comm::{masked_block_dot, masked_dot_multi, BlockVec, MultiBlockVec, Tile};
use pop_simd::{LaneF64, LaneJob, LANES, MASK_LAND, MASK_OCEAN};
use pop_stencil::NinePoint;
use std::cell::RefCell;
use std::marker::PhantomData;

/// What a solver recurrence does to one block of one tile type, where the
/// two widths differ. See the [module docs](self) for the width and
/// partial-band conventions.
pub(crate) trait TileKernels: Tile {
    /// `r = b − A x` over block `bk`'s interior, `‖r‖²` per lane in
    /// `out[..w]`. `x`'s halo must be current.
    fn residual(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self, out: &mut [f64]);

    /// [`TileKernels::residual`] without the `‖r‖²` fold: the same `r`
    /// bits, for a sweep whose norm nobody reads.
    fn residual_no_norm(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self);

    /// `y = A x` with `rᵀx` in band 0 of `out` and `yᵀx` in band 1:
    /// ChronGear's `ρ̃` and `δ̃`.
    fn apply_dots(op: &NinePoint, bk: usize, x: &Self, y: &mut Self, r: &Self, out: &mut [f64]);

    /// `z[m] = M⁻¹ r[m]` over the interior of every member `m` of one
    /// sweep group (block `first + m`) handed in.
    fn precond_group(
        pre: &dyn Preconditioner,
        first: usize,
        r: [Option<&Self>; LANES],
        z: [Option<&mut Self>; LANES],
    );

    /// Masked `aᵀb` per lane into `out[..w]`, in row-major ocean-point
    /// order (the canonical per-block partial).
    fn dot(a: &Self, b: &Self, mask: &[u8], out: &mut [f64]);

    /// Copy lane `slot` of `src` into `dst` (interior and halo).
    fn lane_copy(src: &Self, dst: &mut Self, slot: usize);

    /// Does every value of lane `slot` (halo included) stay finite?
    fn lane_finite(&self, slot: usize) -> bool;

    /// Copy lane `slot` out into a single-RHS tile (full storage).
    fn store_lane(&self, slot: usize, dst: &mut BlockVec);

    /// Copy a single-RHS tile into lane `slot` (full storage).
    fn load_lane(&mut self, slot: usize, src: &BlockVec);

    /// This tile kind's shelf of a thread's [`BlockTemps`].
    fn shelf(temps: &mut BlockTemps) -> &mut Vec<(TempKey, GroupTemps<Self>)>;
}

// ---------------------------------------------------------------------------
// One right-hand side: the point-vectorised kernels
// ---------------------------------------------------------------------------

impl TileKernels for BlockVec {
    #[inline]
    fn residual(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self, out: &mut [f64]) {
        out[0] = op.residual_block_into(bk, x, b, r, &op.layout.masks[bk]);
    }

    #[inline]
    fn residual_no_norm(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self) {
        op.residual_block_no_norm_into(bk, x, b, r, &op.layout.masks[bk]);
    }

    #[inline]
    fn apply_dots(op: &NinePoint, bk: usize, x: &Self, y: &mut Self, r: &Self, out: &mut [f64]) {
        let mask = &op.layout.masks[bk];
        out[..2].copy_from_slice(&op.apply_block_dots_into(bk, x, y, r, mask));
    }

    #[inline]
    fn precond_group(
        pre: &dyn Preconditioner,
        first: usize,
        r: [Option<&Self>; LANES],
        z: [Option<&mut Self>; LANES],
    ) {
        pre.apply_group(first, r, z);
    }

    #[inline]
    fn dot(a: &Self, b: &Self, mask: &[u8], out: &mut [f64]) {
        out[0] = masked_block_dot(a, b, mask);
    }

    fn lane_copy(src: &Self, dst: &mut Self, _slot: usize) {
        dst.raw_mut().copy_from_slice(src.raw());
    }

    fn lane_finite(&self, _slot: usize) -> bool {
        self.raw().iter().all(|v| v.is_finite())
    }

    fn store_lane(&self, _slot: usize, dst: &mut BlockVec) {
        dst.raw_mut().copy_from_slice(self.raw());
    }

    fn load_lane(&mut self, _slot: usize, src: &BlockVec) {
        self.raw_mut().copy_from_slice(src.raw());
    }

    fn shelf(temps: &mut BlockTemps) -> &mut Vec<(TempKey, GroupTemps<Self>)> {
        &mut temps.single
    }
}

// ---------------------------------------------------------------------------
// A batch: the lane-vectorised kernels
// ---------------------------------------------------------------------------

/// Flat index range of lane-group `g`'s storage in a multi-tile.
#[inline]
fn group_range(mb: &MultiBlockVec, g: usize) -> std::ops::Range<usize> {
    let glen = mb.rows() * mb.stride() * LANES;
    g * glen..(g + 1) * glen
}

/// Lane `slot`'s values in `t`'s storage: one every `LANES` floats of its
/// group's image.
#[inline]
fn lane_values(t: &MultiBlockVec, slot: usize) -> impl Iterator<Item = &f64> {
    t.raw()[group_range(t, slot / LANES)]
        .iter()
        .skip(slot % LANES)
        .step_by(LANES)
}

/// Mutable [`lane_values`].
#[inline]
fn lane_values_mut(t: &mut MultiBlockVec, slot: usize) -> impl Iterator<Item = &mut f64> {
    let r = group_range(t, slot / LANES);
    t.raw_mut()[r].iter_mut().skip(slot % LANES).step_by(LANES)
}

impl TileKernels for MultiBlockVec {
    #[inline]
    fn residual(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self, out: &mut [f64]) {
        op.residual_block_multi(bk, x, b, r, out);
    }

    #[inline]
    fn residual_no_norm(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self) {
        op.residual_block_multi_no_norm(bk, x, b, r);
    }

    fn apply_dots(op: &NinePoint, bk: usize, x: &Self, y: &mut Self, r: &Self, out: &mut [f64]) {
        let (w, mask) = (x.groups() * LANES, &op.layout.masks[bk]);
        op.apply_block_multi(bk, x, y);
        masked_dot_multi(r, x, mask, &mut out[..w]);
        masked_dot_multi(y, x, mask, &mut out[w..2 * w]);
    }

    #[inline]
    fn precond_group(
        pre: &dyn Preconditioner,
        first: usize,
        r: [Option<&Self>; LANES],
        z: [Option<&mut Self>; LANES],
    ) {
        pre.apply_group_multi(first, r, z);
    }

    #[inline]
    fn dot(a: &Self, b: &Self, mask: &[u8], out: &mut [f64]) {
        masked_dot_multi(a, b, mask, out);
    }

    fn lane_copy(src: &Self, dst: &mut Self, slot: usize) {
        for (d, s) in lane_values_mut(dst, slot).zip(lane_values(src, slot)) {
            *d = *s;
        }
    }

    fn lane_finite(&self, slot: usize) -> bool {
        lane_values(self, slot).all(|v| v.is_finite())
    }

    fn store_lane(&self, slot: usize, dst: &mut BlockVec) {
        MultiBlockVec::store_lane(self, slot / LANES, slot % LANES, dst);
    }

    fn load_lane(&mut self, slot: usize, src: &BlockVec) {
        MultiBlockVec::load_lane(self, slot / LANES, slot % LANES, src);
    }

    fn shelf(temps: &mut BlockTemps) -> &mut Vec<(TempKey, GroupTemps<Self>)> {
        &mut temps.multi
    }
}

// ---------------------------------------------------------------------------
// Both widths: per-thread block temporaries
// ---------------------------------------------------------------------------

/// What a group's block temporaries are kept by: the tiles'
/// [`Tile::shape`] and their values per point.
pub(crate) type TempKey = ((usize, usize, usize), usize);

/// One sweep group's block temporaries: a pair per member.
pub(crate) type GroupTemps<T> = [[T; 2]; LANES];

/// Shapes a thread keeps temporaries for, per tile kind: a layout has at
/// most four block shapes (interior, ragged east and north edges, their
/// corner), so two layouts solved alternately stay allocation-free. Past
/// it, the oldest shape goes.
const TEMP_SHAPES: usize = 8;

/// A thread's block temporaries, a shelf per tile kind.
#[derive(Default)]
pub(crate) struct BlockTemps {
    single: Vec<(TempKey, GroupTemps<BlockVec>)>,
    multi: Vec<(TempKey, GroupTemps<MultiBlockVec>)>,
}

thread_local! {
    static BLOCK_TEMPS: RefCell<BlockTemps> = RefCell::new(BlockTemps::default());
}

/// Run `f` on this thread's group temporaries — a pair per member — of
/// `shape` at `width` values per point, allocating them only on the
/// shape's first use here. Their contents are whatever the last borrower
/// left: a kernel must write every interior point it reads, and nothing
/// reads a temporary's halo ring (the pointwise updates mask it, a
/// preconditioner never reads its input's, a residual writes only the
/// interior). Call it only inside one group's kernel, never around a
/// communicator call: rank-runtime ranks are fibers sharing one OS thread,
/// and a second borrow panics.
pub(crate) fn with_temps<T: TileKernels>(
    shape: (usize, usize, usize),
    width: usize,
    f: impl FnOnce(&mut GroupTemps<T>),
) {
    BLOCK_TEMPS.with(|cell| {
        let temps = &mut *cell.borrow_mut();
        let shelf = T::shelf(temps);
        let key = (shape, width);
        let at = match shelf.iter().position(|(k, _)| *k == key) {
            Some(at) => at,
            None => {
                if shelf.len() == TEMP_SHAPES {
                    shelf.remove(0);
                }
                let (nx, ny, halo) = shape;
                let pair = || std::array::from_fn(|_| T::zeros(nx, ny, halo, width));
                shelf.push((key, std::array::from_fn(|_| pair())));
                shelf.len() - 1
            }
        };
        f(&mut shelf[at].1)
    })
}

/// The owned members' temporaries as a group apply takes them, slot `m`
/// of each array holding the pair of the `i`-th owned member at `temps[i]`
/// (so a rank owning some members uses the first pairs): the first of each pair to read,
/// the second to write.
pub(crate) fn split_temps<T>(
    temps: &mut GroupTemps<T>,
    owned: [bool; LANES],
) -> ([Option<&T>; LANES], [Option<&mut T>; LANES]) {
    let (mut read, mut write) = ([None; LANES], [(); LANES].map(|_| None));
    let members = owned.iter().enumerate().filter(|(_, &own)| own);
    for ([a, b], (m, _)) in temps.iter_mut().zip(members) {
        (read[m], write[m]) = (Some(&*a), Some(b));
    }
    (read, write)
}

// ---------------------------------------------------------------------------
// Both widths: the pointwise updates
// ---------------------------------------------------------------------------

/// One pointwise recurrence update: at each interior point, `R` operands
/// read, `W` operands read and rewritten and `S` per-slot scalars, `LANES`
/// values of each at a time, lane `l` of every argument in the same slot.
/// A body keeps the per-element order of the whole-field reference solve
/// (`tests/common/reference.rs`) with plain `mul`/`add`, never `mul_add` —
/// a lanewise chain has one possible operation sequence, so both lane types
/// give the same bits — in one fused pass per point: a row at a time through
/// two-operand `y ← x + b·y` / `y ← y + a·x` updates measured slower
/// (EXPERIMENTS.md "PR 24").
pub(crate) trait Update<const R: usize, const W: usize, const S: usize> {
    fn point<V: LaneF64>(read: [V; R], write: &mut [V; W], scalars: [V; S]);
}

/// P-CSI's start: `d = γ⁻¹ z ; Δx = d ; x += d`.
pub(crate) struct CsiStart;

impl Update<1, 2, 1> for CsiStart {
    #[inline(always)]
    fn point<V: LaneF64>([z]: [V; 1], [dx, x]: &mut [V; 2], [inv_gamma]: [V; 1]) {
        let d = z.mul(inv_gamma);
        *dx = d;
        *x = x.add(d);
    }
}

/// P-CSI's update: `d = Δx·c + ω·z ; Δx = d ; x += d`.
pub(crate) struct CsiUpdate;

impl Update<1, 2, 2> for CsiUpdate {
    #[inline(always)]
    fn point<V: LaneF64>([z]: [V; 1], [dx, x]: &mut [V; 2], [omega, c]: [V; 2]) {
        let d = dx.mul(c).add(omega.mul(z));
        *dx = d;
        *x = x.add(d);
    }
}

/// ChronGear's four recurrences:
/// `s = z + βs ; p = Az + βp ; x += αs ; r += (−α)p`.
pub(crate) struct ChronGearUpdate;

impl Update<2, 4, 3> for ChronGearUpdate {
    #[inline(always)]
    fn point<V: LaneF64>([z, az]: [V; 2], [s, p, x, r]: &mut [V; 4], [b, a, na]: [V; 3]) {
        let sv = z.add(b.mul(*s));
        let pv = az.add(b.mul(*p));
        *s = sv;
        *p = pv;
        *x = x.add(a.mul(sv));
        *r = r.add(na.mul(pv));
    }
}

/// The Lanczos estimate's residual step `r += (−α)·Ap`, in `DistVec::axpy`'s
/// per-element order (the whole-field reference loop's).
pub(crate) struct Axpy;

impl Update<1, 1, 1> for Axpy {
    #[inline(always)]
    fn point<V: LaneF64>([x]: [V; 1], [y]: &mut [V; 1], [a]: [V; 1]) {
        *y = y.add(a.mul(x));
    }
}

/// The Lanczos estimate's direction step `p = z + β·p`, in `DistVec::xpay`'s
/// per-element order (the whole-field reference loop's).
pub(crate) struct Xpay;

impl Update<1, 1, 1> for Xpay {
    #[inline(always)]
    fn point<V: LaneF64>([x]: [V; 1], [y]: &mut [V; 1], [a]: [V; 1]) {
        *y = x.add(a.mul(*y));
    }
}

/// Apply `U` at every interior point of same-shape tiles of either width:
/// `read` are only read, `write` are read and rewritten, and `scalars` are
/// per-slot arrays (slot 0 at width 1; `groups · LANES` slots for a batch).
/// Halo rings are never written (a ragged row's last load reaches into the
/// ring, and those lanes are cleared). One dispatched lane job per call.
pub(crate) fn update<T, U, const R: usize, const W: usize, const S: usize>(
    _: U,
    read: [&T; R],
    write: [&mut T; W],
    scalars: [&[f64]; S],
) where
    T: Tile,
    U: Update<R, W, S>,
{
    let (nx, ny, halo) = write[0].shape();
    let len = write[0].raw().len();
    let same = |t: &T| t.shape() == (nx, ny, halo) && t.raw().len() == len;
    assert!(
        read.iter().all(|t| same(t)) && write.iter().all(|t| same(t)),
        "pointwise update operands differ in shape"
    );
    let (stride, rows) = extent(nx, ny, halo);
    let image = rows * stride * T::POINT_WIDTH;
    assert!(
        halo >= 1 && (T::POINT_WIDTH == 1 || T::POINT_WIDTH == LANES) && len % image == 0,
        "tile storage does not match its shape, or has no halo ring"
    );
    let job = Sweep::<U, R, W, S> {
        read: read.map(|t| t.raw().as_ptr()),
        write: write.map(|t| t.raw_mut().as_mut_ptr()),
        scalars,
        shape: (nx, ny, halo),
        point: T::POINT_WIDTH,
        images: len / image,
        update: PhantomData,
    };
    pop_simd::dispatch(pop_simd::mode(), job);
}

/// [`update`]'s lane job. Built and run only inside [`update`], which holds
/// the operands' borrows throughout and checked that every operand stores
/// `images` images of `extent(shape)` points of `point` values each.
struct Sweep<'a, U, const R: usize, const W: usize, const S: usize> {
    read: [*const f64; R],
    write: [*mut f64; W],
    scalars: [&'a [f64]; S],
    shape: (usize, usize, usize),
    point: usize,
    images: usize,
    update: PhantomData<U>,
}

impl<U: Update<R, W, S>, const R: usize, const W: usize, const S: usize> LaneJob
    for Sweep<'_, U, R, W, S>
{
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: LaneF64>(self) {
        let (read, write, point, (nx, ny, halo)) = (self.read, self.write, self.point, self.shape);
        let (stride, rows) = extent(nx, ny, halo);
        let n = nx * point;
        let live: [f64; LANES] =
            std::array::from_fn(|l| if l < n % LANES { MASK_OCEAN } else { MASK_LAND });
        let live = V::load(live.as_ptr());
        let mut s = [V::splat(0.0); S];
        for g in 0..self.images {
            for (v, a) in s.iter_mut().zip(self.scalars) {
                // SAFETY: the slice is bounds-checked: `LANES` readable.
                *v = if point == 1 {
                    V::splat(a[0])
                } else {
                    V::load(a[g * LANES..][..LANES].as_ptr())
                };
            }
            for j in 0..ny {
                let row = ((g * rows + j + halo) * stride + halo) * point;
                // SAFETY: `update` checked that every operand holds `images`
                // images of `rows × stride` points of `point` values: row `j`
                // of image `g` is the `n` values from `row`, followed in its
                // image by `halo · (stride + 1) ≥ 4` ring values, so whole
                // vectors stay in the row and a ragged last one reaches at
                // most `LANES − 1` values into the ring.
                // One loop for whole and ragged vectors: its branch also stops
                // LLVM re-vectorising the portable lanes (≈ 1.4× slower).
                let mut i = 0;
                while i < n {
                    let at = row + i;
                    if i + LANES <= n {
                        let wv = step::<V, U, R, W, S>(read, write, at, s, None);
                        for k in 0..W {
                            wv[k].store(write[k].add(at));
                        }
                    } else {
                        // The last `n − i` points, zero-padded; only they are stored.
                        let wv = step::<V, U, R, W, S>(read, write, at, s, Some(live));
                        let mut out = [[0.0; LANES]; W];
                        for k in 0..W {
                            wv[k].store(out[k].as_mut_ptr());
                        }
                        #[allow(clippy::needless_range_loop)] // guarded: no `memcpy`
                        for l in 0..LANES {
                            if l < n - i {
                                for k in 0..W {
                                    *write[k].add(at + l) = out[k][l];
                                }
                            }
                        }
                    }
                    i += LANES;
                }
            }
        }
    }
}

/// `U` on the `LANES` values at offset `at` of every operand (masked by
/// `live`, if given), returning the written operands' new values. Plain
/// loops, no closures: a closure is compiled without the lane type's target
/// features, so the lane operations inside it would not inline.
///
/// # Safety
/// `r[k] + at .. + LANES` and `w[k] + at .. + LANES` must be readable for
/// every `k`, and `V` must be runnable on this CPU.
#[inline(always)]
unsafe fn step<V, U, const R: usize, const W: usize, const S: usize>(
    r: [*const f64; R],
    w: [*mut f64; W],
    at: usize,
    s: [V; S],
    live: Option<V>,
) -> [V; W]
where
    V: LaneF64,
    U: Update<R, W, S>,
{
    let (mut rv, mut wv) = ([V::splat(0.0); R], [V::splat(0.0); W]);
    for k in 0..R {
        rv[k] = V::load(r[k].add(at));
    }
    for k in 0..W {
        wv[k] = V::load(w[k].add(at));
    }
    if let Some(live) = live {
        for v in rv.iter_mut().chain(wv.iter_mut()) {
            *v = v.and_bits(live);
        }
    }
    U::point(rv, &mut wv, s);
    wv
}

#[cfg(test)]
mod tests;
