//! SIMD substrate for the barotropic solver kernels.
//!
//! The hot kernels — the fused 9-point stencil sweeps and the EVP tile
//! solve — are each written once as a [`LaneJob`]: a body generic over the
//! 4-lane [`LaneF64`] trait. There are two lane types, [`Portable4`] (plain
//! `[f64; 4]` arithmetic the compiler may or may not vectorize) and, on
//! x86-64, the private `Avx2` (`std::arch` 256-bit intrinsics), and one
//! place that picks between them: [`dispatch`]. The only scalar kernel code
//! is a lane kernel's ragged-tail loop; the scalar *references* tests
//! compare against (`NinePoint::apply_reference`,
//! `EvpSubBlock::solve_reference`, …) live beside the kernels they pin.
//!
//! ## Dispatch
//!
//! The lane type is chosen **once at startup** by [`mode`]:
//! `POP_BARO_SIMD={auto,avx2,portable}` (default `auto`) combined with
//! runtime CPU-feature detection. `auto` picks AVX2 when the CPU has it,
//! the portable lanes otherwise; `avx2` on a machine without AVX2 warns and
//! falls back to `portable` rather than faulting. Tests and
//! micro-benchmarks that need to compare the two in-process can override
//! the choice with [`force_mode`], or hand [`dispatch`] a [`SimdMode`]
//! directly — it checks the CPU itself before it runs an AVX2 instruction.
//!
//! ## Bitwise determinism
//!
//! Every kernel vectorizes *lane-parallel across independent outputs*
//! (grid columns, tiles, right-hand sides): each lane executes exactly the
//! scalar reference's instruction sequence for its own output point — same
//! operations, same association order, no FMA contraction, no horizontal
//! reductions. IEEE 754 basic operations (`+ − × ÷`) are correctly rounded
//! per lane, so both lane types are **bitwise identical** to the scalar
//! reference, and the serial/threaded/ranksim determinism guarantees of the
//! solver stack are preserved under either dispatch choice. An
//! order-sensitive chain is never split across lanes: dot and norm partial
//! sums stay scalar chains on both lane types, and the EVP recurrences put a
//! different tile or right-hand side in each lane
//! ([`LaneF64::transpose4`] stages them), each lane still running its own
//! scalar sequence.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Lane width of the kernel layer: four `f64`s (one 256-bit AVX2 register).
pub const LANES: usize = 4;

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Which lane type the kernels run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// [`Portable4`]: `[f64; 4]` arithmetic.
    Portable,
    /// The private `Avx2` lanes: 256-bit intrinsics.
    Avx2,
}

impl SimdMode {
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Portable => "portable",
            SimdMode::Avx2 => "avx2",
        }
    }
}

/// Can this CPU run the AVX2 lanes — AVX2, and FMA for
/// [`LaneF64::mul_add`]? (Every AVX2 CPU shipped has FMA too; always `false`
/// off x86-64.)
pub fn detected_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Does this CPU support scalar FMA? (Always `false` off x86-64.)
///
/// This gates code whose every dispatch mode makes the same choice — the EVP
/// chain recurrence contracts `g − h·y` to `fma(−h, y, g)`, and the band-LU
/// substitutions `acc + (−f)·x` to `fma(−f, x, acc)`, on an FMA CPU in the
/// scalar reference and on both lane types alike ([`LaneF64::mul_add`] is
/// the lane image of `f64::mul_add`), so results depend on the CPU, never
/// on the mode. No other lane kernel uses FMA: they match plain scalar
/// `mul`/`add` per lane.
pub fn detected_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A bounds-check-free window `&s[at..at + len]` for kernel row slicing.
/// The hot kernels carve a dozen row windows per grid row; the arithmetic
/// behind `at`/`len` is validated once per block (and re-checked here in
/// debug builds), so release builds skip the per-window bounds checks.
///
/// # Safety
/// `at + len <= s.len()`.
#[inline(always)]
pub unsafe fn window(s: &[f64], at: usize, len: usize) -> &[f64] {
    debug_assert!(at + len <= s.len());
    // SAFETY: the caller guarantees the window lies inside `s`, whose
    // lifetime the result keeps.
    std::slice::from_raw_parts(s.as_ptr().add(at), len)
}

fn mode_from_env() -> SimdMode {
    let auto = || {
        if detected_avx2() {
            SimdMode::Avx2
        } else {
            SimdMode::Portable
        }
    };
    let req = std::env::var("POP_BARO_SIMD").unwrap_or_default();
    match req.to_ascii_lowercase().as_str() {
        "" | "auto" => auto(),
        "portable" => SimdMode::Portable,
        "avx2" => {
            if detected_avx2() {
                SimdMode::Avx2
            } else {
                eprintln!(
                    "[pop-simd] POP_BARO_SIMD=avx2 requested but the CPU has no AVX2; \
                     using portable 4-lane kernels"
                );
                SimdMode::Portable
            }
        }
        other => {
            eprintln!("[pop-simd] unknown POP_BARO_SIMD value {other:?}; using auto dispatch");
            auto()
        }
    }
}

static DEFAULT_MODE: OnceLock<SimdMode> = OnceLock::new();
/// 0 = no override, otherwise `SimdMode as u8 + 1`.
static FORCED_MODE: AtomicU8 = AtomicU8::new(0);

/// The dispatch choice for this process: the [`force_mode`] override if one
/// is set, otherwise the environment/CPU decision, made once and cached.
pub fn mode() -> SimdMode {
    match FORCED_MODE.load(Ordering::Relaxed) {
        1 => SimdMode::Portable,
        2 => SimdMode::Avx2,
        _ => *DEFAULT_MODE.get_or_init(mode_from_env),
    }
}

/// Override the dispatch choice process-wide (`None` restores the startup
/// decision). This is a hook for equivalence tests and micro-benchmarks
/// that must run *both* lane types in one process; production code
/// configures dispatch through `POP_BARO_SIMD` instead.
///
/// Panics if `Some(Avx2)` is forced on a machine without AVX2 — as
/// [`dispatch`] would on the first kernel, but at the call that asked.
pub fn force_mode(m: Option<SimdMode>) {
    let v = match m {
        None => 0,
        Some(SimdMode::Portable) => 1,
        Some(SimdMode::Avx2) => {
            assert_avx2();
            2
        }
    };
    FORCED_MODE.store(v, Ordering::Relaxed);
}

/// Panic unless the AVX2 lanes can run here: executing them on another
/// CPU would be undefined behaviour, not a slow path.
fn assert_avx2() {
    assert!(
        detected_avx2(),
        "cannot force AVX2 dispatch: CPU lacks AVX2"
    );
}

// ---------------------------------------------------------------------------
// The 4-lane f64 vector abstraction
// ---------------------------------------------------------------------------

/// Four `f64` lanes with IEEE 754 basic arithmetic.
///
/// Kernels written against this trait perform, in each lane, exactly the
/// operation sequence of the corresponding scalar reference — the contract
/// that makes lane kernels bitwise equal to it. No implementation may fuse
/// multiply-add (outside `mul_add`) or reorder operands.
///
/// # Safety
///
/// `load`/`store` are raw unaligned pointer accesses: the caller must
/// guarantee `p .. p+4` is in bounds. The AVX2 implementation additionally
/// only executes on CPUs with AVX2 and FMA, which [`dispatch`] guarantees.
pub trait LaneF64: Copy {
    /// # Safety
    /// `p .. p+LANES` must be readable.
    unsafe fn load(p: *const f64) -> Self;
    /// # Safety
    /// `p .. p+LANES` must be writable.
    unsafe fn store(self, p: *mut f64);
    fn splat(v: f64) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    /// Lanewise bitwise AND of the representations — the branch-free land
    /// mask: `and_bits(v, ALL_ONES) == v` (bit-exact), `and_bits(v, 0.0)
    /// == +0.0`.
    fn and_bits(self, o: Self) -> Self;
    /// The mask words of the four bytes at `p`: a nonzero byte gives
    /// [`MASK_OCEAN`], a zero one [`MASK_LAND`] — lane for lane the word
    /// [`mask_word`] gives, built in a register so that a branch-free land
    /// mask streams one byte per point instead of eight.
    ///
    /// # Safety
    /// `p .. p+LANES` must be readable.
    unsafe fn load_mask(p: *const u8) -> Self;
    /// Lanewise fused multiply-add `self * a + b` with a **single**
    /// rounding, the lane image of scalar `f64::mul_add`. This is the one
    /// deliberate exception to the "no fusion" rule: kernels may call it
    /// only where the scalar reference path also runs `mul_add` under the
    /// same (mode-independent) condition — the EVP chain recurrence and band
    /// substitutions, gated on [`detected_fma`] — so scalar↔SIMD bitwise
    /// identity still holds. Implementations must never substitute
    /// `mul`+`add`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// The 4×4 transpose: lane `l` of output `c` is lane `c` of `rows[l]`.
    /// Pure data movement — how four tiles' rows become one value per tile
    /// in each lane, and back.
    fn transpose4(rows: [Self; LANES]) -> [Self; LANES];
}

/// Portable `[f64; 4]` lanes: straight-line Rust the compiler is free to
/// autovectorize; semantics are the per-lane scalar operations by
/// construction.
#[derive(Clone, Copy)]
pub struct Portable4([f64; 4]);

impl LaneF64 for Portable4 {
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: the caller guarantees `p .. p+4` readable; an `f64`
        // pointer derived from a slice is 8-byte aligned.
        Portable4([p.read(), p.add(1).read(), p.add(2).read(), p.add(3).read()])
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: the caller guarantees `p .. p+4` writable.
        p.write(self.0[0]);
        p.add(1).write(self.0[1]);
        p.add(2).write(self.0[2]);
        p.add(3).write(self.0[3]);
    }

    #[inline(always)]
    fn splat(v: f64) -> Self {
        Portable4([v; 4])
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        let a = self.0;
        let b = o.0;
        Portable4([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        let a = self.0;
        let b = o.0;
        Portable4([a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]])
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        let a = self.0;
        let b = o.0;
        Portable4([a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]])
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        let a = self.0;
        let b = o.0;
        Portable4([a[0] / b[0], a[1] / b[1], a[2] / b[2], a[3] / b[3]])
    }

    #[inline(always)]
    fn and_bits(self, o: Self) -> Self {
        let a = self.0;
        let b = o.0;
        Portable4([
            f64::from_bits(a[0].to_bits() & b[0].to_bits()),
            f64::from_bits(a[1].to_bits() & b[1].to_bits()),
            f64::from_bits(a[2].to_bits() & b[2].to_bits()),
            f64::from_bits(a[3].to_bits() & b[3].to_bits()),
        ])
    }

    #[inline(always)]
    unsafe fn load_mask(p: *const u8) -> Self {
        // SAFETY: the caller guarantees `p .. p+4` readable.
        Portable4(std::array::from_fn(|k| mask_word(p.add(k).read())))
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        let x = self.0;
        let y = a.0;
        let z = b.0;
        Portable4([
            x[0].mul_add(y[0], z[0]),
            x[1].mul_add(y[1], z[1]),
            x[2].mul_add(y[2], z[2]),
            x[3].mul_add(y[3], z[3]),
        ])
    }

    #[inline(always)]
    fn transpose4(rows: [Self; LANES]) -> [Self; LANES] {
        std::array::from_fn(|c| Portable4(std::array::from_fn(|l| rows[l].0[c])))
    }
}

/// AVX2 lanes: one `__m256d` register. Every method is a single VEX
/// instruction with per-lane IEEE semantics identical to the scalar op
/// (`vaddpd`/`vsubpd`/`vmulpd`/`vdivpd`/`vandpd`); the only fused one is
/// `mul_add` (`vfmadd213pd`).
///
/// Private, and that is what makes its safe methods sound: outside this
/// crate the type can only be reached as the `V` of a [`LaneJob::run`]
/// that [`dispatch`] started after checking [`detected_avx2`]; inside it,
/// only `run_avx2` and the unit tests (which make the same check) name it.
/// Each `unsafe` block below relies on exactly that — the CPU has AVX2 and
/// FMA — and on nothing else: the intrinsics are pure register operations.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx2(std::arch::x86_64::__m256d);

#[cfg(target_arch = "x86_64")]
impl LaneF64 for Avx2 {
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: the caller guarantees `p .. p+4` readable; `vmovupd` has
        // no alignment requirement.
        Avx2(std::arch::x86_64::_mm256_loadu_pd(p))
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: the caller guarantees `p .. p+4` writable.
        std::arch::x86_64::_mm256_storeu_pd(p, self.0);
    }

    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: AVX2 CPU (see the type's docs).
        unsafe { Avx2(std::arch::x86_64::_mm256_set1_pd(v)) }
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: AVX2 CPU (see the type's docs).
        unsafe { Avx2(std::arch::x86_64::_mm256_add_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: AVX2 CPU (see the type's docs).
        unsafe { Avx2(std::arch::x86_64::_mm256_sub_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: AVX2 CPU (see the type's docs).
        unsafe { Avx2(std::arch::x86_64::_mm256_mul_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: AVX2 CPU (see the type's docs).
        unsafe { Avx2(std::arch::x86_64::_mm256_div_pd(self.0, o.0)) }
    }

    #[inline(always)]
    fn and_bits(self, o: Self) -> Self {
        // SAFETY: AVX2 CPU (see the type's docs).
        unsafe { Avx2(std::arch::x86_64::_mm256_and_pd(self.0, o.0)) }
    }

    #[inline(always)]
    unsafe fn load_mask(p: *const u8) -> Self {
        use std::arch::x86_64::{
            _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_cvtepu8_epi64, _mm256_setzero_si256,
            _mm_cvtsi32_si128,
        };
        // SAFETY: the caller guarantees `p .. p+4` readable (read
        // unaligned); AVX2 CPU for the rest (see the type's docs). The
        // bytes widen to 64-bit lanes (`vpmovzxbq`), where "greater than
        // zero" is "nonzero" and the compare writes all-ones or zero.
        let bytes = _mm_cvtsi32_si128(p.cast::<i32>().read_unaligned());
        let wide = _mm256_cvtepu8_epi64(bytes);
        Avx2(_mm256_castsi256_pd(_mm256_cmpgt_epi64(
            wide,
            _mm256_setzero_si256(),
        )))
    }

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: `vfmadd213pd` needs FMA, which `detected_avx2` requires
        // alongside AVX2 (see the type's docs).
        unsafe { Avx2(std::arch::x86_64::_mm256_fmadd_pd(self.0, a.0, b.0)) }
    }

    #[inline(always)]
    fn transpose4(rows: [Self; LANES]) -> [Self; LANES] {
        use std::arch::x86_64::{_mm256_permute2f128_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd};
        let [r0, r1, r2, r3] = rows;
        // SAFETY: AVX2 CPU (see the type's docs); register shuffles only.
        unsafe {
            // Pair up within 128-bit halves, then swap the halves across.
            let (lo01, hi01) = (
                _mm256_unpacklo_pd(r0.0, r1.0),
                _mm256_unpackhi_pd(r0.0, r1.0),
            );
            let (lo23, hi23) = (
                _mm256_unpacklo_pd(r2.0, r3.0),
                _mm256_unpackhi_pd(r2.0, r3.0),
            );
            [
                Avx2(_mm256_permute2f128_pd(lo01, lo23, 0x20)),
                Avx2(_mm256_permute2f128_pd(hi01, hi23, 0x20)),
                Avx2(_mm256_permute2f128_pd(lo01, lo23, 0x31)),
                Avx2(_mm256_permute2f128_pd(hi01, hi23, 0x31)),
            ]
        }
    }
}

// ---------------------------------------------------------------------------
// One kernel body, run on the lanes a mode selects
// ---------------------------------------------------------------------------

/// A kernel body generic over the lane type, for [`dispatch`] to run.
///
/// A job is a value: its constructor checks every length the body indexes
/// unchecked, so that holding one is the proof `run` needs and [`dispatch`]
/// can stay a safe function.
pub trait LaneJob {
    type Out;

    /// # Safety
    /// With the AVX2 lanes for `V` the caller must be executing under the
    /// `avx2` and `fma` target features on a CPU that has them.
    /// ([`dispatch`] is the one caller outside tests; no other crate can
    /// name that lane type.)
    unsafe fn run<V: LaneF64>(self) -> Self::Out;
}

/// The workspace's one `#[target_feature]` function: a job's
/// `#[inline(always)]` body inlined here is compiled with VEX encodings.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<J: LaneJob>(job: J) -> J::Out {
    job.run::<Avx2>()
}

/// Run `job` on the lane type `mode` names — the only place a [`SimdMode`]
/// becomes a lane type. Panics on [`SimdMode::Avx2`] where
/// [`detected_avx2`] is false (std caches the CPUID probe, so the check is
/// an atomic load per kernel call): a `SimdMode` is a plain value any caller
/// can write down, and this function is safe.
pub fn dispatch<J: LaneJob>(mode: SimdMode, job: J) -> J::Out {
    if mode == SimdMode::Avx2 {
        assert_avx2();
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 and FMA were detected on the line above.
        return unsafe { run_avx2(job) };
    }
    // SAFETY: portable lanes are plain `f64` arithmetic (`mul_add` is
    // `f64::mul_add`) and need no CPU feature.
    unsafe { job.run::<Portable4>() }
}

// ---------------------------------------------------------------------------
// Branch-free masks
// ---------------------------------------------------------------------------

/// The all-ones ocean mask word: `and_bits(v, MASK_OCEAN)` is `v`
/// bit-exactly.
pub const MASK_OCEAN: f64 = f64::from_bits(u64::MAX);
/// The land mask word: `and_bits(v, MASK_LAND)` is `+0.0`.
pub const MASK_LAND: f64 = 0.0;

/// The mask word of one land/ocean byte: nonzero ↦ [`MASK_OCEAN`], zero ↦
/// [`MASK_LAND`]. The nine-point sweeps build these in registers
/// ([`LaneF64::load_mask`]) from the layout's bytes.
#[inline(always)]
pub fn mask_word(m: u8) -> f64 {
    if m != 0 {
        MASK_OCEAN
    } else {
        MASK_LAND
    }
}

/// Expand a `u8` land/ocean mask into stored `f64` mask words — what a
/// band-LU tile keeps per point for its branch-free substitutions.
pub fn mask_bits(mask: &[u8]) -> Vec<f64> {
    mask.iter().map(|&m| mask_word(m)).collect()
}

// ---------------------------------------------------------------------------
// Aligned storage
// ---------------------------------------------------------------------------

/// One 32-byte-aligned lane group. `Vec<Lane32>` is therefore 32-byte
/// aligned storage without any allocator shims or external crates.
#[derive(Clone, Copy, Default)]
#[repr(C, align(32))]
struct Lane32([f64; LANES]);

/// A fixed-length `f64` buffer whose base pointer is 32-byte aligned (one
/// AVX2 register row), backed by `Vec<[f64; 4]>` groups.
///
/// Grows never; `BlockVec`-style owners size it once at construction.
/// Exposes plain `&[f64]` / `&mut [f64]` views so scalar code is
/// unaffected by the alignment guarantee.
#[derive(Clone)]
pub struct AlignedVec {
    chunks: Vec<Lane32>,
    len: usize,
}

impl AlignedVec {
    /// A zeroed buffer of exactly `len` elements (the backing store is
    /// rounded up to whole lane groups; the surplus is never exposed).
    pub fn zeros(len: usize) -> Self {
        AlignedVec {
            chunks: vec![Lane32::default(); len.div_ceil(LANES)],
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: `Lane32` is `repr(C)` around `[f64; LANES]` with no
        // padding (32 bytes, align 32), so `chunks` is `chunks.len()·LANES`
        // contiguous initialised `f64`s, and `zeros` sized it so that
        // `len ≤ chunks.len()·LANES`.
        debug_assert!(self.len <= self.chunks.len() * LANES);
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr().cast::<f64>(), self.len) }
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as `as_slice`; `&mut self` makes the view unique.
        debug_assert!(self.len <= self.chunks.len() * LANES);
        unsafe { std::slice::from_raw_parts_mut(self.chunks.as_mut_ptr().cast::<f64>(), self.len) }
    }
}

impl std::ops::Deref for AlignedVec {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_vec_is_32_byte_aligned_and_zeroed() {
        for len in [0usize, 1, 3, 4, 5, 31, 64, 1000] {
            let v = AlignedVec::zeros(len);
            assert_eq!(v.len(), len);
            assert!(v.as_slice().iter().all(|&x| x == 0.0));
            if len > 0 {
                assert_eq!(v.as_slice().as_ptr() as usize % 32, 0, "len {len}");
            }
        }
    }

    #[test]
    fn aligned_vec_roundtrips_writes() {
        let mut v = AlignedVec::zeros(13);
        for (i, x) in v.as_mut_slice().iter_mut().enumerate() {
            *x = i as f64 + 0.5;
        }
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(w[12], 12.5);
    }

    #[test]
    fn mask_bits_expand_to_and_masks() {
        let bits = mask_bits(&[0, 1, 2, 0]);
        let probe = -3.25f64;
        let sel = |m: f64| -> f64 { f64::from_bits(probe.to_bits() & m.to_bits()) };
        assert_eq!(sel(bits[0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sel(bits[1]).to_bits(), probe.to_bits());
        assert_eq!(sel(bits[2]).to_bits(), probe.to_bits());
        assert_eq!(sel(bits[3]).to_bits(), 0.0f64.to_bits());
    }

    /// `load_mask` gives exactly the stored word of `mask_bits` for every
    /// byte value in every lane, on both lane types, and ANDing with it
    /// keeps an ocean value's bits (NaN payloads and `-0.0` included) and
    /// gives `+0.0` on land.
    #[test]
    fn load_mask_expands_every_byte_to_its_mask_word() {
        fn check<V: LaneF64>() {
            let bytes: Vec<u8> = (0..=255).collect();
            let words = mask_bits(&bytes);
            let probes = [
                f64::from_bits(0x7ff8_0000_dead_beef),
                f64::from_bits(0xfff0_0000_0000_0001),
                -0.0,
                -3.25,
            ];
            for b in 0..=255u8 {
                // The byte in each lane in turn, its neighbours other bytes.
                for lane in 0..LANES {
                    let mut four: [u8; LANES] = std::array::from_fn(|k| b.wrapping_add(k as u8));
                    four.swap(0, lane);
                    // SAFETY: the caller checked the CPU for `V`; every load
                    // and store is of a whole local array.
                    let (got, masked) = unsafe {
                        let m = V::load_mask(four.as_ptr());
                        let mut got = [0.0f64; LANES];
                        m.store(got.as_mut_ptr());
                        let mut masked = [0.0f64; LANES];
                        V::load(probes.as_ptr())
                            .and_bits(m)
                            .store(masked.as_mut_ptr());
                        (got, masked)
                    };
                    for k in 0..LANES {
                        let word = words[four[k] as usize];
                        assert_eq!(
                            got[k].to_bits(),
                            word.to_bits(),
                            "byte {} lane {k}",
                            four[k]
                        );
                        let want = if four[k] != 0 { probes[k] } else { 0.0 };
                        assert_eq!(
                            masked[k].to_bits(),
                            want.to_bits(),
                            "byte {} lane {k}",
                            four[k]
                        );
                    }
                }
            }
        }
        check::<Portable4>();
        #[cfg(target_arch = "x86_64")]
        if detected_avx2() {
            check::<Avx2>();
        }
    }

    #[test]
    fn portable_lanes_match_scalar_ops_bitwise() {
        let a = [1.5e-300, -2.25, 3.5, f64::MAX / 2.0];
        let b = [7.0, -0.3, 1e200, 3.0];
        type ScalarOp = fn(f64, f64) -> f64;
        // SAFETY: every load and store is of a whole `[f64; 4]` local.
        unsafe {
            let va = Portable4::load(a.as_ptr());
            let vb = Portable4::load(b.as_ptr());
            let mut out = [0.0f64; 4];
            let cases: [(Portable4, ScalarOp); 4] = [
                (Portable4::add(va, vb), |x, y| x + y),
                (Portable4::sub(va, vb), |x, y| x - y),
                (Portable4::mul(va, vb), |x, y| x * y),
                (Portable4::div(va, vb), |x, y| x / y),
            ];
            for (op, sc) in cases {
                op.store(out.as_mut_ptr());
                for k in 0..4 {
                    assert_eq!(out[k].to_bits(), sc(a[k], b[k]).to_bits());
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_lanes_match_scalar_ops_bitwise() {
        if !detected_avx2() {
            return;
        }
        let a = [1.5e-300, -2.25, 3.5, f64::MAX / 2.0];
        let b = [7.0, -0.3, 1e200, 3.0];
        type ScalarOp = fn(f64, f64) -> f64;
        // SAFETY: AVX2 was detected above; every load and store is of a
        // whole `[f64; 4]` local.
        unsafe {
            let va = Avx2::load(a.as_ptr());
            let vb = Avx2::load(b.as_ptr());
            let mut out = [0.0f64; 4];
            let cases: [(Avx2, ScalarOp); 4] = [
                (Avx2::add(va, vb), |x, y| x + y),
                (Avx2::sub(va, vb), |x, y| x - y),
                (Avx2::mul(va, vb), |x, y| x * y),
                (Avx2::div(va, vb), |x, y| x / y),
            ];
            for (op, sc) in cases {
                op.store(out.as_mut_ptr());
                for k in 0..4 {
                    assert_eq!(out[k].to_bits(), sc(a[k], b[k]).to_bits());
                }
            }
        }
    }

    /// `transpose4` is the 4×4 transpose in both instantiations, signed
    /// zeros and NaN payloads included (it must never touch the values).
    #[test]
    fn transpose4_moves_lane_c_of_row_l_to_lane_l_of_output_c() {
        fn check<V: LaneF64>() {
            let mut m = [[0.0f64; 4]; 4];
            for (l, row) in m.iter_mut().enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = f64::from_bits(0x7ff8_0000_0000_0100 + (4 * l + c) as u64);
                }
            }
            m[1][2] = -0.0;
            // SAFETY: the caller checked the CPU for `V`; every load and
            // store is of a whole `[f64; 4]` local.
            unsafe {
                let out = V::transpose4(std::array::from_fn(|l| V::load(m[l].as_ptr())));
                for (c, v) in out.iter().enumerate() {
                    let mut got = [0.0f64; 4];
                    v.store(got.as_mut_ptr());
                    for l in 0..4 {
                        assert_eq!(got[l].to_bits(), m[l][c].to_bits(), "out {c} lane {l}");
                    }
                }
            }
        }
        check::<Portable4>();
        #[cfg(target_arch = "x86_64")]
        if detected_avx2() {
            check::<Avx2>();
        }
    }

    #[test]
    fn dispatch_honours_force_override() {
        let before = mode();
        force_mode(Some(SimdMode::Portable));
        assert_eq!(mode(), SimdMode::Portable);
        if detected_avx2() {
            force_mode(Some(SimdMode::Avx2));
            assert_eq!(mode(), SimdMode::Avx2);
        }
        force_mode(None);
        assert_eq!(mode(), before);
    }

    /// Reports the lane type it was run on.
    struct LaneName;

    impl LaneJob for LaneName {
        type Out = &'static str;

        unsafe fn run<V: LaneF64>(self) -> &'static str {
            std::any::type_name::<V>()
        }
    }

    #[test]
    fn dispatch_runs_the_lane_type_the_mode_names() {
        assert!(dispatch(SimdMode::Portable, LaneName).ends_with("Portable4"));
        if detected_avx2() {
            assert!(dispatch(SimdMode::Avx2, LaneName).ends_with("Avx2"));
        }
    }

    /// `SimdMode::Avx2` is a value safe code can write on any machine; where
    /// the CPU cannot run the lanes, `dispatch` must refuse, not execute.
    #[test]
    fn dispatch_refuses_avx2_on_a_cpu_without_it() {
        if detected_avx2() {
            return;
        }
        let refused = std::panic::catch_unwind(|| dispatch(SimdMode::Avx2, LaneName));
        let msg = *refused
            .expect_err("AVX2 dispatch ran")
            .downcast::<&str>()
            .expect("assert message");
        assert_eq!(msg, "cannot force AVX2 dispatch: CPU lacks AVX2");
    }
}
