//! Runtime-dispatched SIMD kernels for the ternary bit-plane distance and
//! the chunk-envelope lower bound.
//!
//! The ternary squared distance of Definitions 8/9 over packed planes is
//!
//! ```text
//! d² = 4·popcount((vp & gm) | (vm & gp))
//!    +   popcount(((vp | vm) ^ (gp | gm)) & present)
//! ```
//!
//! summed over `⌈dim/64⌉` words — pure bitwise logic plus popcounts, so it
//! vectorizes perfectly: every lane computes exact integer counts and the
//! final sum is the same `u64` no matter how the words are grouped. The
//! chunk lower bound ([`chunk_bound`]) has the same shape with a few more
//! logic ops per word. Every kernel here is therefore **bit-identical** to
//! the portable scalar loop by construction (and the `simd_equivalence`
//! differential suite checks it on every dimension shape).
//!
//! Dispatch is resolved at runtime, once, from CPU feature detection:
//!
//! * `x86_64` — AVX2 (4 words/step, vpshufb nibble-LUT popcount folded by
//!   `psadbw`), else SSE2 + `popcnt` (2 words/step logic, scalar counts),
//! * `aarch64` — NEON (2 words/step, `vcnt` byte counts),
//! * anywhere else, or when forced — the portable scalar word loop.
//!
//! [`force_kernel`] pins the choice (tests use it to keep the scalar
//! fallback exercised on every target and to diff kernels against each
//! other); forcing a kernel the CPU does not support is refused, so the
//! dispatch can never call an unsupported instruction.
// The crate denies unsafe code; this module is the sanctioned exception
// for `std::arch` intrinsics. Safety rests on two invariants, kept local:
// every `#[target_feature]` kernel is only reachable through `dispatch()`
// after the matching CPU feature was detected (or statically guaranteed),
// and every intrinsic touches memory only through `loadu` on in-bounds
// slice pointers.
#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// One of the ternary-distance kernel implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The portable scalar word loop (every target).
    Scalar,
    /// SSE2 128-bit logic with `popcnt` counts (`x86_64`).
    Sse2,
    /// AVX2 256-bit logic with vpshufb nibble-LUT popcount (`x86_64`).
    Avx2,
    /// NEON 128-bit logic with `vcnt` byte counts (`aarch64`).
    Neon,
}

/// Forced-kernel override: 0 = auto (detected), else `KernelKind` + 1.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Detected best kernel, resolved once per process.
static DETECTED: OnceLock<KernelKind> = OnceLock::new();

fn encode(k: KernelKind) -> u8 {
    match k {
        KernelKind::Scalar => 1,
        KernelKind::Sse2 => 2,
        KernelKind::Avx2 => 3,
        KernelKind::Neon => 4,
    }
}

fn decode(v: u8) -> Option<KernelKind> {
    match v {
        1 => Some(KernelKind::Scalar),
        2 => Some(KernelKind::Sse2),
        3 => Some(KernelKind::Avx2),
        4 => Some(KernelKind::Neon),
        _ => None,
    }
}

/// The kernels this CPU can run, always starting with
/// [`KernelKind::Scalar`].
pub fn available_kernels() -> Vec<KernelKind> {
    let mut kinds = vec![KernelKind::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is part of the x86_64 baseline; the SSE2 kernel's counts
        // additionally want the `popcnt` instruction.
        if is_x86_feature_detected!("popcnt") {
            kinds.push(KernelKind::Sse2);
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt") {
            kinds.push(KernelKind::Avx2);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is part of the aarch64 baseline.
        kinds.push(KernelKind::Neon);
    }
    kinds
}

fn detect() -> KernelKind {
    // The last (most capable) available kernel wins.
    *available_kernels()
        .last()
        .expect("available_kernels always contains Scalar")
}

/// The kernel the next distance evaluation will dispatch to: the forced
/// override if one is set, else the detected best for this CPU.
pub fn active_kernel() -> KernelKind {
    decode(FORCED.load(Ordering::Relaxed)).unwrap_or_else(|| *DETECTED.get_or_init(detect))
}

/// Pins dispatch to `kernel` (`None` restores auto-detection). Returns
/// `false` — leaving the current setting untouched — when this CPU cannot
/// run the requested kernel, so a forced kernel is always safe to call.
///
/// Process-global: concurrent matching threads all see the override. This
/// is a test/diagnostics hook, not a tuning API.
pub fn force_kernel(kernel: Option<KernelKind>) -> bool {
    match kernel {
        None => {
            FORCED.store(0, Ordering::Relaxed);
            true
        }
        Some(k) => {
            if !available_kernels().contains(&k) {
                return false;
            }
            FORCED.store(encode(k), Ordering::Relaxed);
            true
        }
    }
}

/// Ternary-plane squared distance over equal-length word slices, as an
/// exact integer: `4·|opposite-sign pairs| + |one-sided pairs|`.
///
/// `gp`/`gm` are one face's plus/minus planes; `vp`/`vm`/`pr` the packed
/// query's plus/minus/present masks. Dispatches to the active kernel.
///
/// # Panics
///
/// Panics (in debug builds) if the slices disagree in length.
#[inline]
pub(crate) fn d2_ternary(gp: &[u64], gm: &[u64], vp: &[u64], vm: &[u64], pr: &[u64]) -> u64 {
    debug_assert!(
        gp.len() == gm.len()
            && gp.len() == vp.len()
            && gp.len() == vm.len()
            && gp.len() == pr.len()
    );
    match active_kernel() {
        KernelKind::Scalar => d2_ternary_scalar(gp, gm, vp, vm, pr),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Sse2/Avx2 only become active after `available_kernels`
        // confirmed the CPU features (sse2 is the x86_64 baseline; popcnt
        // and avx2 are runtime-detected).
        KernelKind::Sse2 => unsafe { d2_ternary_sse2(gp, gm, vp, vm, pr) },
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => unsafe { d2_ternary_avx2(gp, gm, vp, vm, pr) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        KernelKind::Neon => unsafe { d2_ternary_neon(gp, gm, vp, vm, pr) },
        // A kernel for a foreign architecture can never be forced
        // (`available_kernels` refuses it) nor detected.
        #[allow(unreachable_patterns)]
        _ => d2_ternary_scalar(gp, gm, vp, vm, pr),
    }
}

/// The portable fallback: one word at a time, two popcounts per word.
pub(crate) fn d2_ternary_scalar(gp: &[u64], gm: &[u64], vp: &[u64], vm: &[u64], pr: &[u64]) -> u64 {
    let mut acc = 0u64;
    for w in 0..gp.len() {
        // Opposite signs: |v − g| = 2 ⟹ contributes 4. Query bits are
        // only set on present pairs, so no masking with `pr` is needed.
        let opp = (vp[w] & gm[w]) | (vm[w] & gp[w]);
        // Exactly one side nonzero: contributes 1. The face planes carry
        // bits on `*` pairs too, so mask those.
        let one = ((vp[w] | vm[w]) ^ (gp[w] | gm[w])) & pr[w];
        acc += 4 * u64::from(opp.count_ones()) + u64::from(one.count_ones());
    }
    acc
}

/// Nibble-LUT byte popcount folded to per-lane u64 sums (Mula's method):
/// per-byte counts (≤ 8, no overflow) summed by `psadbw` against zero.
///
/// # Safety
///
/// Requires the `avx2` CPU feature; `lut`/`low` must be the nibble
/// lookup table and `0x0f` byte mask.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn popcount_sad(
    v: std::arch::x86_64::__m256i,
    lut: std::arch::x86_64::__m256i,
    low: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    // Nibble-indexed byte counts; the shift crosses byte boundaries
    // but the low-nibble mask discards everything that leaked in.
    let lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low));
    let hi = _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi32::<4>(v), low));
    _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256())
}

/// Horizontal sum of the four u64 lanes.
///
/// # Safety
///
/// Requires the `avx2` CPU feature.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hsum(v: std::arch::x86_64::__m256i) -> u64 {
    use std::arch::x86_64::*;
    let s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    (_mm_cvtsi128_si64(s) as u64).wrapping_add(_mm_extract_epi64::<1>(s) as u64)
}

/// The AVX2 nibble lookup table for [`popcount_sad`].
///
/// # Safety
///
/// Requires the `avx2` CPU feature.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn popcount_lut() -> std::arch::x86_64::__m256i {
    std::arch::x86_64::_mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    )
}

/// AVX2: 4 words per step. Popcount is Mula's vpshufb nibble lookup
/// ([`popcount_sad`]) accumulated separately for the weight-4 and
/// weight-1 terms, with the scalar loop covering the ≤ 3 tail words.
///
/// # Safety
///
/// Requires the `avx2` and `popcnt` CPU features (the tail loop's
/// `count_ones`), and equal-length input slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn d2_ternary_avx2(gp: &[u64], gm: &[u64], vp: &[u64], vm: &[u64], pr: &[u64]) -> u64 {
    use std::arch::x86_64::*;

    let words = gp.len();
    let lut = popcount_lut();
    let low = _mm256_set1_epi8(0x0f);
    let mut acc_opp = _mm256_setzero_si256();
    let mut acc_one = _mm256_setzero_si256();
    let mut w = 0usize;
    while w + 4 <= words {
        // SAFETY: w + 4 ≤ len of every slice; unaligned loads.
        let gpv = _mm256_loadu_si256(gp.as_ptr().add(w).cast());
        let gmv = _mm256_loadu_si256(gm.as_ptr().add(w).cast());
        let vpv = _mm256_loadu_si256(vp.as_ptr().add(w).cast());
        let vmv = _mm256_loadu_si256(vm.as_ptr().add(w).cast());
        let prv = _mm256_loadu_si256(pr.as_ptr().add(w).cast());
        let opp = _mm256_or_si256(_mm256_and_si256(vpv, gmv), _mm256_and_si256(vmv, gpv));
        let one = _mm256_and_si256(
            _mm256_xor_si256(_mm256_or_si256(vpv, vmv), _mm256_or_si256(gpv, gmv)),
            prv,
        );
        acc_opp = _mm256_add_epi64(acc_opp, popcount_sad(opp, lut, low));
        acc_one = _mm256_add_epi64(acc_one, popcount_sad(one, lut, low));
        w += 4;
    }

    let mut acc = 4 * hsum(acc_opp) + hsum(acc_one);
    if w < words {
        acc += d2_ternary_scalar(&gp[w..], &gm[w..], &vp[w..], &vm[w..], &pr[w..]);
    }
    acc
}

/// SSE2 + popcnt: 128-bit logic ops (halving the bitwise work versus the
/// scalar loop), counts taken per extracted u64 with hardware `popcnt`.
///
/// # Safety
///
/// Requires the `sse2` (x86_64 baseline) and `popcnt` CPU features, and
/// equal-length input slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2,popcnt")]
unsafe fn d2_ternary_sse2(gp: &[u64], gm: &[u64], vp: &[u64], vm: &[u64], pr: &[u64]) -> u64 {
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "sse2,popcnt")]
    unsafe fn popcount2(v: __m128i) -> u64 {
        use std::arch::x86_64::*;
        // `pextrq` is SSE4.1; `punpckhqdq` + `movq` keep this SSE2-only.
        let lo = _mm_cvtsi128_si64(v) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
        u64::from(lo.count_ones()) + u64::from(hi.count_ones())
    }

    let words = gp.len();
    let mut acc = 0u64;
    let mut w = 0usize;
    while w + 2 <= words {
        // SAFETY: w + 2 ≤ len of every slice; unaligned loads.
        let gpv = _mm_loadu_si128(gp.as_ptr().add(w).cast());
        let gmv = _mm_loadu_si128(gm.as_ptr().add(w).cast());
        let vpv = _mm_loadu_si128(vp.as_ptr().add(w).cast());
        let vmv = _mm_loadu_si128(vm.as_ptr().add(w).cast());
        let prv = _mm_loadu_si128(pr.as_ptr().add(w).cast());
        let opp = _mm_or_si128(_mm_and_si128(vpv, gmv), _mm_and_si128(vmv, gpv));
        let one = _mm_and_si128(
            _mm_xor_si128(_mm_or_si128(vpv, vmv), _mm_or_si128(gpv, gmv)),
            prv,
        );
        acc += 4 * popcount2(opp) + popcount2(one);
        w += 2;
    }
    if w < words {
        acc += d2_ternary_scalar(&gp[w..], &gm[w..], &vp[w..], &vm[w..], &pr[w..]);
    }
    acc
}

/// NEON: 2 words per step, `vcnt` per-byte popcounts folded by `vaddv`
/// (16 bytes × ≤ 8 bits = 128 fits the u8 horizontal sum).
///
/// # Safety
///
/// Requires the `neon` CPU feature (aarch64 baseline) and equal-length
/// input slices.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn d2_ternary_neon(gp: &[u64], gm: &[u64], vp: &[u64], vm: &[u64], pr: &[u64]) -> u64 {
    use std::arch::aarch64::*;

    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn popcount2(v: uint64x2_t) -> u64 {
        u64::from(vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v))))
    }

    let words = gp.len();
    let mut acc = 0u64;
    let mut w = 0usize;
    while w + 2 <= words {
        // SAFETY: w + 2 ≤ len of every slice; vld1q has no alignment
        // requirement beyond the element's.
        let gpv = vld1q_u64(gp.as_ptr().add(w));
        let gmv = vld1q_u64(gm.as_ptr().add(w));
        let vpv = vld1q_u64(vp.as_ptr().add(w));
        let vmv = vld1q_u64(vm.as_ptr().add(w));
        let prv = vld1q_u64(pr.as_ptr().add(w));
        let opp = vorrq_u64(vandq_u64(vpv, gmv), vandq_u64(vmv, gpv));
        let one = vandq_u64(veorq_u64(vorrq_u64(vpv, vmv), vorrq_u64(gpv, gmv)), prv);
        acc += 4 * popcount2(opp) + popcount2(one);
        w += 2;
    }
    if w < words {
        acc += d2_ternary_scalar(&gp[w..], &gm[w..], &vp[w..], &vm[w..], &pr[w..]);
    }
    acc
}

/// Sparse ternary distance: the dense sum restricted to `active` — the
/// word indices whose `present` mask is nonzero. Every distance term is
/// masked by a query plane (`vp`/`vm` for the weight-4 term, `pr` for the
/// weight-1 term) and the ternary planes satisfy `vp | vm ⊆ pr`, so words
/// outside `active` contribute exactly 0: the restricted sum is
/// bit-identical to [`d2_ternary`] over all words.
///
/// A gathered scalar loop on purpose — real sampling vectors hear a small
/// node group, leaving a handful of nonzero words scattered across
/// hundreds, and skipping the zero words beats any dense SIMD sweep.
///
/// # Panics
///
/// Panics if an index in `active` is out of range (slice indexing).
pub(crate) fn d2_ternary_sparse(
    gp: &[u64],
    gm: &[u64],
    vp: &[u64],
    vm: &[u64],
    pr: &[u64],
    active: &[u32],
) -> u64 {
    let mut acc = 0u64;
    for &w in active {
        let w = w as usize;
        let opp = (vp[w] & gm[w]) | (vm[w] & gp[w]);
        let one = ((vp[w] | vm[w]) ^ (gp[w] | gm[w])) & pr[w];
        acc += 4 * u64::from(opp.count_ones()) + u64::from(one.count_ones());
    }
    acc
}

/// [`d2_ternary`] with an early exit: returns `Some(d²)` — the exact
/// total — when `d² ≤ cutoff`, and `None` as soon as a partial sum
/// proves `d² > cutoff`. Partial sums are monotone (nonnegative integer
/// terms), so *which* prefixes a kernel checks cannot change the result:
/// a total ≤ `cutoff` passes every check, a total > `cutoff` fails the
/// final one at the latest. The cutoff comparison is performed in `f64`,
/// exactly as the caller would compare the returned distance.
///
/// Keeping the check loop inside one dispatched kernel matters: the
/// indexed matcher calls this per candidate face, and a per-block
/// dispatch (the fallback path) costs as much as the arithmetic it
/// guards.
///
/// # Panics
///
/// Panics (in debug builds) if the slices disagree in length.
#[inline]
pub(crate) fn d2_ternary_within(
    gp: &[u64],
    gm: &[u64],
    vp: &[u64],
    vm: &[u64],
    pr: &[u64],
    cutoff: f64,
) -> Option<u64> {
    debug_assert!(
        gp.len() == gm.len()
            && gp.len() == vp.len()
            && gp.len() == vm.len()
            && gp.len() == pr.len()
    );
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 only becomes active after `available_kernels`
        // confirmed the CPU features.
        KernelKind::Avx2 => unsafe { d2_ternary_within_avx2(gp, gm, vp, vm, pr, cutoff) },
        _ => d2_ternary_within_blocked(gp, gm, vp, vm, pr, cutoff),
    }
}

/// Early-exit fallback for the non-AVX2 tiers: [`d2_ternary`] over
/// 32-word blocks with a cutoff check between blocks.
fn d2_ternary_within_blocked(
    gp: &[u64],
    gm: &[u64],
    vp: &[u64],
    vm: &[u64],
    pr: &[u64],
    cutoff: f64,
) -> Option<u64> {
    const BLOCK: usize = 32;
    let words = gp.len();
    let mut acc = 0u64;
    let mut w = 0usize;
    while w < words {
        let e = (w + BLOCK).min(words);
        // Integer addition is exact and associative, so the blocked
        // total equals the one-pass total bit-for-bit.
        acc += d2_ternary(&gp[w..e], &gm[w..e], &vp[w..e], &vm[w..e], &pr[w..e]);
        if acc as f64 > cutoff {
            return None;
        }
        w = e;
    }
    // Redundant with the in-loop checks except for empty input, where no
    // block ever ran.
    (acc as f64 <= cutoff).then_some(acc)
}

/// AVX2 early-exit distance: [`d2_ternary_avx2`]'s loop in groups of 8
/// vector steps (32 words), folding the accumulators and testing the
/// cutoff between groups — one dispatch and one `target_feature`
/// boundary per face instead of one per block.
///
/// # Safety
///
/// Requires the `avx2` and `popcnt` CPU features (the tail loop's
/// `count_ones`), and equal-length input slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn d2_ternary_within_avx2(
    gp: &[u64],
    gm: &[u64],
    vp: &[u64],
    vm: &[u64],
    pr: &[u64],
    cutoff: f64,
) -> Option<u64> {
    use std::arch::x86_64::*;

    let words = gp.len();
    let vec_end = words & !3;
    let lut = popcount_lut();
    let low = _mm256_set1_epi8(0x0f);
    let mut acc = 0u64;
    let mut w = 0usize;
    while w < vec_end {
        let group_end = (w + 32).min(vec_end);
        let mut acc_opp = _mm256_setzero_si256();
        let mut acc_one = _mm256_setzero_si256();
        while w < group_end {
            // A single sequential face stream defeats the hardware
            // prefetcher at this machine's L3/DRAM latency; pulling the
            // face planes ~1 KiB ahead (past the slice end is fine — the
            // pointer is never dereferenced, and in the matcher's lane
            // arena it lands on the next face) keeps the loads pipelined.
            _mm_prefetch::<_MM_HINT_T0>(gp.as_ptr().wrapping_add(w + 512).cast());
            _mm_prefetch::<_MM_HINT_T0>(gm.as_ptr().wrapping_add(w + 512).cast());
            // SAFETY: w + 4 ≤ vec_end ≤ len of every slice; unaligned
            // loads.
            let gpv = _mm256_loadu_si256(gp.as_ptr().add(w).cast());
            let gmv = _mm256_loadu_si256(gm.as_ptr().add(w).cast());
            let vpv = _mm256_loadu_si256(vp.as_ptr().add(w).cast());
            let vmv = _mm256_loadu_si256(vm.as_ptr().add(w).cast());
            let prv = _mm256_loadu_si256(pr.as_ptr().add(w).cast());
            let opp = _mm256_or_si256(_mm256_and_si256(vpv, gmv), _mm256_and_si256(vmv, gpv));
            let one = _mm256_and_si256(
                _mm256_xor_si256(_mm256_or_si256(vpv, vmv), _mm256_or_si256(gpv, gmv)),
                prv,
            );
            acc_opp = _mm256_add_epi64(acc_opp, popcount_sad(opp, lut, low));
            acc_one = _mm256_add_epi64(acc_one, popcount_sad(one, lut, low));
            w += 4;
        }
        acc += 4 * hsum(acc_opp) + hsum(acc_one);
        if acc as f64 > cutoff {
            return None;
        }
    }
    if w < words {
        acc += d2_ternary_scalar(&gp[w..], &gm[w..], &vp[w..], &vm[w..], &pr[w..]);
    }
    (acc as f64 <= cutoff).then_some(acc)
}

/// Per-word envelope planes of one chunk summary, borrowed from the
/// arena. See `SignaturePlanes::chunk_lower_bound` for what each plane
/// certifies; all five slices have the same length as the query words.
pub(crate) struct ChunkEnvelope<'a> {
    /// OR of the member faces' `+1` planes.
    pub union_plus: &'a [u64],
    /// AND of the member faces' `+1` planes.
    pub inter_plus: &'a [u64],
    /// OR of the member faces' `−1` planes.
    pub union_minus: &'a [u64],
    /// AND of the member faces' `−1` planes.
    pub inter_minus: &'a [u64],
    /// AND of the member faces' known (`+1 | −1`) masks.
    pub inter_known: &'a [u64],
}

/// Chunk-envelope lower bound on the ternary distance, as an exact
/// integer. Per word
///
/// ```text
/// lb4 = (vp & inter_minus) | (vm & inter_plus)          // all opposite: ≥ 4
/// dis = (vp & ¬union_plus) | (vm & ¬union_minus)        // none agree:  ≥ 1
/// zvk = pr & ¬(vp | vm) & inter_known                   // 0 vs known:  ≥ 1
/// acc += 4·pop(lb4) + pop((dis | zvk) & ¬lb4)
/// ```
///
/// Dispatches AVX2 when active; every other kernel (the SSE2/NEON
/// distance tiers included) takes the scalar loop — the bound pass is a
/// per-query sweep over all chunks, and only the widest kernel pays for
/// the extra plumbing.
///
/// # Panics
///
/// Panics (in debug builds) if the slices disagree in length.
#[inline]
pub(crate) fn chunk_bound(env: &ChunkEnvelope<'_>, vp: &[u64], vm: &[u64], pr: &[u64]) -> u64 {
    debug_assert!(
        env.union_plus.len() == vp.len()
            && env.inter_plus.len() == vp.len()
            && env.union_minus.len() == vp.len()
            && env.inter_minus.len() == vp.len()
            && env.inter_known.len() == vp.len()
            && vm.len() == vp.len()
            && pr.len() == vp.len()
    );
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 only becomes active after `available_kernels`
        // confirmed the avx2 and popcnt features.
        KernelKind::Avx2 => unsafe { chunk_bound_avx2(env, vp, vm, pr) },
        _ => chunk_bound_scalar(env, vp, vm, pr),
    }
}

/// The portable bound loop: one word at a time, two popcounts per word.
pub(crate) fn chunk_bound_scalar(
    env: &ChunkEnvelope<'_>,
    vp: &[u64],
    vm: &[u64],
    pr: &[u64],
) -> u64 {
    let mut acc = 0u64;
    for w in 0..vp.len() {
        // All faces opposite the query sign: at least 4.
        let lb4 = (vp[w] & env.inter_minus[w]) | (vm[w] & env.inter_plus[w]);
        // No face agrees with the query sign: at least 1.
        let dis = (vp[w] & !env.union_plus[w]) | (vm[w] & !env.union_minus[w]);
        // Query 0 on a present pair, no face has 0: at least 1.
        let zvk = pr[w] & !(vp[w] | vm[w]) & env.inter_known[w];
        let lb1 = (dis | zvk) & !lb4;
        acc += 4 * u64::from(lb4.count_ones()) + u64::from(lb1.count_ones());
    }
    acc
}

/// Sparse chunk bound: the dense bound restricted to `active` (see
/// [`d2_ternary_sparse`] for the argument). All three bound terms are
/// masked by a query plane (`vp`/`vm` for `lb4`/`dis`, `pr` for `zvk`),
/// so the restricted sum is bit-identical to [`chunk_bound`].
///
/// # Panics
///
/// Panics if an index in `active` is out of range (slice indexing).
pub(crate) fn chunk_bound_sparse(
    env: &ChunkEnvelope<'_>,
    vp: &[u64],
    vm: &[u64],
    pr: &[u64],
    active: &[u32],
) -> u64 {
    let mut acc = 0u64;
    for &w in active {
        let w = w as usize;
        let lb4 = (vp[w] & env.inter_minus[w]) | (vm[w] & env.inter_plus[w]);
        let dis = (vp[w] & !env.union_plus[w]) | (vm[w] & !env.union_minus[w]);
        let zvk = pr[w] & !(vp[w] | vm[w]) & env.inter_known[w];
        let lb1 = (dis | zvk) & !lb4;
        acc += 4 * u64::from(lb4.count_ones()) + u64::from(lb1.count_ones());
    }
    acc
}

/// AVX2 chunk bound: 4 words per step, same [`popcount_sad`] fold as the
/// distance kernel, scalar loop on the ≤ 3 tail words.
///
/// # Safety
///
/// Requires the `avx2` and `popcnt` CPU features (the tail loop's
/// `count_ones`), and equal-length input slices.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
unsafe fn chunk_bound_avx2(env: &ChunkEnvelope<'_>, vp: &[u64], vm: &[u64], pr: &[u64]) -> u64 {
    use std::arch::x86_64::*;

    let words = vp.len();
    let lut = popcount_lut();
    let low = _mm256_set1_epi8(0x0f);
    let mut acc4 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut w = 0usize;
    while w + 4 <= words {
        // Same rationale as `d2_ternary_within_avx2`: the envelope blocks
        // of sibling chunks are contiguous per array, so pulling each of
        // the five streams ~4 KiB ahead keeps a best-first descent's
        // bound sweeps pipelined (past-the-end pointers are never
        // dereferenced).
        _mm_prefetch::<_MM_HINT_T0>(env.union_plus.as_ptr().wrapping_add(w + 512).cast());
        _mm_prefetch::<_MM_HINT_T0>(env.inter_plus.as_ptr().wrapping_add(w + 512).cast());
        _mm_prefetch::<_MM_HINT_T0>(env.union_minus.as_ptr().wrapping_add(w + 512).cast());
        _mm_prefetch::<_MM_HINT_T0>(env.inter_minus.as_ptr().wrapping_add(w + 512).cast());
        _mm_prefetch::<_MM_HINT_T0>(env.inter_known.as_ptr().wrapping_add(w + 512).cast());
        // SAFETY: w + 4 ≤ len of every slice; unaligned loads.
        let upv = _mm256_loadu_si256(env.union_plus.as_ptr().add(w).cast());
        let ipv = _mm256_loadu_si256(env.inter_plus.as_ptr().add(w).cast());
        let umv = _mm256_loadu_si256(env.union_minus.as_ptr().add(w).cast());
        let imv = _mm256_loadu_si256(env.inter_minus.as_ptr().add(w).cast());
        let ikv = _mm256_loadu_si256(env.inter_known.as_ptr().add(w).cast());
        let vpv = _mm256_loadu_si256(vp.as_ptr().add(w).cast());
        let vmv = _mm256_loadu_si256(vm.as_ptr().add(w).cast());
        let prv = _mm256_loadu_si256(pr.as_ptr().add(w).cast());
        let lb4 = _mm256_or_si256(_mm256_and_si256(vpv, imv), _mm256_and_si256(vmv, ipv));
        // `andnot(a, b)` computes `¬a & b`.
        let dis = _mm256_or_si256(_mm256_andnot_si256(upv, vpv), _mm256_andnot_si256(umv, vmv));
        let zvk = _mm256_andnot_si256(_mm256_or_si256(vpv, vmv), _mm256_and_si256(prv, ikv));
        let lb1 = _mm256_andnot_si256(lb4, _mm256_or_si256(dis, zvk));
        acc4 = _mm256_add_epi64(acc4, popcount_sad(lb4, lut, low));
        acc1 = _mm256_add_epi64(acc1, popcount_sad(lb1, lut, low));
        w += 4;
    }
    let mut acc = 4 * hsum(acc4) + hsum(acc1);
    if w < words {
        let tail = ChunkEnvelope {
            union_plus: &env.union_plus[w..],
            inter_plus: &env.inter_plus[w..],
            union_minus: &env.union_minus[w..],
            inter_minus: &env.inter_minus[w..],
            inter_known: &env.inter_known[w..],
        };
        acc += chunk_bound_scalar(&tail, &vp[w..], &vm[w..], &pr[w..]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unit tests in this module mutate the process-global override, and
    /// any test that reads it must not see a sibling's pin: every read or
    /// write of the override in these tests holds this lock
    /// (integration suites run in their own processes).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn with_forced<T>(k: Option<KernelKind>, f: impl FnOnce() -> T) -> T {
        let _guard = lock();
        assert!(force_kernel(k));
        let out = f();
        force_kernel(None);
        out
    }

    fn words(seed: u64, n: usize) -> Vec<u64> {
        // SplitMix64: deterministic word soup without an RNG dependency.
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    /// Disjoint (plane-legal) masks derived from two word soups.
    fn planes(seed: u64, n: usize) -> (Vec<u64>, Vec<u64>) {
        let a = words(seed, n);
        let b = words(seed ^ 0xdead_beef, n);
        let plus: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x & !y).collect();
        let minus: Vec<u64> = a.iter().zip(&b).map(|(x, y)| !x & y).collect();
        (plus, minus)
    }

    #[test]
    fn every_available_kernel_matches_scalar_on_tail_shapes() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 64] {
            let (gp, gm) = planes(11 + n as u64, n);
            let (vp, vm) = planes(97 + n as u64, n);
            let pr: Vec<u64> = vp
                .iter()
                .zip(&vm)
                .zip(words(5, n))
                .map(|((p, m), r)| p | m | r)
                .collect();
            let want = d2_ternary_scalar(&gp, &gm, &vp, &vm, &pr);
            for k in available_kernels() {
                let got = with_forced(Some(k), || d2_ternary(&gp, &gm, &vp, &vm, &pr));
                assert_eq!(got, want, "kernel {k:?} at {n} words");
            }
        }
    }

    /// The chunk-bound kernels agree bit-for-bit on every tail shape,
    /// with envelope planes satisfying the build invariants
    /// (`inter ⊆ union`, `inter_known ⊇ inter_plus | inter_minus`).
    #[test]
    fn chunk_bound_kernels_match_scalar_on_tail_shapes() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 13, 64] {
            let (ip, im) = planes(23 + n as u64, n);
            let extra = words(41, n);
            let up: Vec<u64> = ip.iter().zip(&extra).map(|(i, e)| i | (e & !i)).collect();
            let um: Vec<u64> = im
                .iter()
                .zip(words(43, n))
                .map(|(i, e)| i | (e & !i))
                .collect();
            let ik: Vec<u64> = ip
                .iter()
                .zip(&im)
                .zip(words(47, n))
                .map(|((p, m), r)| p | m | r)
                .collect();
            let (vp, vm) = planes(97 + n as u64, n);
            let pr: Vec<u64> = vp
                .iter()
                .zip(&vm)
                .zip(words(53, n))
                .map(|((p, m), r)| p | m | r)
                .collect();
            let env = ChunkEnvelope {
                union_plus: &up,
                inter_plus: &ip,
                union_minus: &um,
                inter_minus: &im,
                inter_known: &ik,
            };
            let want = chunk_bound_scalar(&env, &vp, &vm, &pr);
            for k in available_kernels() {
                let got = with_forced(Some(k), || chunk_bound(&env, &vp, &vm, &pr));
                assert_eq!(got, want, "kernel {k:?} at {n} words");
            }
        }
    }

    /// Every early-exit kernel agrees with the plain distance under any
    /// cutoff: `Some(d²)` exactly when `d² ≤ cutoff`, `None` otherwise —
    /// including at the word counts that straddle its 32-word check
    /// groups.
    #[test]
    fn early_exit_kernels_agree_with_the_full_distance() {
        for n in [0usize, 1, 3, 4, 31, 32, 33, 36, 64, 65, 96, 130] {
            let (gp, gm) = planes(11 + n as u64, n);
            let (vp, vm) = planes(97 + n as u64, n);
            let pr: Vec<u64> = vp
                .iter()
                .zip(&vm)
                .zip(words(5, n))
                .map(|((p, m), r)| p | m | r)
                .collect();
            let want = d2_ternary_scalar(&gp, &gm, &vp, &vm, &pr);
            for cutoff in [
                0.0,
                (want as f64) - 1.0,
                (want as f64) - 0.5,
                want as f64,
                (want as f64) + 0.5,
                (want as f64) + 1.0,
                f64::INFINITY,
            ] {
                let expect = (want as f64 <= cutoff).then_some(want);
                for k in available_kernels() {
                    let got = with_forced(Some(k), || {
                        d2_ternary_within(&gp, &gm, &vp, &vm, &pr, cutoff)
                    });
                    assert_eq!(got, expect, "kernel {k:?} at {n} words, cutoff {cutoff}");
                }
            }
        }
    }

    #[test]
    fn forcing_pins_and_releases_the_dispatch() {
        with_forced(Some(KernelKind::Scalar), || {
            assert_eq!(active_kernel(), KernelKind::Scalar);
        });
        let _guard = lock();
        assert_eq!(active_kernel(), detect());
    }

    #[test]
    fn unsupported_kernels_are_refused() {
        let _guard = lock();
        let supported = available_kernels();
        for k in [
            KernelKind::Scalar,
            KernelKind::Sse2,
            KernelKind::Avx2,
            KernelKind::Neon,
        ] {
            if !supported.contains(&k) {
                assert!(!force_kernel(Some(k)), "{k:?} should be refused");
                assert_eq!(active_kernel(), detect(), "refusal must not pin {k:?}");
            }
        }
    }
}
