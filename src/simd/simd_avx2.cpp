/**
 * @file
 * AVX2 backend: four u64 residues per vector op. Compiled with -mavx2
 * when the toolchain supports it (HENTT_HAVE_AVX2, see CMakeLists);
 * callers reach this table only after the runtime CPUID check in
 * simd_dispatch.cpp.
 *
 * AVX2 has no 64x64 multiply, so the 64-bit products behind Shoup and
 * Barrett are assembled from 32x32 partial products (_mm256_mul_epu32)
 * with explicit carry propagation — the same partial-product tree as
 * common/int128.h, kept term-for-term identical so every kernel is
 * bit-identical to the scalar reference (lazy [0, 4p) representatives
 * included, not merely congruent mod p).
 *
 * Layout notes:
 *  - The contiguous-row kernels vectorize directly: NTT stages with
 *    run length t >= 4 are two disjoint streams with one broadcast
 *    twiddle (gather-free by construction).
 *  - The tail stages (t in {1, 2}) interleave pairs too tightly for
 *    row vectors; they use in-register unpack/permute shuffles instead
 *    of gathers, with a contiguous twiddle stream.
 *  - The 128-bit Barrett family (mul, mul-acc, reduce, tensor) and the
 *    branchy divide-and-round borrow the scalar implementation; see
 *    Avx2Kernels() for the measurement behind that choice.
 */

#include "simd/simd_internal.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace hentt::simd {

namespace {

inline __m256i
Load(const u64 *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
Store(u64 *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

inline __m256i
Bcast(u64 x)
{
    return _mm256_set1_epi64x(static_cast<long long>(x));
}

/** Lane-wise unsigned a > b (sign-flip trick over the signed compare). */
inline __m256i
CmpGtU64(__m256i a, __m256i b)
{
    const __m256i sign = Bcast(u64{1} << 63);
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                              _mm256_xor_si256(b, sign));
}

/** a >= bound ? a - bound : a — the conditional correction of every
 *  modular primitive. */
inline __m256i
CondSub(__m256i a, __m256i bound)
{
    const __m256i lt = CmpGtU64(bound, a);  // a < bound
    return _mm256_sub_epi64(a, _mm256_andnot_si256(lt, bound));
}

/** High 64 bits of the unsigned 64x64 product (MulHi64). */
inline __m256i
MulHiU64(__m256i x, __m256i y)
{
    const __m256i lo32 = Bcast(0xffffffffu);
    const __m256i xh = _mm256_srli_epi64(x, 32);
    const __m256i yh = _mm256_srli_epi64(y, 32);
    const __m256i ll = _mm256_mul_epu32(x, y);
    const __m256i lh = _mm256_mul_epu32(x, yh);
    const __m256i hl = _mm256_mul_epu32(xh, y);
    const __m256i hh = _mm256_mul_epu32(xh, yh);
    // carry = hi32(hi32(ll) + lo32(lh) + lo32(hl)) — at most 2^34, so
    // the 64-bit accumulation cannot overflow.
    const __m256i cross = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                         _mm256_and_si256(lh, lo32)),
        _mm256_and_si256(hl, lo32));
    return _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                         _mm256_srli_epi64(cross, 32)));
}

/** Low 64 bits of the unsigned 64x64 product. */
inline __m256i
MulLoU64(__m256i x, __m256i y)
{
    const __m256i xh = _mm256_srli_epi64(x, 32);
    const __m256i yh = _mm256_srli_epi64(y, 32);
    const __m256i ll = _mm256_mul_epu32(x, y);
    const __m256i mid =
        _mm256_add_epi64(_mm256_mul_epu32(x, yh), _mm256_mul_epu32(xh, y));
    return _mm256_add_epi64(ll, _mm256_slli_epi64(mid, 32));
}

/** The lazy CT butterfly core on four lanes (FwdButterflyElem). */
inline void
FwdCore(__m256i &x, __m256i &y, __m256i vw, __m256i vwb, __m256i vp,
        __m256i v2p)
{
    x = CondSub(x, v2p);
    const __m256i q = MulHiU64(y, vwb);
    const __m256i t = _mm256_sub_epi64(MulLoU64(y, vw), MulLoU64(q, vp));
    y = _mm256_sub_epi64(_mm256_add_epi64(x, v2p), t);
    x = _mm256_add_epi64(x, t);
}

/** The lazy GS butterfly core on four lanes (InvButterflyElem). */
inline void
InvCore(__m256i &x, __m256i &y, __m256i vw, __m256i vwb, __m256i vp,
        __m256i v2p)
{
    const __m256i u = x;
    const __m256i v = y;
    x = CondSub(_mm256_add_epi64(u, v), v2p);
    const __m256i d = _mm256_sub_epi64(_mm256_add_epi64(u, v2p), v);
    const __m256i q = MulHiU64(d, vwb);
    y = _mm256_sub_epi64(MulLoU64(d, vw), MulLoU64(q, vp));
}

// ---------------------------------------------------------------- rows

void
FwdButterflyRows(u64 *x, u64 *y, std::size_t n, u64 w, u64 w_bar, u64 p)
{
    const __m256i vp = Bcast(p), v2p = Bcast(2 * p);
    const __m256i vw = Bcast(w), vwb = Bcast(w_bar);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i a = Load(x + k), b = Load(y + k);
        FwdCore(a, b, vw, vwb, vp, v2p);
        Store(x + k, a);
        Store(y + k, b);
    }
    for (; k < n; ++k) {
        FwdButterflyElem(x[k], y[k], w, w_bar, p);
    }
}

void
InvButterflyRows(u64 *x, u64 *y, std::size_t n, u64 w, u64 w_bar, u64 p)
{
    const __m256i vp = Bcast(p), v2p = Bcast(2 * p);
    const __m256i vw = Bcast(w), vwb = Bcast(w_bar);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i a = Load(x + k), b = Load(y + k);
        InvCore(a, b, vw, vwb, vp, v2p);
        Store(x + k, a);
        Store(y + k, b);
    }
    for (; k < n; ++k) {
        InvButterflyElem(x[k], y[k], w, w_bar, p);
    }
}

// ---------------------------------------------------------------- tails

/**
 * t == 1 stage: pairs (a[2j], a[2j+1]) with per-pair twiddles w[j].
 * Four pairs per iteration via unpack shuffles — no gathers; the
 * twiddle stream is contiguous and only needs a cross-lane permute.
 */
template <bool kForward>
inline std::size_t
TailT1(u64 *a, const u64 *w, const u64 *w_bar, std::size_t m,
       __m256i vp, __m256i v2p)
{
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        const __m256i v0 = Load(a + 2 * j);      // x0 y0 x1 y1
        const __m256i v1 = Load(a + 2 * j + 4);  // x2 y2 x3 y3
        __m256i x = _mm256_unpacklo_epi64(v0, v1);  // x0 x2 x1 x3
        __m256i y = _mm256_unpackhi_epi64(v0, v1);  // y0 y2 y1 y3
        // Twiddles (w0 w1 w2 w3) -> pair order (w0 w2 w1 w3).
        const __m256i vw =
            _mm256_permute4x64_epi64(Load(w + j), 0xD8);
        const __m256i vwb =
            _mm256_permute4x64_epi64(Load(w_bar + j), 0xD8);
        if constexpr (kForward) {
            FwdCore(x, y, vw, vwb, vp, v2p);
        } else {
            InvCore(x, y, vw, vwb, vp, v2p);
        }
        Store(a + 2 * j, _mm256_unpacklo_epi64(x, y));
        Store(a + 2 * j + 4, _mm256_unpackhi_epi64(x, y));
    }
    return j;
}

/**
 * t == 2 stage: blocks (x0 x1 y0 y1) with one twiddle per block. Two
 * blocks per iteration via 128-bit lane permutes.
 */
template <bool kForward>
inline std::size_t
TailT2(u64 *a, const u64 *w, const u64 *w_bar, std::size_t m,
       __m256i vp, __m256i v2p)
{
    std::size_t j = 0;
    for (; j + 2 <= m; j += 2) {
        const __m256i v0 = Load(a + 4 * j);
        const __m256i v1 = Load(a + 4 * j + 4);
        __m256i x = _mm256_permute2x128_si256(v0, v1, 0x20);
        __m256i y = _mm256_permute2x128_si256(v0, v1, 0x31);
        // (w_j, w_j+1, _, _) -> (w_j, w_j, w_j+1, w_j+1).
        const __m256i vw = _mm256_permute4x64_epi64(
            _mm256_castsi128_si256(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(w + j))),
            0x50);
        const __m256i vwb = _mm256_permute4x64_epi64(
            _mm256_castsi128_si256(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(w_bar + j))),
            0x50);
        if constexpr (kForward) {
            FwdCore(x, y, vw, vwb, vp, v2p);
        } else {
            InvCore(x, y, vw, vwb, vp, v2p);
        }
        Store(a + 4 * j, _mm256_permute2x128_si256(x, y, 0x20));
        Store(a + 4 * j + 4, _mm256_permute2x128_si256(x, y, 0x31));
    }
    return j;
}

template <bool kForward>
void
ButterflyStage(u64 *a, const u64 *w, const u64 *w_bar, std::size_t m,
               std::size_t t, u64 p)
{
    const __m256i vp = Bcast(p), v2p = Bcast(2 * p);
    std::size_t j = 0;
    if (t >= kMinButterflyRun) {
        // Contiguous-row blocks: two t-element runs, broadcast
        // twiddle — exactly the rows kernel, once per block (direct
        // calls, inlined within this TU).
        for (; j < m; ++j) {
            u64 *x = a + 2 * j * t;
            if constexpr (kForward) {
                FwdButterflyRows(x, x + t, t, w[j], w_bar[j], p);
            } else {
                InvButterflyRows(x, x + t, t, w[j], w_bar[j], p);
            }
        }
        return;
    }
    if (t == 1) {
        j = TailT1<kForward>(a, w, w_bar, m, vp, v2p);
    } else if (t == 2) {
        j = TailT2<kForward>(a, w, w_bar, m, vp, v2p);
    }
    for (; j < m; ++j) {
        const std::size_t base = 2 * j * t;
        for (std::size_t k = base; k < base + t; ++k) {
            if constexpr (kForward) {
                FwdButterflyElem(a[k], a[k + t], w[j], w_bar[j], p);
            } else {
                InvButterflyElem(a[k], a[k + t], w[j], w_bar[j], p);
            }
        }
    }
}

void
FwdButterflyStage(u64 *a, const u64 *w, const u64 *w_bar, std::size_t m,
                  std::size_t t, u64 p)
{
    ButterflyStage<true>(a, w, w_bar, m, t, p);
}

void
InvButterflyStage(u64 *a, const u64 *w, const u64 *w_bar, std::size_t h,
                  std::size_t t, u64 p)
{
    ButterflyStage<false>(a, w, w_bar, h, t, p);
}

// -------------------------------------------------- fused radix-4 stages
//
// Each super-block is (A, B, C, D) quarters of q contiguous elements;
// the kernels run two radix-2 levels in registers, composed from the
// same FwdCore/InvCore vector butterflies as the radix-2 stages, so
// bit-identity with two chained stages is structural. Twiddles stream
// sequentially from the interleaved (w, w_bar) pair / quad layout, so
// the q < 4 tail forms need shuffles only, never gathers.

/**
 * Forward radix-4, contiguous-row form (q >= 4): per super-block, four
 * q-element rows and six broadcast twiddle words; four FwdCore calls
 * per column of vectors, one load + one store per coefficient for two
 * butterfly levels.
 */
void
FwdStage4Rows(u64 *a, const u64 *pairs, const u64 *quads, std::size_t m,
              std::size_t q, u64 p)
{
    const __m256i vp = Bcast(p), v2p = Bcast(2 * p);
    for (std::size_t j = 0; j < m; ++j) {
        u64 *blk = a + 4 * j * q;
        const u64 w1 = pairs[2 * j], w1b = pairs[2 * j + 1];
        const u64 w2a = quads[4 * j], w2ab = quads[4 * j + 1];
        const u64 w2b = quads[4 * j + 2], w2bb = quads[4 * j + 3];
        const __m256i vw1 = Bcast(w1), vw1b = Bcast(w1b);
        const __m256i vw2a = Bcast(w2a), vw2ab = Bcast(w2ab);
        const __m256i vw2b = Bcast(w2b), vw2bb = Bcast(w2bb);
        std::size_t k = 0;
        for (; k + 4 <= q; k += 4) {
            __m256i va = Load(blk + k);
            __m256i vb = Load(blk + q + k);
            __m256i vc = Load(blk + 2 * q + k);
            __m256i vd = Load(blk + 3 * q + k);
            FwdCore(va, vc, vw1, vw1b, vp, v2p);
            FwdCore(vb, vd, vw1, vw1b, vp, v2p);
            FwdCore(va, vb, vw2a, vw2ab, vp, v2p);
            FwdCore(vc, vd, vw2b, vw2bb, vp, v2p);
            Store(blk + k, va);
            Store(blk + q + k, vb);
            Store(blk + 2 * q + k, vc);
            Store(blk + 3 * q + k, vd);
        }
        for (; k < q; ++k) {
            FwdButterflyQuadElem(blk[k], blk[q + k], blk[2 * q + k],
                                 blk[3 * q + k], w1, w1b, w2a, w2ab, w2b,
                                 w2bb, p);
        }
    }
}

/**
 * Forward radix-4 tail, q == 2: one 8-element super-block per
 * iteration, v0 = (A0 A1 B0 B1), v1 = (C0 C1 D0 D1). Level one is a
 * straight lane-wise butterfly of v0 against v1 ((A,C) and (B,D) share
 * w1); level two regroups through 128-bit lane permutes.
 */
void
FwdStage4TailQ2(u64 *a, const u64 *pairs, const u64 *quads,
                std::size_t m, __m256i vp, __m256i v2p)
{
    for (std::size_t j = 0; j < m; ++j) {
        __m256i v0 = Load(a + 8 * j);
        __m256i v1 = Load(a + 8 * j + 4);
        const __m256i vw1 = Bcast(pairs[2 * j]);
        const __m256i vw1b = Bcast(pairs[2 * j + 1]);
        FwdCore(v0, v1, vw1, vw1b, vp, v2p);
        // (w2a, w2ab, w2b, w2bb) -> (w2a w2a w2b w2b) + companions.
        const __m256i qd = Load(quads + 4 * j);
        const __m256i vw2 = _mm256_permute4x64_epi64(qd, 0xA0);
        const __m256i vw2b = _mm256_permute4x64_epi64(qd, 0xF5);
        __m256i x = _mm256_permute2x128_si256(v0, v1, 0x20);  // A0A1C0C1
        __m256i y = _mm256_permute2x128_si256(v0, v1, 0x31);  // B0B1D0D1
        FwdCore(x, y, vw2, vw2b, vp, v2p);
        Store(a + 8 * j, _mm256_permute2x128_si256(x, y, 0x20));
        Store(a + 8 * j + 4, _mm256_permute2x128_si256(x, y, 0x31));
    }
}

/**
 * Forward radix-4 tail, q == 1: two 4-element super-blocks (a b c d)
 * per iteration. The interleaved pair stream feeds level one with one
 * permute per vector; the quad stream feeds level two through an
 * unpack + permute, so the final two butterfly levels of the transform
 * run in one pass with zero gathers.
 */
std::size_t
FwdStage4TailQ1(u64 *a, const u64 *pairs, const u64 *quads,
                std::size_t m, __m256i vp, __m256i v2p)
{
    std::size_t j = 0;
    for (; j + 2 <= m; j += 2) {
        const __m256i v0 = Load(a + 4 * j);      // a0 b0 c0 d0
        const __m256i v1 = Load(a + 4 * j + 4);  // a1 b1 c1 d1
        __m256i x = _mm256_permute2x128_si256(v0, v1, 0x20);  // a0b0a1b1
        __m256i y = _mm256_permute2x128_si256(v0, v1, 0x31);  // c0d0c1d1
        // (w1_0, w1b_0, w1_1, w1b_1) -> (w1_0 w1_0 w1_1 w1_1) + bars.
        const __m256i pr = Load(pairs + 2 * j);
        const __m256i vw1 = _mm256_permute4x64_epi64(pr, 0xA0);
        const __m256i vw1b = _mm256_permute4x64_epi64(pr, 0xF5);
        FwdCore(x, y, vw1, vw1b, vp, v2p);  // pairs (a,c), (b,d)
        __m256i u = _mm256_unpacklo_epi64(x, y);  // a0 c0 a1 c1
        __m256i v = _mm256_unpackhi_epi64(x, y);  // b0 d0 b1 d1
        // Two quads -> (w2a_0 w2b_0 w2a_1 w2b_1) + companions.
        const __m256i q0 = Load(quads + 4 * j);
        const __m256i q1 = Load(quads + 4 * j + 4);
        const __m256i vw2 = _mm256_permute4x64_epi64(
            _mm256_unpacklo_epi64(q0, q1), 0xD8);
        const __m256i vw2b = _mm256_permute4x64_epi64(
            _mm256_unpackhi_epi64(q0, q1), 0xD8);
        FwdCore(u, v, vw2, vw2b, vp, v2p);  // pairs (a,b), (c,d)
        const __m256i lo = _mm256_unpacklo_epi64(u, v);  // a0 b0 a1 b1
        const __m256i hi = _mm256_unpackhi_epi64(u, v);  // c0 d0 c1 d1
        Store(a + 4 * j, _mm256_permute2x128_si256(lo, hi, 0x20));
        Store(a + 4 * j + 4, _mm256_permute2x128_si256(lo, hi, 0x31));
    }
    return j;
}

/** Quarter length at and above which the production AVX2 table runs a
 *  fused stage pair as two row sweeps instead of one fused pass: the
 *  four-row column plus six twiddle broadcasts and the butterfly
 *  temporaries exceed the 16 ymm registers, and the resulting spill
 *  traffic measurably costs more than the second sweep saves (~0.87x
 *  at N = 4096; see BENCH_rns_batch radix columns). The scalar and
 *  AVX-512 tables fuse genuinely — this is a per-backend
 *  implementation choice behind the same semantic contract, exactly
 *  like the scalar-borrowed Barrett entries below. */
constexpr std::size_t kFusedRowMax = 2 * kMinButterflyRun;

/**
 * Production AVX2 forward radix-4 stage: two chained row sweeps while
 * q >= kFusedRowMax (bit-identical by construction — the same
 * butterfly rows the radix-2 stage walker would run), genuinely fused
 * row/shuffle forms for the interleaved-twiddle tails where they
 * measure faster.
 */
void
FwdButterflyStage4(u64 *a, const u64 *pairs, const u64 *quads,
                   std::size_t m, std::size_t q, u64 p)
{
    if (q >= kFusedRowMax) {
        for (std::size_t j = 0; j < m; ++j) {
            u64 *blk = a + 4 * j * q;
            FwdButterflyRows(blk, blk + 2 * q, 2 * q, pairs[2 * j],
                             pairs[2 * j + 1], p);
        }
        for (std::size_t j = 0; j < m; ++j) {
            u64 *blk = a + 4 * j * q;
            FwdButterflyRows(blk, blk + q, q, quads[4 * j],
                             quads[4 * j + 1], p);
            FwdButterflyRows(blk + 2 * q, blk + 3 * q, q,
                             quads[4 * j + 2], quads[4 * j + 3], p);
        }
        return;
    }
    if (q >= kMinButterflyRun) {
        FwdStage4Rows(a, pairs, quads, m, q, p);
        return;
    }
    const __m256i vp = Bcast(p), v2p = Bcast(2 * p);
    std::size_t j = 0;
    if (q == 2) {
        FwdStage4TailQ2(a, pairs, quads, m, vp, v2p);
        return;
    }
    if (q == 1) {
        j = FwdStage4TailQ1(a, pairs, quads, m, vp, v2p);
    }
    for (; j < m; ++j) {
        u64 *blk = a + 4 * j * q;
        for (std::size_t k = 0; k < q; ++k) {
            FwdButterflyQuadElem(blk[k], blk[q + k], blk[2 * q + k],
                                 blk[3 * q + k], pairs[2 * j],
                                 pairs[2 * j + 1], quads[4 * j],
                                 quads[4 * j + 1], quads[4 * j + 2],
                                 quads[4 * j + 3], p);
        }
    }
}

/** Inverse radix-4, contiguous-row form (q >= 4); see FwdStage4Rows. */
void
InvStage4Rows(u64 *a, const u64 *quads, const u64 *pairs, std::size_t m,
              std::size_t q, u64 p)
{
    const __m256i vp = Bcast(p), v2p = Bcast(2 * p);
    for (std::size_t j = 0; j < m; ++j) {
        u64 *blk = a + 4 * j * q;
        const u64 w1a = quads[4 * j], w1ab = quads[4 * j + 1];
        const u64 w1b = quads[4 * j + 2], w1bb = quads[4 * j + 3];
        const u64 w2 = pairs[2 * j], w2b = pairs[2 * j + 1];
        const __m256i vw1a = Bcast(w1a), vw1ab = Bcast(w1ab);
        const __m256i vw1b = Bcast(w1b), vw1bb = Bcast(w1bb);
        const __m256i vw2 = Bcast(w2), vw2b = Bcast(w2b);
        std::size_t k = 0;
        for (; k + 4 <= q; k += 4) {
            __m256i va = Load(blk + k);
            __m256i vb = Load(blk + q + k);
            __m256i vc = Load(blk + 2 * q + k);
            __m256i vd = Load(blk + 3 * q + k);
            InvCore(va, vb, vw1a, vw1ab, vp, v2p);
            InvCore(vc, vd, vw1b, vw1bb, vp, v2p);
            InvCore(va, vc, vw2, vw2b, vp, v2p);
            InvCore(vb, vd, vw2, vw2b, vp, v2p);
            Store(blk + k, va);
            Store(blk + q + k, vb);
            Store(blk + 2 * q + k, vc);
            Store(blk + 3 * q + k, vd);
        }
        for (; k < q; ++k) {
            InvButterflyQuadElem(blk[k], blk[q + k], blk[2 * q + k],
                                 blk[3 * q + k], w1a, w1ab, w1b, w1bb,
                                 w2, w2b, p);
        }
    }
}

/** Inverse radix-4 tail, q == 2: mirror of FwdStage4TailQ2 with the
 *  levels swapped (permute first, lane-wise butterfly second). */
void
InvStage4TailQ2(u64 *a, const u64 *quads, const u64 *pairs,
                std::size_t m, __m256i vp, __m256i v2p)
{
    for (std::size_t j = 0; j < m; ++j) {
        const __m256i v0 = Load(a + 8 * j);      // A0 A1 B0 B1
        const __m256i v1 = Load(a + 8 * j + 4);  // C0 C1 D0 D1
        const __m256i qd = Load(quads + 4 * j);
        const __m256i vw1 = _mm256_permute4x64_epi64(qd, 0xA0);
        const __m256i vw1b = _mm256_permute4x64_epi64(qd, 0xF5);
        __m256i x = _mm256_permute2x128_si256(v0, v1, 0x20);  // A0A1C0C1
        __m256i y = _mm256_permute2x128_si256(v0, v1, 0x31);  // B0B1D0D1
        InvCore(x, y, vw1, vw1b, vp, v2p);  // (A,B) w1a, (C,D) w1b
        __m256i u = _mm256_permute2x128_si256(x, y, 0x20);  // A0A1B0B1
        __m256i v = _mm256_permute2x128_si256(x, y, 0x31);  // C0C1D0D1
        const __m256i vw2 = Bcast(pairs[2 * j]);
        const __m256i vw2b = Bcast(pairs[2 * j + 1]);
        InvCore(u, v, vw2, vw2b, vp, v2p);  // (A,C), (B,D) share w2
        Store(a + 8 * j, u);
        Store(a + 8 * j + 4, v);
    }
}

/** Inverse radix-4 tail, q == 1: the unpacked quad stream lands in
 *  lane order directly, so level one needs no twiddle permutes. */
std::size_t
InvStage4TailQ1(u64 *a, const u64 *quads, const u64 *pairs,
                std::size_t m, __m256i vp, __m256i v2p)
{
    std::size_t j = 0;
    for (; j + 2 <= m; j += 2) {
        const __m256i v0 = Load(a + 4 * j);      // a0 b0 c0 d0
        const __m256i v1 = Load(a + 4 * j + 4);  // a1 b1 c1 d1
        __m256i x = _mm256_unpacklo_epi64(v0, v1);  // a0 a1 c0 c1
        __m256i y = _mm256_unpackhi_epi64(v0, v1);  // b0 b1 d0 d1
        const __m256i q0 = Load(quads + 4 * j);
        const __m256i q1 = Load(quads + 4 * j + 4);
        const __m256i vw1 = _mm256_unpacklo_epi64(q0, q1);
        const __m256i vw1b = _mm256_unpackhi_epi64(q0, q1);
        InvCore(x, y, vw1, vw1b, vp, v2p);  // (a,b) w1a, (c,d) w1b
        __m256i u = _mm256_permute2x128_si256(x, y, 0x20);  // a0a1b0b1
        __m256i v = _mm256_permute2x128_si256(x, y, 0x31);  // c0c1d0d1
        // (w2_0, w2b_0, w2_1, w2b_1) -> (w2_0 w2_1 w2_0 w2_1) + bars.
        const __m256i pr = Load(pairs + 2 * j);
        const __m256i vw2 = _mm256_permute4x64_epi64(pr, 0x88);
        const __m256i vw2b = _mm256_permute4x64_epi64(pr, 0xDD);
        InvCore(u, v, vw2, vw2b, vp, v2p);  // pairs (a,c), (b,d)
        const __m256i t0 = _mm256_unpacklo_epi64(u, v);  // a0 c0 b0 d0
        const __m256i t1 = _mm256_unpackhi_epi64(u, v);  // a1 c1 b1 d1
        Store(a + 4 * j, _mm256_permute4x64_epi64(t0, 0xD8));
        Store(a + 4 * j + 4, _mm256_permute4x64_epi64(t1, 0xD8));
    }
    return j;
}

/** Production AVX2 inverse radix-4 stage; see FwdButterflyStage4 for
 *  the two-sweep rationale. */
void
InvButterflyStage4(u64 *a, const u64 *quads, const u64 *pairs,
                   std::size_t m, std::size_t q, u64 p)
{
    if (q >= kFusedRowMax) {
        for (std::size_t j = 0; j < m; ++j) {
            u64 *blk = a + 4 * j * q;
            InvButterflyRows(blk, blk + q, q, quads[4 * j],
                             quads[4 * j + 1], p);
            InvButterflyRows(blk + 2 * q, blk + 3 * q, q,
                             quads[4 * j + 2], quads[4 * j + 3], p);
        }
        for (std::size_t j = 0; j < m; ++j) {
            u64 *blk = a + 4 * j * q;
            InvButterflyRows(blk, blk + 2 * q, 2 * q, pairs[2 * j],
                             pairs[2 * j + 1], p);
        }
        return;
    }
    if (q >= kMinButterflyRun) {
        InvStage4Rows(a, quads, pairs, m, q, p);
        return;
    }
    const __m256i vp = Bcast(p), v2p = Bcast(2 * p);
    std::size_t j = 0;
    if (q == 2) {
        InvStage4TailQ2(a, quads, pairs, m, vp, v2p);
        return;
    }
    if (q == 1) {
        j = InvStage4TailQ1(a, quads, pairs, m, vp, v2p);
    }
    for (; j < m; ++j) {
        u64 *blk = a + 4 * j * q;
        for (std::size_t k = 0; k < q; ++k) {
            InvButterflyQuadElem(blk[k], blk[q + k], blk[2 * q + k],
                                 blk[3 * q + k], quads[4 * j],
                                 quads[4 * j + 1], quads[4 * j + 2],
                                 quads[4 * j + 3], pairs[2 * j],
                                 pairs[2 * j + 1], p);
        }
    }
}

// ---------------------------------------------------------- elementwise

void
MulShoupRows(u64 *dst, const u64 *src, std::size_t n, u64 s, u64 s_bar,
             u64 p)
{
    const __m256i vp = Bcast(p), vs = Bcast(s), vsb = Bcast(s_bar);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        const __m256i x = Load(src + k);
        const __m256i q = MulHiU64(x, vsb);
        const __m256i r =
            _mm256_sub_epi64(MulLoU64(x, vs), MulLoU64(q, vp));
        Store(dst + k, CondSub(r, vp));
    }
    for (; k < n; ++k) {
        dst[k] = MulModShoup(src[k], s, s_bar, p);
    }
}

/** FoldLazy on four lanes. */
inline __m256i
FoldVec(__m256i x, __m256i vp, __m256i v2p)
{
    return CondSub(CondSub(x, v2p), vp);
}

template <bool kSubtract>
void
AddSubRows(u64 *dst, const u64 *a, const u64 *b, std::size_t n, u64 p,
           bool fold_b)
{
    const __m256i vp = Bcast(p), v2p = Bcast(2 * p);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        const __m256i x = Load(a + k);
        __m256i y = Load(b + k);
        if (fold_b) {
            y = FoldVec(y, vp, v2p);
        }
        __m256i r;
        if constexpr (kSubtract) {
            const __m256i lt = CmpGtU64(y, x);  // x < y: wrap by +p
            r = _mm256_add_epi64(_mm256_sub_epi64(x, y),
                                 _mm256_and_si256(lt, vp));
        } else {
            r = CondSub(_mm256_add_epi64(x, y), vp);
        }
        Store(dst + k, r);
    }
    for (; k < n; ++k) {
        const u64 s = fold_b ? FoldLazy(b[k], p) : b[k];
        dst[k] = kSubtract ? SubMod(a[k], s, p) : AddMod(a[k], s, p);
    }
}

void
AddRows(u64 *dst, const u64 *a, const u64 *b, std::size_t n, u64 p,
        bool fold_b)
{
    AddSubRows<false>(dst, a, b, n, p, fold_b);
}

void
SubRows(u64 *dst, const u64 *a, const u64 *b, std::size_t n, u64 p,
        bool fold_b)
{
    AddSubRows<true>(dst, a, b, n, p, fold_b);
}

void
FoldLazyRows(u64 *x, std::size_t n, u64 p)
{
    const __m256i vp = Bcast(p), v2p = Bcast(2 * p);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        Store(x + k, FoldVec(Load(x + k), vp, v2p));
    }
    for (; k < n; ++k) {
        x[k] = FoldLazy(x[k], p);
    }
}

void
FoldRescaleRows(u64 *dst, const u64 *src, std::size_t n, u64 p, u64 s,
                u64 s_bar)
{
    const __m256i vp = Bcast(p), vs = Bcast(s), vsb = Bcast(s_bar);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        const __m256i folded =
            CondSub(_mm256_add_epi64(Load(dst + k), Load(src + k)), vp);
        const __m256i q = MulHiU64(folded, vsb);
        const __m256i r =
            _mm256_sub_epi64(MulLoU64(folded, vs), MulLoU64(q, vp));
        Store(dst + k, CondSub(r, vp));
    }
    for (; k < n; ++k) {
        dst[k] = MulModShoup(AddMod(dst[k], src[k], p), s, s_bar, p);
    }
}

}  // namespace

namespace internal {

bool
Avx2CompiledIn()
{
    return true;
}

const Kernels &
Avx2Kernels()
{
    // Production table: measured hybrid. The Shoup-style kernels (one
    // mulhi + two mullo per element, branchless corrections) win big
    // on AVX2 — the forward butterfly ~3x, scalar-Shoup rows and the
    // fused epilogues comfortably. The 128-bit Barrett reduction tree
    // (mul, mul-acc, 64-bit reduce, tensor) does NOT: ~19 pmuludq per
    // four lanes loses to four hardware 64x64 mulx chains on current
    // Intel cores (~0.8x measured; a later run disagreed, see
    // ARCHITECTURE.md "The Barrett question"), so those entries borrow
    // the scalar implementation. Outputs are bit-identical either way.
    static const Kernels table = {
        &FwdButterflyRows,
        &FwdButterflyStage,
        &InvButterflyRows,
        &InvButterflyStage,
        &FwdButterflyStage4,
        &InvButterflyStage4,
        &MulShoupRows,
        ScalarKernels().mul_barrett_rows,
        ScalarKernels().mul_acc_barrett_rows,
        ScalarKernels().reduce_barrett_rows,
        &AddRows,
        &SubRows,
        &FoldLazyRows,
        &FoldRescaleRows,
        ScalarKernels().tensor_rows,
        ScalarKernels().divide_round_rows,
    };
    return table;
}

}  // namespace internal

}  // namespace hentt::simd

#else  // !defined(__AVX2__)

namespace hentt::simd::internal {

bool
Avx2CompiledIn()
{
    return false;
}

const Kernels &
Avx2Kernels()
{
    return ScalarKernels();
}

}  // namespace hentt::simd::internal

#endif  // defined(__AVX2__)
