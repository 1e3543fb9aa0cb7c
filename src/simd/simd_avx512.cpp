/**
 * @file
 * AVX-512 backend: eight u64 residues per vector op, covering the
 * butterfly family (constant-twiddle rows, whole radix-2 stages, and
 * the fused radix-4 stage pairs). Compiled with -mavx512f -mavx512dq
 * when the toolchain supports them (see CMakeLists); callers reach
 * this table only after the runtime CPUID check in simd_dispatch.cpp.
 *
 * The 512-bit ISA removes both AVX2 butterfly bottlenecks at once:
 *
 *  - vpmullq (AVX-512DQ) produces the low 64 bits of a 64x64 product
 *    in one instruction, replacing the AVX2 partial-product assembly
 *    for the two low products of every Shoup multiply (the exact high
 *    product still uses the 32x32 tree — kept term-for-term identical
 *    to common/int128.h, so every kernel is bit-identical to the
 *    scalar reference, lazy [0, 4p) representatives included);
 *  - vpminuq turns every lazy conditional correction into sub + min
 *    (min(a, a - bound) == a >= bound ? a - bound : a, for any
 *    unsigned a, bound — the wraparound makes the subtracted form
 *    larger exactly when the correction must not fire);
 *  - 32 vector registers hold the fused radix-4 four-row working set,
 *    its six twiddle broadcasts, and the butterfly temporaries without
 *    spilling — the reason the AVX2 table executes the fused contract
 *    as two sweeps while this one genuinely fuses (see simd_avx2.cpp).
 *
 * The short-run tail stages of the fused walker (quarter q in
 * {1, 2, 4}) use single-instruction two-source permutes (vpermi2q /
 * vshufi64x2) over the interleaved twiddle streams, so even the last
 * butterfly levels of a transform run gather-free in one pass.
 *
 * The element-wise family is native here too — the Shoup kernels get
 * the same vpmullq + vpminuq treatment as the butterflies, and the
 * 128-bit Barrett reduction family runs the partial-product tree in
 * 512-bit form, which flips PR 4's AVX2-era hybrid verdict: with
 * vpmullq covering every low product, eight lanes amortize the tree
 * past the scalar mulx loops on every kernel including the branchy
 * divide-and-round (mask blends replace its data-dependent centering
 * branch). Per-kernel measurements in ARCHITECTURE.md.
 */

#include "simd/simd_internal.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace hentt::simd {

namespace {

// ------------------------------------------------------------- helpers
//
// Loads, the branchless vpminuq correction, the 64x64 product halves,
// the 128-bit partial-product tree, and the eight-lane Barrett/Shoup
// reduction pipelines. Every routine is exact 128-bit integer
// arithmetic (no approximation anywhere), so any kernel composed from
// these matches the scalar reference bitwise — the parity sweep in
// tests/test_simd_kernels.cpp checks exactly that, lazy [0, 4p)
// representatives included.

inline __m512i
Load(const u64 *p)
{
    return _mm512_loadu_si512(p);
}

inline void
Store(u64 *p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

inline __m512i
Bcast(u64 x)
{
    return _mm512_set1_epi64(static_cast<long long>(x));
}

/** a >= bound ? a - bound : a, branch-free for any unsigned operands:
 *  a - bound wraps above a exactly when a < bound. */
inline __m512i
CondSub(__m512i a, __m512i bound)
{
    return _mm512_min_epu64(a, _mm512_sub_epi64(a, bound));
}

/** High 64 bits of the unsigned 64x64 product — the same partial-
 *  product tree as the AVX2 backend / common/int128.h, eight lanes. */
inline __m512i
MulHiU64(__m512i x, __m512i y)
{
    const __m512i lo32 = Bcast(0xffffffffu);
    const __m512i xh = _mm512_srli_epi64(x, 32);
    const __m512i yh = _mm512_srli_epi64(y, 32);
    const __m512i ll = _mm512_mul_epu32(x, y);
    const __m512i lh = _mm512_mul_epu32(x, yh);
    const __m512i hl = _mm512_mul_epu32(xh, y);
    const __m512i hh = _mm512_mul_epu32(xh, yh);
    const __m512i cross = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                         _mm512_and_si512(lh, lo32)),
        _mm512_and_si512(hl, lo32));
    return _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(lh, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(hl, 32),
                         _mm512_srli_epi64(cross, 32)));
}

/** Low 64 bits of the unsigned 64x64 product: vpmullq, one
 *  instruction — the AVX-512DQ edge over the AVX2 tree. */
inline __m512i
MulLoU64(__m512i x, __m512i y)
{
    return _mm512_mullo_epi64(x, y);
}

struct V512 {
    __m512i lo, hi;
};

/** Full 64x64 -> 128-bit product: vpmullq low half, tree high half. */
inline V512
MulFullU64(__m512i x, __m512i y)
{
    V512 r;
    r.lo = _mm512_mullo_epi64(x, y);
    r.hi = MulHiU64(x, y);
    return r;
}

/** Full 64x32 -> 96-bit product (y32 has zero high halves). */
inline V512
MulFullU64x32(__m512i x, __m512i y32)
{
    const __m512i lo32 = Bcast(0xffffffffu);
    const __m512i a = _mm512_mul_epu32(x, y32);
    const __m512i b = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), y32);
    const __m512i s = _mm512_add_epi64(_mm512_srli_epi64(a, 32),
                                       _mm512_and_si512(b, lo32));
    V512 r;
    r.lo = _mm512_or_si512(_mm512_and_si512(a, lo32),
                           _mm512_slli_epi64(s, 32));
    r.hi = _mm512_add_epi64(_mm512_srli_epi64(b, 32),
                            _mm512_srli_epi64(s, 32));
    return r;
}

/** hi + carry(sum = a + addend): the mask compare replaces AVX2's
 *  subtract-an-all-ones-mask carry idiom. */
inline __m512i
AddCarry(__m512i hi, __m512i sum, __m512i addend)
{
    const __mmask8 carry = _mm512_cmplt_epu64_mask(sum, addend);
    return _mm512_mask_add_epi64(hi, carry, hi, Bcast(1));
}

/**
 * Barrett reduction of (z.hi:z.lo) into [0, p) — the Mul128High tree
 * of BarrettReduce over word-split constants, restricted to
 * mu_hi < 2^32 (every modulus above 2^32; callers delegate the
 * tiny-modulus remainder to the scalar table) and to the low quotient
 * word (the only part the residual needs).
 */
inline __m512i
BarrettReduceVec(V512 z, __m512i vp, __m512i v2p, __m512i vmu_lo,
                 __m512i vmu_hi)
{
    const __m512i h_ll = MulHiU64(z.lo, vmu_lo);
    const V512 lh = MulFullU64x32(z.lo, vmu_hi);
    const __m512i mid_lo = _mm512_add_epi64(lh.lo, h_ll);
    const __m512i mid_hi = AddCarry(lh.hi, mid_lo, h_ll);
    const V512 hl = MulFullU64(z.hi, vmu_lo);
    const __m512i mid2_lo = _mm512_add_epi64(hl.lo, mid_lo);
    const __m512i mid2_hi = AddCarry(hl.hi, mid2_lo, mid_lo);
    const __m512i hh_lo = MulLoU64(z.hi, vmu_hi);
    const __m512i q =
        _mm512_add_epi64(hh_lo, _mm512_add_epi64(mid_hi, mid2_hi));
    __m512i r = _mm512_sub_epi64(z.lo, MulLoU64(q, vp));
    r = CondSub(r, v2p);
    return CondSub(r, vp);
}

/** z_hi == 0 specialisation of BarrettReduceVec: the quotient's low
 *  word collapses to hi64(z*mu_hi + hi64(z*mu_lo)). */
inline __m512i
ReduceBarrett64Vec(__m512i z, __m512i vp, __m512i v2p, __m512i vmu_lo,
                   __m512i vmu_hi)
{
    const __m512i h_ll = MulHiU64(z, vmu_lo);
    const V512 lh = MulFullU64x32(z, vmu_hi);
    const __m512i mid_lo = _mm512_add_epi64(lh.lo, h_ll);
    const __m512i q = AddCarry(lh.hi, mid_lo, h_ll);
    __m512i r = _mm512_sub_epi64(z, MulLoU64(q, vp));
    r = CondSub(r, v2p);
    return CondSub(r, vp);
}

/** MulModShoup on eight lanes, strict output < p for any 64-bit x. */
inline __m512i
MulModShoupVec(__m512i x, __m512i vs, __m512i vsb, __m512i vp)
{
    const __m512i q = MulHiU64(x, vsb);
    const __m512i r =
        _mm512_sub_epi64(MulLoU64(x, vs), MulLoU64(q, vp));
    return CondSub(r, vp);
}

/** FoldLazy on eight lanes: [0, 4p) -> [0, p). */
inline __m512i
FoldVec(__m512i x, __m512i vp, __m512i v2p)
{
    return CondSub(CondSub(x, v2p), vp);
}

/** The lazy CT butterfly core on eight lanes (FwdButterflyElem). */
inline void
FwdCore(__m512i &x, __m512i &y, __m512i vw, __m512i vwb, __m512i vp,
        __m512i v2p)
{
    x = CondSub(x, v2p);
    const __m512i q = MulHiU64(y, vwb);
    const __m512i t = _mm512_sub_epi64(_mm512_mullo_epi64(y, vw),
                                       _mm512_mullo_epi64(q, vp));
    y = _mm512_sub_epi64(_mm512_add_epi64(x, v2p), t);
    x = _mm512_add_epi64(x, t);
}

/** The lazy GS butterfly core on eight lanes (InvButterflyElem). */
inline void
InvCore(__m512i &x, __m512i &y, __m512i vw, __m512i vwb, __m512i vp,
        __m512i v2p)
{
    const __m512i u = x;
    const __m512i v = y;
    x = CondSub(_mm512_add_epi64(u, v), v2p);
    const __m512i d =
        _mm512_sub_epi64(_mm512_add_epi64(u, v2p), v);
    const __m512i q = MulHiU64(d, vwb);
    y = _mm512_sub_epi64(_mm512_mullo_epi64(d, vw),
                         _mm512_mullo_epi64(q, vp));
}

// ---------------------------------------------------------------- rows

void
FwdButterflyRows(u64 *x, u64 *y, std::size_t n, u64 w, u64 w_bar, u64 p)
{
    const __m512i vp = Bcast(p), v2p = Bcast(2 * p);
    const __m512i vw = Bcast(w), vwb = Bcast(w_bar);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        __m512i a = Load(x + k), b = Load(y + k);
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
    const __m512i vp = Bcast(p), v2p = Bcast(2 * p);
    const __m512i vw = Bcast(w), vwb = Bcast(w_bar);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        __m512i a = Load(x + k), b = Load(y + k);
        InvCore(a, b, vw, vwb, vp, v2p);
        Store(x + k, a);
        Store(y + k, b);
    }
    for (; k < n; ++k) {
        InvButterflyElem(x[k], y[k], w, w_bar, p);
    }
}

// --------------------------------------------------------------- stages

/** Run length below which a whole radix-2 stage is delegated to the
 *  AVX2 table (its ymm row form and unpack tails fit t in {1, 2, 4}
 *  better than 512-bit vectors do). */
constexpr std::size_t kZmmRun = 8;

void
FwdButterflyStage(u64 *a, const u64 *w, const u64 *w_bar, std::size_t m,
                  std::size_t t, u64 p)
{
    if (t < kZmmRun) {
        internal::Avx2Kernels().fwd_butterfly_stage(a, w, w_bar, m, t,
                                                    p);
        return;
    }
    for (std::size_t j = 0; j < m; ++j) {
        u64 *x = a + 2 * j * t;
        FwdButterflyRows(x, x + t, t, w[j], w_bar[j], p);
    }
}

void
InvButterflyStage(u64 *a, const u64 *w, const u64 *w_bar, std::size_t h,
                  std::size_t t, u64 p)
{
    if (t < kZmmRun) {
        internal::Avx2Kernels().inv_butterfly_stage(a, w, w_bar, h, t,
                                                    p);
        return;
    }
    for (std::size_t j = 0; j < h; ++j) {
        u64 *x = a + 2 * j * t;
        InvButterflyRows(x, x + t, t, w[j], w_bar[j], p);
    }
}

// -------------------------------------------------- fused radix-4 stages
//
// Same geometry as the scalar/AVX2 fused kernels: super-block j is
// quarters (A, B, C, D) of q contiguous elements, twiddles stream from
// the interleaved pair/quad layout. The row form (q >= 8) keeps two
// columns in flight so the chained two-level butterfly latency
// overlaps; the q in {1, 2, 4} tails use vshufi64x2 / vpermi2q
// single-instruction permutes with index vectors hoisted out of the
// loop.

/** Lane-index vector for _mm512_permutex2var_epi64 (0-7 first source,
 *  8-15 second source). */
inline __m512i
Idx(long long a, long long b, long long c, long long d, long long e,
    long long f, long long g, long long h)
{
    return _mm512_setr_epi64(a, b, c, d, e, f, g, h);
}

void
FwdStage4Rows(u64 *a, const u64 *pairs, const u64 *quads, std::size_t m,
              std::size_t q, u64 p)
{
    const __m512i vp = Bcast(p), v2p = Bcast(2 * p);
    for (std::size_t j = 0; j < m; ++j) {
        u64 *blk = a + 4 * j * q;
        const u64 w1 = pairs[2 * j], w1b = pairs[2 * j + 1];
        const u64 w2a = quads[4 * j], w2ab = quads[4 * j + 1];
        const u64 w2b = quads[4 * j + 2], w2bb = quads[4 * j + 3];
        const __m512i vw1 = Bcast(w1), vw1b = Bcast(w1b);
        const __m512i vw2a = Bcast(w2a), vw2ab = Bcast(w2ab);
        const __m512i vw2b = Bcast(w2b), vw2bb = Bcast(w2bb);
        std::size_t k = 0;
        // Two columns per iteration: the second column's level-one
        // butterflies fill the ports while the first column's level
        // two waits on its own level-one results.
        for (; k + 16 <= q; k += 16) {
            __m512i a0 = Load(blk + k), a1 = Load(blk + k + 8);
            __m512i b0 = Load(blk + q + k), b1 = Load(blk + q + k + 8);
            __m512i c0 = Load(blk + 2 * q + k);
            __m512i c1 = Load(blk + 2 * q + k + 8);
            __m512i d0 = Load(blk + 3 * q + k);
            __m512i d1 = Load(blk + 3 * q + k + 8);
            FwdCore(a0, c0, vw1, vw1b, vp, v2p);
            FwdCore(a1, c1, vw1, vw1b, vp, v2p);
            FwdCore(b0, d0, vw1, vw1b, vp, v2p);
            FwdCore(b1, d1, vw1, vw1b, vp, v2p);
            FwdCore(a0, b0, vw2a, vw2ab, vp, v2p);
            FwdCore(a1, b1, vw2a, vw2ab, vp, v2p);
            FwdCore(c0, d0, vw2b, vw2bb, vp, v2p);
            FwdCore(c1, d1, vw2b, vw2bb, vp, v2p);
            Store(blk + k, a0);
            Store(blk + k + 8, a1);
            Store(blk + q + k, b0);
            Store(blk + q + k + 8, b1);
            Store(blk + 2 * q + k, c0);
            Store(blk + 2 * q + k + 8, c1);
            Store(blk + 3 * q + k, d0);
            Store(blk + 3 * q + k + 8, d1);
        }
        for (; k + 8 <= q; k += 8) {
            __m512i va = Load(blk + k);
            __m512i vb = Load(blk + q + k);
            __m512i vc = Load(blk + 2 * q + k);
            __m512i vd = Load(blk + 3 * q + k);
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

void
InvStage4Rows(u64 *a, const u64 *quads, const u64 *pairs, std::size_t m,
              std::size_t q, u64 p)
{
    const __m512i vp = Bcast(p), v2p = Bcast(2 * p);
    for (std::size_t j = 0; j < m; ++j) {
        u64 *blk = a + 4 * j * q;
        const u64 w1a = quads[4 * j], w1ab = quads[4 * j + 1];
        const u64 w1b = quads[4 * j + 2], w1bb = quads[4 * j + 3];
        const u64 w2 = pairs[2 * j], w2b = pairs[2 * j + 1];
        const __m512i vw1a = Bcast(w1a), vw1ab = Bcast(w1ab);
        const __m512i vw1b = Bcast(w1b), vw1bb = Bcast(w1bb);
        const __m512i vw2 = Bcast(w2), vw2b = Bcast(w2b);
        std::size_t k = 0;
        for (; k + 16 <= q; k += 16) {
            __m512i a0 = Load(blk + k), a1 = Load(blk + k + 8);
            __m512i b0 = Load(blk + q + k), b1 = Load(blk + q + k + 8);
            __m512i c0 = Load(blk + 2 * q + k);
            __m512i c1 = Load(blk + 2 * q + k + 8);
            __m512i d0 = Load(blk + 3 * q + k);
            __m512i d1 = Load(blk + 3 * q + k + 8);
            InvCore(a0, b0, vw1a, vw1ab, vp, v2p);
            InvCore(a1, b1, vw1a, vw1ab, vp, v2p);
            InvCore(c0, d0, vw1b, vw1bb, vp, v2p);
            InvCore(c1, d1, vw1b, vw1bb, vp, v2p);
            InvCore(a0, c0, vw2, vw2b, vp, v2p);
            InvCore(a1, c1, vw2, vw2b, vp, v2p);
            InvCore(b0, d0, vw2, vw2b, vp, v2p);
            InvCore(b1, d1, vw2, vw2b, vp, v2p);
            Store(blk + k, a0);
            Store(blk + k + 8, a1);
            Store(blk + q + k, b0);
            Store(blk + q + k + 8, b1);
            Store(blk + 2 * q + k, c0);
            Store(blk + 2 * q + k + 8, c1);
            Store(blk + 3 * q + k, d0);
            Store(blk + 3 * q + k + 8, d1);
        }
        for (; k + 8 <= q; k += 8) {
            __m512i va = Load(blk + k);
            __m512i vb = Load(blk + q + k);
            __m512i vc = Load(blk + 2 * q + k);
            __m512i vd = Load(blk + 3 * q + k);
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

/** Broadcast pattern (word[i0] x4, word[i1] x4) from one 4-word quad
 *  at @p src (forward q == 4 second level, etc.). */
inline __m512i
SpreadQuad(const u64 *src, __m512i idx)
{
    const __m512i v = _mm512_zextsi256_si512(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(src)));
    return _mm512_permutexvar_epi64(idx, v);
}

/**
 * Forward radix-4 tail, q == 4: one 16-element super-block per
 * iteration as two zmm (A|B and C|D). Level one is a straight
 * lane-wise butterfly; level two regroups through vshufi64x2.
 */
void
FwdStage4TailQ4(u64 *a, const u64 *pairs, const u64 *quads,
                std::size_t m, __m512i vp, __m512i v2p)
{
    const __m512i bc0 = Idx(0, 0, 0, 0, 2, 2, 2, 2);
    const __m512i bc1 = Idx(1, 1, 1, 1, 3, 3, 3, 3);
    for (std::size_t j = 0; j < m; ++j) {
        __m512i v0 = Load(a + 16 * j);      // A0..A3 B0..B3
        __m512i v1 = Load(a + 16 * j + 8);  // C0..C3 D0..D3
        FwdCore(v0, v1, Bcast(pairs[2 * j]), Bcast(pairs[2 * j + 1]),
                vp, v2p);                   // (A,C), (B,D) share w1
        __m512i x = _mm512_shuffle_i64x2(v0, v1, 0x44);  // A | C
        __m512i y = _mm512_shuffle_i64x2(v0, v1, 0xEE);  // B | D
        const __m512i vw2 = SpreadQuad(quads + 4 * j, bc0);
        const __m512i vw2b = SpreadQuad(quads + 4 * j, bc1);
        FwdCore(x, y, vw2, vw2b, vp, v2p);  // (A,B) w2a, (C,D) w2b
        Store(a + 16 * j, _mm512_shuffle_i64x2(x, y, 0x44));
        Store(a + 16 * j + 8, _mm512_shuffle_i64x2(x, y, 0xEE));
    }
}

/** Inverse radix-4 tail, q == 4: mirror of FwdStage4TailQ4 with the
 *  levels swapped. */
void
InvStage4TailQ4(u64 *a, const u64 *quads, const u64 *pairs,
                std::size_t m, __m512i vp, __m512i v2p)
{
    const __m512i bc0 = Idx(0, 0, 0, 0, 2, 2, 2, 2);
    const __m512i bc1 = Idx(1, 1, 1, 1, 3, 3, 3, 3);
    for (std::size_t j = 0; j < m; ++j) {
        const __m512i v0 = Load(a + 16 * j);      // A | B
        const __m512i v1 = Load(a + 16 * j + 8);  // C | D
        __m512i x = _mm512_shuffle_i64x2(v0, v1, 0x44);  // A | C
        __m512i y = _mm512_shuffle_i64x2(v0, v1, 0xEE);  // B | D
        InvCore(x, y, SpreadQuad(quads + 4 * j, bc0),
                SpreadQuad(quads + 4 * j, bc1), vp, v2p);
        __m512i u = _mm512_shuffle_i64x2(x, y, 0x44);  // A | B
        __m512i v = _mm512_shuffle_i64x2(x, y, 0xEE);  // C | D
        InvCore(u, v, Bcast(pairs[2 * j]), Bcast(pairs[2 * j + 1]), vp,
                v2p);                          // (A,C), (B,D) share w2
        Store(a + 16 * j, u);
        Store(a + 16 * j + 8, v);
    }
}

/** Forward radix-4 tail, q == 2: two 8-element super-blocks per
 *  iteration; vpermi2q regroups the quarters for level two. */
std::size_t
FwdStage4TailQ2(u64 *a, const u64 *pairs, const u64 *quads,
                std::size_t m, __m512i vp, __m512i v2p)
{
    const __m512i bc4_0 = Idx(0, 0, 0, 0, 2, 2, 2, 2);
    const __m512i bc4_1 = Idx(1, 1, 1, 1, 3, 3, 3, 3);
    const __m512i pr2_0 = Idx(0, 0, 2, 2, 4, 4, 6, 6);
    const __m512i pr2_1 = Idx(1, 1, 3, 3, 5, 5, 7, 7);
    const __m512i gu = Idx(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i gv = Idx(2, 3, 10, 11, 6, 7, 14, 15);
    const __m512i s0 = Idx(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i s1 = Idx(4, 5, 12, 13, 6, 7, 14, 15);
    std::size_t j = 0;
    for (; j + 2 <= m; j += 2) {
        const __m512i v0 = Load(a + 8 * j);      // blk j:   A B C D
        const __m512i v1 = Load(a + 8 * j + 8);  // blk j+1: A B C D
        __m512i x = _mm512_shuffle_i64x2(v0, v1, 0x44);  // AB | AB
        __m512i y = _mm512_shuffle_i64x2(v0, v1, 0xEE);  // CD | CD
        // Level one: (A,C), (B,D), per-block w1 from the pair stream.
        const __m512i pr = _mm512_zextsi256_si512(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(pairs + 2 * j)));
        FwdCore(x, y, _mm512_permutexvar_epi64(bc4_0, pr),
                _mm512_permutexvar_epi64(bc4_1, pr), vp, v2p);
        // Level two: (A,B) w2a, (C,D) w2b, quads of both blocks.
        __m512i u = _mm512_permutex2var_epi64(x, gu, y);  // AC | AC
        __m512i v = _mm512_permutex2var_epi64(x, gv, y);  // BD | BD
        const __m512i qd = Load(quads + 4 * j);
        FwdCore(u, v, _mm512_permutexvar_epi64(pr2_0, qd),
                _mm512_permutexvar_epi64(pr2_1, qd), vp, v2p);
        Store(a + 8 * j, _mm512_permutex2var_epi64(u, s0, v));
        Store(a + 8 * j + 8, _mm512_permutex2var_epi64(u, s1, v));
    }
    return j;
}

/** Inverse radix-4 tail, q == 2. */
std::size_t
InvStage4TailQ2(u64 *a, const u64 *quads, const u64 *pairs,
                std::size_t m, __m512i vp, __m512i v2p)
{
    const __m512i pr2_0 = Idx(0, 0, 2, 2, 4, 4, 6, 6);
    const __m512i pr2_1 = Idx(1, 1, 3, 3, 5, 5, 7, 7);
    const __m512i bc4_0 = Idx(0, 0, 0, 0, 2, 2, 2, 2);
    const __m512i bc4_1 = Idx(1, 1, 1, 1, 3, 3, 3, 3);
    const __m512i gx = Idx(0, 1, 4, 5, 8, 9, 12, 13);
    const __m512i gy = Idx(2, 3, 6, 7, 10, 11, 14, 15);
    const __m512i gu = Idx(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i gv = Idx(2, 3, 10, 11, 6, 7, 14, 15);
    const __m512i s0 = Idx(0, 1, 2, 3, 8, 9, 10, 11);
    const __m512i s1 = Idx(4, 5, 6, 7, 12, 13, 14, 15);
    std::size_t j = 0;
    for (; j + 2 <= m; j += 2) {
        const __m512i v0 = Load(a + 8 * j);
        const __m512i v1 = Load(a + 8 * j + 8);
        // Level one: (A,B) w1a, (C,D) w1b.
        __m512i x = _mm512_permutex2var_epi64(v0, gx, v1);  // AC | AC
        __m512i y = _mm512_permutex2var_epi64(v0, gy, v1);  // BD | BD
        const __m512i qd = Load(quads + 4 * j);
        InvCore(x, y, _mm512_permutexvar_epi64(pr2_0, qd),
                _mm512_permutexvar_epi64(pr2_1, qd), vp, v2p);
        // Level two: (A,C), (B,D) share the per-block w2.
        __m512i u = _mm512_permutex2var_epi64(x, gu, y);  // AB | AB
        __m512i v = _mm512_permutex2var_epi64(x, gv, y);  // CD | CD
        const __m512i pr = _mm512_zextsi256_si512(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(pairs + 2 * j)));
        InvCore(u, v, _mm512_permutexvar_epi64(bc4_0, pr),
                _mm512_permutexvar_epi64(bc4_1, pr), vp, v2p);
        Store(a + 8 * j, _mm512_permutex2var_epi64(u, s0, v));
        Store(a + 8 * j + 8, _mm512_permutex2var_epi64(u, s1, v));
    }
    return j;
}

/** Forward radix-4 tail, q == 1: four 4-element super-blocks
 *  (a b c d) per iteration — the final two butterfly levels of a
 *  transform in one gather-free pass. */
std::size_t
FwdStage4TailQ1(u64 *a, const u64 *pairs, const u64 *quads,
                std::size_t m, __m512i vp, __m512i v2p)
{
    const __m512i pr2_0 = Idx(0, 0, 2, 2, 4, 4, 6, 6);
    const __m512i pr2_1 = Idx(1, 1, 3, 3, 5, 5, 7, 7);
    const __m512i gx = Idx(0, 1, 4, 5, 8, 9, 12, 13);
    const __m512i gy = Idx(2, 3, 6, 7, 10, 11, 14, 15);
    const __m512i gu = Idx(0, 8, 2, 10, 4, 12, 6, 14);
    const __m512i gv = Idx(1, 9, 3, 11, 5, 13, 7, 15);
    const __m512i ev = Idx(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i od = Idx(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512i s0 = Idx(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i s1 = Idx(4, 12, 5, 13, 6, 14, 7, 15);
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        const __m512i v0 = Load(a + 4 * j);      // a0 b0 c0 d0 a1 ...
        const __m512i v1 = Load(a + 4 * j + 8);  // a2 b2 c2 d2 a3 ...
        // Level one: (a,c), (b,d), per-block w1.
        __m512i x = _mm512_permutex2var_epi64(v0, gx, v1);  // ab x4
        __m512i y = _mm512_permutex2var_epi64(v0, gy, v1);  // cd x4
        const __m512i pr = Load(pairs + 2 * j);
        FwdCore(x, y, _mm512_permutexvar_epi64(pr2_0, pr),
                _mm512_permutexvar_epi64(pr2_1, pr), vp, v2p);
        // Level two: (a,b) w2a, (c,d) w2b.
        __m512i u = _mm512_permutex2var_epi64(x, gu, y);  // ac x4
        __m512i v = _mm512_permutex2var_epi64(x, gv, y);  // bd x4
        const __m512i q0 = Load(quads + 4 * j);
        const __m512i q1 = Load(quads + 4 * j + 8);
        FwdCore(u, v, _mm512_permutex2var_epi64(q0, ev, q1),
                _mm512_permutex2var_epi64(q0, od, q1), vp, v2p);
        Store(a + 4 * j, _mm512_permutex2var_epi64(u, s0, v));
        Store(a + 4 * j + 8, _mm512_permutex2var_epi64(u, s1, v));
    }
    return j;
}

/** Inverse radix-4 tail, q == 1. */
std::size_t
InvStage4TailQ1(u64 *a, const u64 *quads, const u64 *pairs,
                std::size_t m, __m512i vp, __m512i v2p)
{
    const __m512i pr2_0 = Idx(0, 0, 2, 2, 4, 4, 6, 6);
    const __m512i pr2_1 = Idx(1, 1, 3, 3, 5, 5, 7, 7);
    const __m512i ev = Idx(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i od = Idx(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512i gu = Idx(0, 8, 2, 10, 4, 12, 6, 14);
    const __m512i gv = Idx(1, 9, 3, 11, 5, 13, 7, 15);
    const __m512i s0 = Idx(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i s1 = Idx(4, 5, 12, 13, 6, 7, 14, 15);
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        const __m512i v0 = Load(a + 4 * j);
        const __m512i v1 = Load(a + 4 * j + 8);
        // Level one: (a,b) w1a, (c,d) w1b — the unpacked quad stream
        // lands in lane order directly.
        __m512i x = _mm512_permutex2var_epi64(v0, ev, v1);  // ac x4
        __m512i y = _mm512_permutex2var_epi64(v0, od, v1);  // bd x4
        const __m512i q0 = Load(quads + 4 * j);
        const __m512i q1 = Load(quads + 4 * j + 8);
        InvCore(x, y, _mm512_permutex2var_epi64(q0, ev, q1),
                _mm512_permutex2var_epi64(q0, od, q1), vp, v2p);
        // Level two: (a,c), (b,d) share the per-block w2.
        __m512i u = _mm512_permutex2var_epi64(x, gu, y);  // ab x4
        __m512i v = _mm512_permutex2var_epi64(x, gv, y);  // cd x4
        const __m512i pr = Load(pairs + 2 * j);
        InvCore(u, v, _mm512_permutexvar_epi64(pr2_0, pr),
                _mm512_permutexvar_epi64(pr2_1, pr), vp, v2p);
        Store(a + 4 * j, _mm512_permutex2var_epi64(u, s0, v));
        Store(a + 4 * j + 8, _mm512_permutex2var_epi64(u, s1, v));
    }
    return j;
}

void
FwdButterflyStage4(u64 *a, const u64 *pairs, const u64 *quads,
                   std::size_t m, std::size_t q, u64 p)
{
    if (q >= kZmmRun) {
        FwdStage4Rows(a, pairs, quads, m, q, p);
        return;
    }
    const __m512i vp = Bcast(p), v2p = Bcast(2 * p);
    std::size_t j = 0;
    if (q == 4) {
        FwdStage4TailQ4(a, pairs, quads, m, vp, v2p);
        return;
    }
    if (q == 2) {
        j = FwdStage4TailQ2(a, pairs, quads, m, vp, v2p);
    } else if (q == 1) {
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

void
InvButterflyStage4(u64 *a, const u64 *quads, const u64 *pairs,
                   std::size_t m, std::size_t q, u64 p)
{
    if (q >= kZmmRun) {
        InvStage4Rows(a, quads, pairs, m, q, p);
        return;
    }
    const __m512i vp = Bcast(p), v2p = Bcast(2 * p);
    std::size_t j = 0;
    if (q == 4) {
        InvStage4TailQ4(a, quads, pairs, m, vp, v2p);
        return;
    }
    if (q == 2) {
        j = InvStage4TailQ2(a, quads, pairs, m, vp, v2p);
    } else if (q == 1) {
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
//
// Eight-lane ports of the AVX2 element-wise family. The Shoup kernels
// are the butterfly multiply without the add/sub halo (one 32x32-tree
// mulhi + two vpmullq + a vpminuq correction); the Barrett kernels
// feed MulFullU64 products through the shared 512-bit reduction tree.
// All arithmetic is exact, so bit-identity with the scalar reference
// is structural, not coincidental.

void
MulShoupRows(u64 *dst, const u64 *src, std::size_t n, u64 s, u64 s_bar,
             u64 p)
{
    const __m512i vp = Bcast(p), vs = Bcast(s), vsb = Bcast(s_bar);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        Store(dst + k, MulModShoupVec(Load(src + k), vs, vsb, vp));
    }
    for (; k < n; ++k) {
        dst[k] = MulModShoup(src[k], s, s_bar, p);
    }
}

void
MulBarrettRows(u64 *dst, const u64 *a, const u64 *b, std::size_t n,
               BarrettConsts c)
{
    if (c.mu_hi >> 32) {  // modulus <= 2^32: scalar reference
        internal::ScalarKernels().mul_barrett_rows(dst, a, b, n, c);
        return;
    }
    const __m512i vp = Bcast(c.p), v2p = Bcast(2 * c.p);
    const __m512i vmu_lo = Bcast(c.mu_lo), vmu_hi = Bcast(c.mu_hi);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const V512 z = MulFullU64(Load(a + k), Load(b + k));
        Store(dst + k, BarrettReduceVec(z, vp, v2p, vmu_lo, vmu_hi));
    }
    for (; k < n; ++k) {
        const u128 z = Mul64Wide(a[k], b[k]);
        dst[k] = BarrettReduce(Lo64(z), Hi64(z), c);
    }
}

void
MulAccBarrettRows(u64 *dst, const u64 *a, const u64 *b, std::size_t n,
                  BarrettConsts c)
{
    if (c.mu_hi >> 32) {
        internal::ScalarKernels().mul_acc_barrett_rows(dst, a, b, n, c);
        return;
    }
    const __m512i vp = Bcast(c.p), v2p = Bcast(2 * c.p);
    const __m512i vmu_lo = Bcast(c.mu_lo), vmu_hi = Bcast(c.mu_hi);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        V512 z = MulFullU64(Load(a + k), Load(b + k));
        const __m512i addend = Load(dst + k);
        z.lo = _mm512_add_epi64(z.lo, addend);
        z.hi = AddCarry(z.hi, z.lo, addend);
        Store(dst + k, BarrettReduceVec(z, vp, v2p, vmu_lo, vmu_hi));
    }
    for (; k < n; ++k) {
        const u128 z = Mul64Wide(a[k], b[k]) + dst[k];
        dst[k] = BarrettReduce(Lo64(z), Hi64(z), c);
    }
}

void
ReduceBarrettRows(u64 *dst, const u64 *src, std::size_t n,
                  BarrettConsts c)
{
    if (c.mu_hi >> 32) {
        internal::ScalarKernels().reduce_barrett_rows(dst, src, n, c);
        return;
    }
    const __m512i vp = Bcast(c.p), v2p = Bcast(2 * c.p);
    const __m512i vmu_lo = Bcast(c.mu_lo), vmu_hi = Bcast(c.mu_hi);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        Store(dst + k, ReduceBarrett64Vec(Load(src + k), vp, v2p,
                                          vmu_lo, vmu_hi));
    }
    for (; k < n; ++k) {
        dst[k] = BarrettReduce(src[k], 0, c);
    }
}

template <bool kSubtract>
void
AddSubRows(u64 *dst, const u64 *a, const u64 *b, std::size_t n, u64 p,
           bool fold_b)
{
    const __m512i vp = Bcast(p), v2p = Bcast(2 * p);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i x = Load(a + k);
        __m512i y = Load(b + k);
        if (fold_b) {
            y = FoldVec(y, vp, v2p);
        }
        __m512i r;
        if constexpr (kSubtract) {
            // x < y wraps; add p back exactly there.
            const __mmask8 lt = _mm512_cmplt_epu64_mask(x, y);
            r = _mm512_sub_epi64(x, y);
            r = _mm512_mask_add_epi64(r, lt, r, vp);
        } else {
            r = CondSub(_mm512_add_epi64(x, y), vp);
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
    const __m512i vp = Bcast(p), v2p = Bcast(2 * p);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
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
    const __m512i vp = Bcast(p), vs = Bcast(s), vsb = Bcast(s_bar);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i folded =
            CondSub(_mm512_add_epi64(Load(dst + k), Load(src + k)), vp);
        Store(dst + k, MulModShoupVec(folded, vs, vsb, vp));
    }
    for (; k < n; ++k) {
        dst[k] = MulModShoup(AddMod(dst[k], src[k], p), s, s_bar, p);
    }
}

void
TensorRows(u64 *c0, u64 *c1, u64 *c2, const u64 *a0, const u64 *a1,
           const u64 *b0, const u64 *b1, std::size_t n, BarrettConsts c)
{
    if (c.mu_hi >> 32) {
        internal::ScalarKernels().tensor_rows(c0, c1, c2, a0, a1, b0, b1,
                                              n, c);
        return;
    }
    const __m512i vp = Bcast(c.p), v2p = Bcast(2 * c.p);
    const __m512i vmu_lo = Bcast(c.mu_lo), vmu_hi = Bcast(c.mu_hi);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i va0 = Load(a0 + k), va1 = Load(a1 + k);
        const __m512i vb0 = Load(b0 + k), vb1 = Load(b1 + k);
        const V512 z0 = MulFullU64(va0, vb0);
        const V512 za = MulFullU64(va0, vb1);
        const V512 zb = MulFullU64(va1, vb0);
        V512 z1;
        z1.lo = _mm512_add_epi64(za.lo, zb.lo);
        z1.hi = AddCarry(_mm512_add_epi64(za.hi, zb.hi), z1.lo, zb.lo);
        const V512 z2 = MulFullU64(va1, vb1);
        Store(c0 + k, BarrettReduceVec(z0, vp, v2p, vmu_lo, vmu_hi));
        Store(c1 + k, BarrettReduceVec(z1, vp, v2p, vmu_lo, vmu_hi));
        Store(c2 + k, BarrettReduceVec(z2, vp, v2p, vmu_lo, vmu_hi));
    }
    for (; k < n; ++k) {
        const u128 z0 = Mul64Wide(a0[k], b0[k]);
        const u128 z1 = Mul64Wide(a0[k], b1[k]) + Mul64Wide(a1[k], b0[k]);
        const u128 z2 = Mul64Wide(a1[k], b1[k]);
        c0[k] = BarrettReduce(Lo64(z0), Hi64(z0), c);
        c1[k] = BarrettReduce(Lo64(z1), Hi64(z1), c);
        c2[k] = BarrettReduce(Lo64(z2), Hi64(z2), c);
    }
}

/**
 * The BGV divide-and-round, eight lanes. The scalar kernel's
 * data-dependent centering branch (u <= qk/2 picks the positive or
 * negative representative of delta) becomes two mask blends: both
 * representatives cost one shared Shoup multiply, and the mask ops
 * are cheaper than the branch is unpredictable. Every intermediate is
 * strict (< qk, then < qi), so the vector path is bit-identical to
 * the scalar reference by exactness.
 */
void
DivideRoundRows(u64 *dst, const u64 *src, const u64 *top, std::size_t n,
                const DivideRoundConsts &c)
{
    if (c.mu_hi >> 32) {  // q_i <= 2^32: scalar reference
        internal::ScalarKernels().divide_round_rows(dst, src, top, n, c);
        return;
    }
    const __m512i vqk = Bcast(c.qk), vhalf = Bcast(c.qk / 2);
    const __m512i vti = Bcast(c.t_inv_qk), vtib = Bcast(c.t_inv_qk_bar);
    const __m512i vqi = Bcast(c.qi), v2qi = Bcast(2 * c.qi);
    const __m512i vmu_lo = Bcast(c.mu_lo), vmu_hi = Bcast(c.mu_hi);
    const __m512i vt = Bcast(c.t_mod_qi), vtb = Bcast(c.t_mod_qi_bar);
    const __m512i vki = Bcast(c.qk_inv), vkib = Bcast(c.qk_inv_bar);
    const __m512i zero = _mm512_setzero_si512();
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        // u = [top * t^{-1}]_{q_k}, centered via qk - u when u > qk/2.
        const __m512i u = MulModShoupVec(Load(top + k), vti, vtib, vqk);
        const __mmask8 neg = _mm512_cmpgt_epu64_mask(u, vhalf);
        const __m512i v = _mm512_mask_sub_epi64(u, neg, vqk, u);
        // delta = +-t * v mod q_i; the negative arm is qi - pos with
        // the pos == 0 fixpoint kept at 0.
        const __m512i r =
            ReduceBarrett64Vec(v, vqi, v2qi, vmu_lo, vmu_hi);
        const __m512i pos = MulModShoupVec(r, vt, vtb, vqi);
        __m512i negd = _mm512_sub_epi64(vqi, pos);
        negd = _mm512_mask_mov_epi64(
            negd, _mm512_cmpeq_epu64_mask(pos, zero), zero);
        const __m512i delta = _mm512_mask_mov_epi64(pos, neg, negd);
        // (src - delta) * qk^{-1} mod q_i, both operands strict.
        const __m512i x = Load(src + k);
        __m512i diff = _mm512_sub_epi64(x, delta);
        diff = _mm512_mask_add_epi64(
            diff, _mm512_cmplt_epu64_mask(x, delta), diff, vqi);
        Store(dst + k, MulModShoupVec(diff, vki, vkib, vqi));
    }
    for (; k < n; ++k) {
        const u64 u =
            MulModShoup(top[k], c.t_inv_qk, c.t_inv_qk_bar, c.qk);
        const BarrettConsts red{c.qi, c.mu_lo, c.mu_hi};
        u64 delta_mod_qi;
        if (u <= c.qk / 2) {
            delta_mod_qi = MulModShoup(BarrettReduce(u, 0, red),
                                       c.t_mod_qi, c.t_mod_qi_bar, c.qi);
        } else {
            const u64 v = c.qk - u;
            const u64 pos = MulModShoup(BarrettReduce(v, 0, red),
                                        c.t_mod_qi, c.t_mod_qi_bar, c.qi);
            delta_mod_qi = pos == 0 ? 0 : c.qi - pos;
        }
        const u64 diff = SubMod(src[k], delta_mod_qi, c.qi);
        dst[k] = MulModShoup(diff, c.qk_inv, c.qk_inv_bar, c.qi);
    }
}

}  // namespace

namespace internal {

bool
Avx512CompiledIn()
{
    return true;
}

const Kernels &
Avx512Kernels()
{
    // Full native table — no borrowed slots. At 8 lanes the measured
    // hybrid verdict is uniform: vpmullq covers every low product, so
    // the Shoup family is the butterfly multiply without the halo and
    // the 512-bit Barrett tree beats the scalar mulx loops that the
    // AVX2 production table falls back on (per-kernel numbers in
    // ARCHITECTURE.md; micro_modarith carries the ablation columns).
    static const Kernels table = {
        &FwdButterflyRows,
        &FwdButterflyStage,
        &InvButterflyRows,
        &InvButterflyStage,
        &FwdButterflyStage4,
        &InvButterflyStage4,
        &MulShoupRows,
        &MulBarrettRows,
        &MulAccBarrettRows,
        &ReduceBarrettRows,
        &AddRows,
        &SubRows,
        &FoldLazyRows,
        &FoldRescaleRows,
        &TensorRows,
        &DivideRoundRows,
    };
    return table;
}

}  // namespace internal

}  // namespace hentt::simd

#else  // !(defined(__AVX512F__) && defined(__AVX512DQ__))

namespace hentt::simd::internal {

bool
Avx512CompiledIn()
{
    return false;
}

const Kernels &
Avx512Kernels()
{
    return ScalarKernels();
}

}  // namespace hentt::simd::internal

#endif  // defined(__AVX512F__) && defined(__AVX512DQ__)
