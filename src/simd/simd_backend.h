/**
 * @file
 * Pluggable SIMD modular-arithmetic backend — the single home of every
 * hot element-wise and butterfly inner loop in the library.
 *
 * The paper's kernel study (Sections IV-V) shows that NTT-bound HE
 * multiplication is won or lost in exactly these loops: the lazy
 * [0, 4p) butterflies and the Shoup/Barrett element-wise sweeps. Until
 * this layer existed, each consumer (ntt/, poly/, he/, kernels/)
 * carried its own scalar copy of those bodies, so vectorizing meant
 * touching all of them. Now the loops live behind one fixed vocabulary
 * of width-agnostic kernels with
 *
 *  - a scalar reference implementation (the audited semantics; every
 *    other backend must be bit-identical to it, including the lazy
 *    [0, 4p) representatives, not merely congruent),
 *  - an AVX2 implementation (compile-time guarded, runtime CPUID
 *    dispatch), processing four residues per vector op,
 *  - an AVX-512 implementation covering the full vocabulary — the
 *    butterfly family (rows, whole stages, fused radix-4 stage pairs)
 *    AND the element-wise family — at eight residues per vector op,
 *    and
 *  - a NEON/arm64 implementation (2 x u64 lanes via uint64x2_t).
 *
 * Each ISA has exactly one kernel table. Backend selection: runtime
 * CPUID by default (best available wins: avx512 > avx2 > neon >
 * scalar), overridable with the environment variable
 * `HENTT_SIMD=scalar|avx2|avx512|neon|auto` (read once, at first use)
 * or programmatically with ForceBackend() (benches and the
 * parity tests). Requesting an unavailable backend through the
 * environment falls back to scalar with a one-line stderr warning
 * naming every backend's availability; ForceBackend() throws with the
 * same listing, so tests cannot silently measure the wrong thing.
 *
 * Adding a backend (the contract simd_neon.cpp proves): implement the
 * Kernels table in a new translation unit, declare it in
 * simd_internal.h, add a Backend member and its kAllBackends entry,
 * and register it in simd_dispatch.cpp — BackendAvailable, Get,
 * BackendName, AvailabilityReason, and the owner list of
 * DescribeKernelTable. No consumer changes.
 */

#ifndef HENTT_SIMD_SIMD_BACKEND_H
#define HENTT_SIMD_SIMD_BACKEND_H

#include <cstddef>
#include <string>

#include "common/modarith.h"

namespace hentt::simd {

/** Available kernel implementations. */
enum class Backend {
    kScalar,  ///< portable reference (always available)
    kAvx2,    ///< 4 x u64 lanes; requires compile-time -mavx2 + CPUID
    kAvx512,  ///< 8 x u64 lanes, full vocabulary; -mavx512f/dq + CPUID
    kNeon,    ///< 2 x u64 lanes via uint64x2_t (arm64 AdvSIMD)
};

/**
 * Every Backend member, in enum order — the one list tests and benches
 * iterate so a new backend joins the parity sweep and the per-backend
 * bench columns with zero per-backend edits.
 */
inline constexpr Backend kAllBackends[] = {
    Backend::kScalar, Backend::kAvx2, Backend::kAvx512, Backend::kNeon,
};

/** Number of Backend members (bench column arrays index by enum). */
inline constexpr std::size_t kBackendCount =
    sizeof(kAllBackends) / sizeof(kAllBackends[0]);

/**
 * Barrett constants of one modulus in backend-friendly form:
 * mu = floor(2^128 / p) split into words (see BarrettReducer).
 */
struct BarrettConsts {
    u64 p;
    u64 mu_lo;
    u64 mu_hi;
};

/** BarrettConsts of a cached reducer. */
inline BarrettConsts
Consts(const BarrettReducer &red)
{
    return {red.modulus(), red.mu_lo(), red.mu_hi()};
}

/**
 * Per-(source limb, target limb) constants of the BGV divide-and-round
 * step (the shared epilogue of BatchModSwitch and the fused
 * RelinModSwitch): drop prime q_k, rescale into residue row q_i.
 * mu_lo/mu_hi are q_i's Barrett constants.
 */
struct DivideRoundConsts {
    u64 qk;
    u64 t_inv_qk, t_inv_qk_bar;  ///< t^{-1} mod q_k + Shoup companion
    u64 qi;
    u64 qk_inv, qk_inv_bar;      ///< q_k^{-1} mod q_i + Shoup companion
    u64 t_mod_qi, t_mod_qi_bar;  ///< t mod q_i + Shoup companion
    u64 mu_lo, mu_hi;            ///< Barrett mu for q_i
};

/**
 * The paper's Algo. 2 lazy Cooley-Tukey butterfly on one element pair:
 * given A, B in [0, 4p), produces A' = A + B*Psi, B' = A - B*Psi with
 * both outputs in [0, 4p). This is the reference element every backend
 * must reproduce bitwise.
 *
 * @param a,b    in/out operands, each < 4p
 * @param w      twiddle < p
 * @param w_bar  Shoup companion of w
 * @param p      modulus < 2^62
 */
inline void
FwdButterflyElem(u64 &a, u64 &b, u64 w, u64 w_bar, u64 p)
{
    const u64 two_p = 2 * p;
    // Keep A below 2p before accumulating.
    if (a >= two_p) {
        a -= two_p;
    }
    // B * w with lazy Shoup reduction: result < 2p for any b < 4p
    // because the quotient approximation is exact mod 2^64.
    const u64 q = MulHi64(b, w_bar);
    const u64 t = b * w - q * p;  // < 2p
    b = a + two_p - t;            // < 4p
    a = a + t;                    // < 4p
}

/**
 * Lazy Gentleman-Sande butterfly (inverse direction): consumes
 * (u, v) both < 2p and emits (u + v folded below 2p, (u - v) * w) with
 * the product reduced lazily, so the < 2p invariant of the inverse
 * pipeline holds at every stage.
 */
inline void
InvButterflyElem(u64 &a, u64 &b, u64 w, u64 w_bar, u64 p)
{
    const u64 two_p = 2 * p;
    const u64 u = a;
    const u64 v = b;
    u64 s = u + v;  // < 4p
    if (s >= two_p) {
        s -= two_p;
    }
    a = s;
    // (u - v) * w, lazy: Harvey's bound keeps it < 2p for any 64-bit
    // multiplicand.
    const u64 d = u + two_p - v;  // < 4p
    const u64 q = MulHi64(d, w_bar);
    b = d * w - q * p;  // < 2p
}

/**
 * Fused radix-4 forward quad — two chained radix-2 CT levels on one
 * (a, b, c, d) quadruple, entirely in registers. Level one butterflies
 * the pairs (a, c) and (b, d) with the shared first-level twiddle w1;
 * level two butterflies (a, b) with w2a and (c, d) with w2b. Because it
 * is literally the composition of four FwdButterflyElem calls in the
 * same order the radix-2 stage walker would apply them, the result is
 * bit-identical to two chained radix-2 stages — lazy [0, 4p)
 * representatives included — while reading and writing each coefficient
 * once instead of twice.
 *
 * @param a,b,c,d  in/out operands, each < 4p (outputs < 4p)
 * @param w1       first-level twiddle < p (+ Shoup companion w1_bar)
 * @param w2a,w2b  second-level twiddles < p (+ Shoup companions)
 * @param p        modulus < 2^62
 */
inline void
FwdButterflyQuadElem(u64 &a, u64 &b, u64 &c, u64 &d, u64 w1, u64 w1_bar,
                     u64 w2a, u64 w2a_bar, u64 w2b, u64 w2b_bar, u64 p)
{
    FwdButterflyElem(a, c, w1, w1_bar, p);
    FwdButterflyElem(b, d, w1, w1_bar, p);
    FwdButterflyElem(a, b, w2a, w2a_bar, p);
    FwdButterflyElem(c, d, w2b, w2b_bar, p);
}

/**
 * Fused radix-4 inverse quad — two chained radix-2 GS levels, mirror of
 * FwdButterflyQuadElem. Level one butterflies the adjacent pairs (a, b)
 * with w1a and (c, d) with w1b; level two butterflies (a, c) and (b, d)
 * with the shared second-level twiddle w2. All operands stay < 2p at
 * every level (InvButterflyElem invariant), and the composition order
 * matches the radix-2 stage walker exactly.
 */
inline void
InvButterflyQuadElem(u64 &a, u64 &b, u64 &c, u64 &d, u64 w1a,
                     u64 w1a_bar, u64 w1b, u64 w1b_bar, u64 w2,
                     u64 w2_bar, u64 p)
{
    InvButterflyElem(a, b, w1a, w1a_bar, p);
    InvButterflyElem(c, d, w1b, w1b_bar, p);
    InvButterflyElem(a, c, w2, w2_bar, p);
    InvButterflyElem(b, d, w2, w2_bar, p);
}

/**
 * Barrett reduction of a 128-bit value (z_hi:z_lo) into [0, p) —
 * bitwise the BarrettReducer::Reduce pipeline, expressed over the
 * word-split constants so backends can share it.
 */
inline u64
BarrettReduce(u64 z_lo, u64 z_hi, const BarrettConsts &c)
{
    const u128 z = (static_cast<u128>(z_hi) << 64) | z_lo;
    const u128 mu = (static_cast<u128>(c.mu_hi) << 64) | c.mu_lo;
    const u128 q = Mul128High(z, mu);
    u64 r = z_lo - Lo64(q) * c.p;
    if (r >= 2 * c.p) {
        r -= 2 * c.p;
    }
    if (r >= c.p) {
        r -= c.p;
    }
    return r;
}

/**
 * The backend vocabulary: every kernel operates on contiguous rows
 * (gather-free), with POD scalar parameters so implementations stay
 * width-agnostic. Unless noted, dst may alias the first source operand
 * (in-place use) but no other; distinct rows never overlap.
 */
struct Kernels {
    /**
     * One constant-twiddle forward butterfly run: the contiguous-row
     * form of an NTT stage block. x and y are disjoint n-element runs
     * (x = a[base..base+t), y = a[base+t..base+2t)); every pair
     * (x[k], y[k]) goes through FwdButterflyElem with one (w, w_bar).
     */
    void (*fwd_butterfly_rows)(u64 *x, u64 *y, std::size_t n, u64 w,
                               u64 w_bar, u64 p);

    /**
     * One whole forward NTT stage — m blocks of t interleaved pairs,
     * block j spanning a[2jt..2jt+2t) with twiddles (w[j], w_bar[j])
     * (pointers into the bit-reversed table at offset m). Gather-free
     * by construction: while t >= kMinButterflyRun a block is two
     * contiguous rows with a broadcast twiddle; the short-run tail
     * stages (t < kMinButterflyRun) use in-register shuffles with the
     * contiguous twiddle slice. One indirect call per stage, not per
     * block, so the dispatch cost is O(log N) per transform.
     */
    void (*fwd_butterfly_stage)(u64 *a, const u64 *w, const u64 *w_bar,
                                std::size_t m, std::size_t t, u64 p);

    /** Constant-twiddle inverse (GS) butterfly run; see
     *  fwd_butterfly_rows. */
    void (*inv_butterfly_rows)(u64 *x, u64 *y, std::size_t n, u64 w,
                               u64 w_bar, u64 p);

    /** One whole inverse NTT stage: h blocks of t interleaved pairs,
     *  block j using (w[j], w_bar[j]) at table offset h; see
     *  fwd_butterfly_stage. */
    void (*inv_butterfly_stage)(u64 *a, const u64 *w, const u64 *w_bar,
                                std::size_t h, std::size_t t, u64 p);

    /**
     * One fused radix-4 forward stage pair: m super-blocks of 4q
     * coefficients, each super-block j spanning a[4jq..4jq+4q) split
     * into quarters (A, B, C, D) of q contiguous elements. Executes two
     * consecutive radix-2 CT levels per call (FwdButterflyQuadElem on
     * every (A[k], B[k], C[k], D[k]) column), so each coefficient is
     * read and written once for two butterfly levels — the pass count
     * over the data drops from log N to ceil(log N / 2).
     *
     * Twiddles come from the stage-major interleaved layout
     * (TwiddleTable::FusedStage): @p pairs holds the first-level
     * (w, w_bar) pair of super-block j at pairs[2j..2j+2); @p quads
     * holds its two second-level twiddles as
     * (w2a, w2a_bar, w2b, w2b_bar) at quads[4j..4j+4). Both streams are
     * consumed strictly sequentially, so the short-run tail stages
     * (q < kMinButterflyRun) need no gathers.
     *
     * Bit-identical to chaining fwd_butterfly_stage twice (levels m
     * then 2m of the radix-2 walker), lazy representatives included.
     */
    void (*fwd_butterfly_stage4)(u64 *a, const u64 *pairs,
                                 const u64 *quads, std::size_t m,
                                 std::size_t q, u64 p);

    /**
     * One fused radix-4 inverse stage pair, mirror of
     * fwd_butterfly_stage4: m super-blocks of 4q coefficients running
     * two consecutive radix-2 GS levels per call
     * (InvButterflyQuadElem). Here @p quads holds the *first*-level
     * twiddles of super-block j — (w1a, w1a_bar, w1b, w1b_bar) at
     * quads[4j..4j+4) — and @p pairs the shared second-level
     * (w2, w2_bar) pair at pairs[2j..2j+2) (the GS direction fans
     * twiddles the opposite way). All values stay < 2p per the inverse
     * pipeline invariant.
     */
    void (*inv_butterfly_stage4)(u64 *a, const u64 *quads,
                                 const u64 *pairs, std::size_t m,
                                 std::size_t q, u64 p);

    /**
     * Element-wise Shoup multiply by one constant, strict output:
     * dst[k] = MulModShoup(src[k], s, s_bar, p) < p for any 64-bit
     * src[k] (lazy [0, 4p) inputs included). dst == src allowed.
     */
    void (*mul_shoup_rows)(u64 *dst, const u64 *src, std::size_t n,
                           u64 s, u64 s_bar, u64 p);

    /**
     * Element-wise Barrett product dst[k] = a[k] * b[k] mod p.
     * Tolerates lazy [0, 4p) operands (16p^2 < 2^128 for p < 2^62).
     * dst may alias a and/or b.
     */
    void (*mul_barrett_rows)(u64 *dst, const u64 *a, const u64 *b,
                             std::size_t n, BarrettConsts c);

    /**
     * Fused multiply-accumulate dst[k] = (a[k] * b[k] + dst[k]) mod p
     * with a single Barrett reduction per element. @pre dst[k] < p;
     * a, b may be lazy (< 4p, p < 2^61 for the 32p^2 + p headroom).
     */
    void (*mul_acc_barrett_rows)(u64 *dst, const u64 *a, const u64 *b,
                                 std::size_t n, BarrettConsts c);

    /**
     * Barrett reduction of 64-bit residues into [0, p):
     * dst[k] = src[k] mod p. The CRT digit broadcast of
     * relinearization. dst == src allowed.
     */
    void (*reduce_barrett_rows)(u64 *dst, const u64 *src, std::size_t n,
                                BarrettConsts c);

    /**
     * dst[k] = AddMod(a[k], b'[k], p) where b' folds lazy [0, 4p)
     * values of b when fold_b is set. @pre a[k] < p. dst may alias a
     * or b.
     */
    void (*add_rows)(u64 *dst, const u64 *a, const u64 *b,
                     std::size_t n, u64 p, bool fold_b);

    /** dst[k] = SubMod(a[k], b'[k], p); see add_rows. */
    void (*sub_rows)(u64 *dst, const u64 *a, const u64 *b,
                     std::size_t n, u64 p, bool fold_b);

    /** Fold lazy [0, 4p) residues back into [0, p), in place. */
    void (*fold_lazy_rows)(u64 *x, std::size_t n, u64 p);

    /**
     * The fused RelinModSwitch rescale epilogue, run while the
     * inverse-transformed row is cache-hot:
     * dst[k] = MulModShoup(AddMod(dst[k], src[k], p), s, s_bar, p).
     */
    void (*fold_rescale_rows)(u64 *dst, const u64 *src, std::size_t n,
                              u64 p, u64 s, u64 s_bar);

    /**
     * The BGV tensor stage over one limb row: c0 = a0*b0,
     * c1 = a0*b1 + a1*b0 (one reduction for the 129-bit sum),
     * c2 = a1*b1, all mod p. Inputs may be lazy (< 4p; needs
     * 32p^2 < 2^128, i.e. p < 2^61). Outputs do not alias inputs.
     */
    void (*tensor_rows)(u64 *c0, u64 *c1, u64 *c2, const u64 *a0,
                        const u64 *a1, const u64 *b0, const u64 *b1,
                        std::size_t n, BarrettConsts c);

    /**
     * BGV divide-and-round: dst[k] = (src[k] - delta_k) * q_k^{-1}
     * mod q_i with delta_k the centered representative of
     * t * [top[k] * t^{-1}]_{q_k} — the exact, plaintext-clean rescale
     * shared by BatchModSwitch and the fused RelinModSwitch.
     */
    void (*divide_round_rows)(u64 *dst, const u64 *src, const u64 *top,
                              std::size_t n, const DivideRoundConsts &c);
};

/**
 * Below this run length a butterfly stage uses the *_tail kernels
 * (in-register shuffles) instead of the contiguous-row form — one
 * AVX2 vector of u64 lanes.
 */
inline constexpr std::size_t kMinButterflyRun = 4;

/** The kernel table of an explicit backend (always constructed;
 *  kAvx2 falls back to the scalar table when unavailable — check
 *  BackendAvailable first when the distinction matters). */
const Kernels &Get(Backend backend);

/** The runtime-dispatched active table (env override > CPUID). */
const Kernels &Active();

/** The backend Active() currently resolves to. */
Backend ActiveBackend();

/**
 * Force the active backend (benches / parity tests).
 * @throws std::invalid_argument when the backend is not available on
 *         this build/CPU; the message names every backend's
 *         availability (compiled-out vs missing CPUID feature).
 */
void ForceBackend(Backend backend);

/** Drop a ForceBackend override and re-resolve from the environment /
 *  CPUID. */
void ResetBackend();

/** Whether a backend is compiled in AND supported by this CPU. */
bool BackendAvailable(Backend backend);

/** Short stable name ("scalar", "avx2") for logs and bench columns. */
const char *BackendName(Backend backend);

/**
 * Why a backend is or is not usable right now: "available",
 * "not compiled in (...)", or "CPU lacks ...". Stable enough for
 * error messages and the HENTT_SIMD fallback warning, not a parse
 * target.
 */
const char *AvailabilityReason(Backend backend);

/** One line per backend: "name: reason" — the listing ForceBackend
 *  errors and the HENTT_SIMD fallback warning embed. */
std::string DescribeAvailability();

/**
 * Debug helper: which translation unit each of the 16 kernel slots of
 * @p backend's table actually resolves to (one "slot -> tu" line per
 * slot), so borrowed-slot fallbacks — e.g. a table borrowing the
 * scalar Barrett family — are visible instead of silent.
 */
std::string DescribeKernelTable(Backend backend);

}  // namespace hentt::simd

#endif  // HENTT_SIMD_SIMD_BACKEND_H
