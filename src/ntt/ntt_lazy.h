/**
 * @file
 * Lazy-reduction (Harvey-style) radix-2 NTT — the butterfly pipeline the
 * paper's Algo. 2 actually specifies: operands live in [0, 4p) and are
 * only reduced when they would overflow, which removes the per-butterfly
 * conditional subtractions from the critical path. This is the butterfly
 * GPU implementations use (it shortens the dependent-latency chain the
 * paper's native-modulo analysis highlights); the strict-range
 * NttRadix2 keeps the library's reference semantics simple.
 *
 * Requires p < 2^62 so 4p fits in 64 bits (common/modarith.h enforces
 * this bound for every modulus in the library).
 */

#ifndef HENTT_NTT_NTT_LAZY_H
#define HENTT_NTT_NTT_LAZY_H

#include <span>

#include "ntt/twiddle_table.h"
#include "simd/simd_backend.h"

namespace hentt {

/**
 * Forward negacyclic NTT with lazy [0, 4p) butterflies (paper Algo. 2).
 * Accepts inputs < p (or more generally < 4p), produces fully reduced
 * outputs (< p) after a final correction pass. Bit-identical to
 * NttRadix2 for inputs < p.
 *
 * Executes through the fused radix-4 stage walker: each kernel
 * dispatch runs two consecutive butterfly levels in registers (fed by
 * the stage-major interleaved twiddle layout of TwiddleTable), so the
 * coefficient array is traversed ceil(log2 N / 2) times instead of
 * log2 N; an odd log2 N finishes with one radix-2 stage. Bit-identical
 * to the radix-2 walk (NttRadix2LazyUnfused) on every backend.
 */
void NttRadix2Lazy(std::span<u64> a, const TwiddleTable &table);

/**
 * The radix-2 stage walk of NttRadix2Lazy — one kernel dispatch (and
 * one O(N) pass over the data) per butterfly level. Not on any
 * production path: it is the named reference the fused radix-4 walker
 * is validated against (test_ntt_lazy, test_he_properties) and
 * benchmarked next to (micro_ntt / bench_rns_batch radix columns).
 */
void NttRadix2LazyUnfused(std::span<u64> a, const TwiddleTable &table);

/**
 * Forward lazy NTT that *keeps* the [0, 4p) output range: identical to
 * NttRadix2Lazy except the final fold-to-[0, p) pass is skipped. This
 * is the producer half of the end-to-end lazy pipeline: when the
 * consumer is an element-wise Barrett product (which tolerates 16p^2
 * operand products for p < 2^62), the N-element correction pass is pure
 * overhead and can be elided across fused op chains.
 *
 * @post every element of @p a is < 4p and congruent (mod p) to the
 *       fully reduced NttRadix2Lazy output.
 */
void NttRadix2LazyKeepRange(std::span<u64> a, const TwiddleTable &table);

/** Keep-range forward through the radix-2 stage walk (reference;
 *  bit-identical to NttRadix2LazyKeepRange). */
void NttRadix2LazyKeepRangeUnfused(std::span<u64> a,
                                   const TwiddleTable &table);

/**
 * Inverse with lazy butterflies, fully reduced natural-order output.
 * Bit-identical to InttRadix2. Runs the fused radix-4 stage walker
 * (two Gentleman-Sande levels per pass; see NttRadix2Lazy).
 */
void InttRadix2Lazy(std::span<u64> a, const TwiddleTable &table);

/** Inverse through the radix-2 stage walk (reference; bit-identical
 *  to InttRadix2Lazy). */
void InttRadix2LazyUnfused(std::span<u64> a, const TwiddleTable &table);

/**
 * The paper's Algo. 2 butterfly in isolation (for tests and docs):
 * given A, B in [0, 4p), produces A' = A + B*Psi, B' = A - B*Psi with
 * both outputs in [0, 4p). The implementation lives in the SIMD
 * backend layer (simd::FwdButterflyElem — the scalar reference every
 * vector backend is validated against); this alias keeps the paper-
 * facing name.
 *
 * @param a,b    in/out operands, each < 4p
 * @param w      twiddle < p
 * @param w_bar  Shoup companion of w
 * @param p      modulus < 2^62
 */
inline void
LazyButterfly(u64 &a, u64 &b, u64 w, u64 w_bar, u64 p)
{
    simd::FwdButterflyElem(a, b, w, w_bar, p);
}

}  // namespace hentt

#endif  // HENTT_NTT_NTT_LAZY_H
