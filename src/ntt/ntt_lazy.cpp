#include "ntt/ntt_lazy.h"

#include <stdexcept>
#include <string>

#include "common/failpoint.h"
#include "common/modarith.h"
#include "common/status.h"
#include "ntt/ntt_engine.h"
#include "simd/simd_backend.h"

namespace hentt {

namespace {

void
CheckSize(std::span<u64> a, const TwiddleTable &table)
{
    if (a.size() != table.size()) {
        throw std::invalid_argument("span size != twiddle table size");
    }
}

/**
 * Lazy-range guard at a stage boundary: every element must be < bound
 * (4p between forward stages, 2p inside the inverse walk). Active only
 * while the ntt.range_guard failpoint site is armed — the roll-free
 * Armed() query — so production stage walks pay nothing; the chaos
 * suite arms it to turn a silent range escape (which would corrupt
 * later Shoup/Barrett reductions) into a contained kInternal error at
 * the stage that produced it.
 */
inline void
GuardLazyRange(const u64 *a, std::size_t n, u64 bound, const char *walk,
               u64 stage)
{
    if (!fp::kCompiledIn || !fp::Armed(fp::kNttRangeGuard)) {
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] >= bound) {
            ThrowStatus(
                Status(ErrorCode::kInternal,
                       "lazy range violation: element " +
                           std::to_string(i) + " = " +
                           std::to_string(a[i]) + " >= " +
                           std::to_string(bound))
                    .WithFrame(std::string(walk) + " stage " +
                               std::to_string(stage)));
        }
    }
}

}  // namespace

void
NttRadix2LazyKeepRange(std::span<u64> a, const TwiddleTable &table)
{
    CheckSize(a, table);
    const std::size_t n = a.size();
    const u64 p = table.modulus();
    const simd::Kernels &simd = simd::Active();

    // Fused radix-4 stage walk: each dispatch executes TWO consecutive
    // butterfly levels while the super-block is in registers, so the
    // coefficient array is read and written ceil(log N / 2) times
    // instead of log N — the pass-count cut the paper's memory-bound
    // NTT analysis asks for. Twiddles stream from the stage-major
    // interleaved (w, w_bar) layout, so even the shuffle-tail stages
    // (quarter < 4) consume them sequentially. Outputs are
    // bit-identical to the radix-2 walk (the fused kernel is the same
    // four FwdButterflyElem applications in the same order), lazy
    // [0, 4p) representatives included.
    u64 dispatches = 0;
    for (const TwiddleTable::FusedStage &st :
         table.fused_forward_stages()) {
        HENTT_FAILPOINT(fp::kNttStage);
        simd.fwd_butterfly_stage4(a.data(), st.pairs, st.quads,
                                  st.blocks, st.quarter, p);
        ++dispatches;
        GuardLazyRange(a.data(), n, 4 * p, "NttRadix2LazyKeepRange",
                       dispatches);
    }
    if (table.has_radix2_tail()) {
        // Odd log N: one radix-2 stage remains (m = n/2, t = 1, the
        // in-register shuffle tail) from the split tables.
        HENTT_FAILPOINT(fp::kNttStage);
        const u64 *w = table.forward_words().data();
        const u64 *w_bar = table.forward_shoup_words().data();
        simd.fwd_butterfly_stage(a.data(), w + n / 2, w_bar + n / 2,
                                 n / 2, 1, p);
        ++dispatches;
        GuardLazyRange(a.data(), n, 4 * p, "NttRadix2LazyKeepRange",
                       dispatches);
    }
    AddButterflyStageDispatches(dispatches);
}

void
NttRadix2LazyKeepRangeUnfused(std::span<u64> a, const TwiddleTable &table)
{
    CheckSize(a, table);
    const std::size_t n = a.size();
    const u64 p = table.modulus();
    const simd::Kernels &simd = simd::Active();
    const u64 *w = table.forward_words().data();
    const u64 *w_bar = table.forward_shoup_words().data();

    // Radix-2 stage walk (one backend call per butterfly level, log N
    // passes over the data) — the reference the fused radix-4 walker
    // is validated and benchmarked against.
    std::size_t t = n / 2;
    u64 dispatches = 0;
    for (std::size_t m = 1; m < n; m <<= 1) {
        simd.fwd_butterfly_stage(a.data(), w + m, w_bar + m, m, t, p);
        t >>= 1;
        ++dispatches;
    }
    AddButterflyStageDispatches(dispatches);
}

void
NttRadix2Lazy(std::span<u64> a, const TwiddleTable &table)
{
    NttRadix2LazyKeepRange(a, table);
    // Outputs are < 4p; fold back into [0, p).
    simd::Active().fold_lazy_rows(a.data(), a.size(), table.modulus());
}

void
NttRadix2LazyUnfused(std::span<u64> a, const TwiddleTable &table)
{
    NttRadix2LazyKeepRangeUnfused(a, table);
    simd::Active().fold_lazy_rows(a.data(), a.size(), table.modulus());
}

void
InttRadix2Lazy(std::span<u64> a, const TwiddleTable &table)
{
    CheckSize(a, table);
    const std::size_t n = a.size();
    const u64 p = table.modulus();
    const simd::Kernels &simd = simd::Active();

    // Fused radix-4 Gentleman-Sande walk, mirror of the forward: the
    // short-run stages come first (t grows), all values stay < 2p
    // (simd::InvButterflyElem invariant), and each dispatch retires two
    // levels per pass over the data.
    u64 dispatches = 0;
    for (const TwiddleTable::FusedStage &st :
         table.fused_inverse_stages()) {
        HENTT_FAILPOINT(fp::kNttStage);
        simd.inv_butterfly_stage4(a.data(), st.quads, st.pairs,
                                  st.blocks, st.quarter, p);
        ++dispatches;
        GuardLazyRange(a.data(), n, 2 * p, "InttRadix2Lazy", dispatches);
    }
    if (table.has_radix2_tail()) {
        // Odd log N: the outermost radix-2 stage remains (h = 1,
        // t = n/2 — one contiguous-row block).
        HENTT_FAILPOINT(fp::kNttStage);
        const u64 *w = table.inverse_words().data();
        const u64 *w_bar = table.inverse_shoup_words().data();
        simd.inv_butterfly_stage(a.data(), w + 1, w_bar + 1, 1, n / 2,
                                 p);
        ++dispatches;
        GuardLazyRange(a.data(), n, 2 * p, "InttRadix2Lazy", dispatches);
    }
    AddButterflyStageDispatches(dispatches);
    // Final N^{-1} scaling; MulModShoup fully reduces any 64-bit input.
    simd.mul_shoup_rows(a.data(), a.data(), n, table.n_inv(),
                        table.n_inv_shoup(), p);
}

void
InttRadix2LazyUnfused(std::span<u64> a, const TwiddleTable &table)
{
    CheckSize(a, table);
    const std::size_t n = a.size();
    const u64 p = table.modulus();
    const simd::Kernels &simd = simd::Active();
    const u64 *w = table.inverse_words().data();
    const u64 *w_bar = table.inverse_shoup_words().data();

    // Radix-2 Gentleman-Sande walk (reference; see
    // NttRadix2LazyKeepRangeUnfused).
    std::size_t t = 1;
    u64 dispatches = 0;
    for (std::size_t m = n; m > 1; m >>= 1) {
        const std::size_t h = m / 2;
        simd.inv_butterfly_stage(a.data(), w + h, w_bar + h, h, t, p);
        t <<= 1;
        ++dispatches;
    }
    AddButterflyStageDispatches(dispatches);
    simd.mul_shoup_rows(a.data(), a.data(), n, table.n_inv(),
                        table.n_inv_shoup(), p);
}

}  // namespace hentt
