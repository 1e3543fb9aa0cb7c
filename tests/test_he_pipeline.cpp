/** Tests for the GPU-side HE-multiply cost composition, plus the
 *  steady-state allocation contract of the CPU batched op set (the
 *  ScratchArena covers BatchMul/BatchAdd/BatchModSwitch too, not just
 *  relinearization — see the companion checks in
 *  test_relin_modswitch.cpp). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>

// The benches' heap-allocation counter (operator new replacement),
// included once so the zero-allocation claims are tests.
#include "../bench/harness.h"
#include "he/ciphertext_batch.h"
#include "kernels/config_search.h"
#include "kernels/he_pipeline.h"

namespace hentt::kernels {
namespace {

TEST(HadamardKernel, StreamsThreeOperands)
{
    const auto k = HadamardKernel(1 << 14, 8);
    const double data = (1 << 14) * 8.0 * 8;
    EXPECT_DOUBLE_EQ(k.dram_read_bytes, 2 * data);
    EXPECT_DOUBLE_EQ(k.dram_write_bytes, data);
}

TEST(EstimateHeMultiply, PartsSumAndShareInPaperBand)
{
    const gpu::Simulator sim;
    const auto cfg = FindBestSmemConfig(sim, 1 << 15, 21, 8, 2).config;
    const auto est = EstimateHeMultiply(sim, cfg, 21);
    EXPECT_NEAR(est.total_us,
                est.ntt.total_us + est.elementwise.total_us, 1e-9);
    // Paper Section I: NTT/iNTT is 34-50% of the multiply; our
    // composition omits relinearization, so allow a wider band.
    EXPECT_GT(est.ntt_share, 0.3);
    EXPECT_LT(est.ntt_share, 0.95);
}

TEST(EstimateHeMultiply, NttDominatesAcrossPaperSizes)
{
    // Transforms are O(N log N) against the Hadamard passes' O(N); at
    // small N launch overhead pads the transform side further. Across
    // the paper's sizes the NTT share stays dominant and bounded.
    const gpu::Simulator sim;
    for (unsigned log_n = 13; log_n <= 17; ++log_n) {
        const std::size_t n = std::size_t{1} << log_n;
        const auto cfg = FindBestSmemConfig(sim, n, 21, 8, 2).config;
        const double share =
            EstimateHeMultiply(sim, cfg, 21).ntt_share;
        EXPECT_GT(share, 0.5) << "logN " << log_n;
        EXPECT_LT(share, 0.95) << "logN " << log_n;
    }
}

TEST(EstimateHeMultiply, SevenTransformsWorthOfTraffic)
{
    const gpu::Simulator sim;
    const auto cfg = FindBestSmemConfig(sim, 1 << 14, 8, 8, 0).config;
    const SmemKernel ntt(cfg);
    const double one = sim.Estimate(ntt.Plan(8)).dram_bytes;
    const auto est = EstimateHeMultiply(sim, cfg, 8);
    EXPECT_NEAR(est.ntt.dram_bytes, 7 * one, 1.0);
}

TEST(EstimateRelinearize, EvalDomainKeysCutTransformsAndTime)
{
    const gpu::Simulator sim;
    const auto cfg = FindBestSmemConfig(sim, 1 << 14, 8, 8, 0).config;
    const auto eval = EstimateRelinearize(sim, cfg, 8, true);
    const auto coeff = EstimateRelinearize(sim, cfg, 8, false);
    // np^2 digit forwards vs. 4*np^2 re-transforms; 2*np inverse rows
    // vs. 2*np^2.
    EXPECT_EQ(eval.forward_transforms, 8u * 8u);
    EXPECT_EQ(coeff.forward_transforms, 4u * 8u * 8u);
    EXPECT_EQ(eval.inverse_transforms, 2u * 8u);
    EXPECT_EQ(coeff.inverse_transforms, 2u * 8u * 8u);
    EXPECT_LT(eval.forward_transforms, coeff.forward_transforms);
    EXPECT_LT(eval.total_us, coeff.total_us);
    EXPECT_NEAR(eval.total_us,
                eval.ntt.total_us + eval.elementwise.total_us, 1e-9);
}

TEST(EstimateRelinModSwitch, FusionCutsElementwiseNotTransforms)
{
    const gpu::Simulator sim;
    const auto cfg = FindBestSmemConfig(sim, 1 << 14, 8, 8, 0).config;
    const auto fused = EstimateRelinModSwitch(sim, cfg, 8, true);
    const auto unfused = EstimateRelinModSwitch(sim, cfg, 8, false);
    // The transform budget is fusion-invariant (np digit forwards + 2
    // accumulator inverses); what fusion removes is the fold and
    // alpha-rescale sweeps between the inverse and the divide-round.
    EXPECT_NEAR(fused.ntt.total_us, unfused.ntt.total_us, 1e-9);
    EXPECT_EQ(unfused.elementwise_passes, 3u * 8u + 6u);
    EXPECT_EQ(fused.elementwise_passes, 3u * 8u + 2u);
    EXPECT_EQ(unfused.elementwise_passes - fused.elementwise_passes, 4u);
    EXPECT_LT(fused.elementwise.total_us, unfused.elementwise.total_us);
    EXPECT_LT(fused.total_us, unfused.total_us);
    EXPECT_NEAR(fused.total_us,
                fused.ntt.total_us + fused.elementwise.total_us, 1e-9);
}

}  // namespace
}  // namespace hentt::kernels

namespace hentt::he {
namespace {

class BatchAllocTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        HeParams params;
        params.degree = 64;
        params.prime_count = 3;
        params.prime_bits = 50;
        params.plain_modulus = 257;
        ctx_ = std::make_shared<HeContext>(params);
        scheme_ = std::make_unique<BgvScheme>(ctx_, /*seed=*/17);
        sk_.emplace(scheme_->KeyGen());
        Plaintext ma(params.degree, 1), mb(params.degree, 2);
        ct_a_.emplace(scheme_->Encrypt(*sk_, ma));
        ct_b_.emplace(scheme_->Encrypt(*sk_, mb));
    }

    /** Allocations across @p reps steady-state calls of @p op (after
     *  two warm-up calls that size the arena and the reused outputs). */
    template <typename Op>
    long long
    SteadyStateAllocs(Op &&op, int reps = 5) const
    {
        op();
        op();
        const long long before = bench::AllocCount();
        for (int r = 0; r < reps; ++r) {
            op();
        }
        return bench::AllocCount() - before;
    }

    std::shared_ptr<HeContext> ctx_;
    std::unique_ptr<BgvScheme> scheme_;
    std::optional<SecretKey> sk_;
    std::optional<Ciphertext> ct_a_, ct_b_;
};

TEST_F(BatchAllocTest, SteadyStateBatchMulDoesNotAllocate)
{
    Ciphertext out;
    const Ciphertext *a[] = {&*ct_a_};
    const Ciphertext *b[] = {&*ct_b_};
    Ciphertext *dst[] = {&out};
    const long long allocs = SteadyStateAllocs(
        [&] { BatchMul(*ctx_, a, b, dst); });
    EXPECT_EQ(allocs, 0) << "steady-state BatchMul touched the heap";

    // The result is still the real product, not a stale buffer.
    const Ciphertext ref = scheme_->Mul(*ct_a_, *ct_b_);
    ASSERT_EQ(out.parts.size(), ref.parts.size());
    for (std::size_t j = 0; j < out.parts.size(); ++j) {
        for (std::size_t l = 0; l < out.parts[j].prime_count(); ++l) {
            EXPECT_TRUE(std::ranges::equal(out.parts[j].row(l),
                                           ref.parts[j].row(l)));
        }
    }
}

TEST_F(BatchAllocTest, SteadyStateBatchMulSharedOperandDoesNotAllocate)
{
    // Squaring interns the shared parts once — the intern scan itself
    // must also stay off the heap.
    Ciphertext out;
    const Ciphertext *a[] = {&*ct_a_};
    Ciphertext *dst[] = {&out};
    const long long allocs = SteadyStateAllocs(
        [&] { BatchMul(*ctx_, a, a, dst); });
    EXPECT_EQ(allocs, 0);
}

TEST_F(BatchAllocTest, SteadyStateBatchAddDoesNotAllocate)
{
    Ciphertext out;
    const Ciphertext *a[] = {&*ct_a_};
    const Ciphertext *b[] = {&*ct_b_};
    Ciphertext *dst[] = {&out};
    const long long allocs = SteadyStateAllocs(
        [&] { BatchAdd(*ctx_, a, b, dst); });
    EXPECT_EQ(allocs, 0) << "steady-state BatchAdd touched the heap";
}

TEST_F(BatchAllocTest, SteadyStateBatchModSwitchDoesNotAllocate)
{
    Ciphertext out;
    const Ciphertext *a[] = {&*ct_a_};
    Ciphertext *dst[] = {&out};
    const long long allocs = SteadyStateAllocs(
        [&] { BatchModSwitch(*ctx_, a, dst); });
    EXPECT_EQ(allocs, 0) << "steady-state BatchModSwitch touched the heap";
    EXPECT_EQ(BgvScheme::Level(out),
              ctx_->params().prime_count - 1);
}

}  // namespace
}  // namespace hentt::he
