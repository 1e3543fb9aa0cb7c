/**
 * Tests for the ciphertext-level batched pipeline: HeOpGraph futures,
 * batched kernels, eval-domain relinearization keys (correctness at
 * every level of the modulus chain + NTT op-count budget).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/modarith.h"
#include "common/status.h"
#include "he/ciphertext_batch.h"
#include "he/he_graph.h"
#include "ntt/ntt_engine.h"

namespace hentt::he {
namespace {

HeParams
ChainParams()
{
    HeParams params;
    params.degree = 64;
    params.prime_count = 4;
    params.prime_bits = 50;
    params.plain_modulus = 257;
    return params;
}

/** Whether two ciphertexts hold the same residues, word for word. */
bool
SameBits(const Ciphertext &a, const Ciphertext &b)
{
    if (a.parts.size() != b.parts.size()) {
        return false;
    }
    for (std::size_t j = 0; j < a.parts.size(); ++j) {
        if (a.parts[j].prime_count() != b.parts[j].prime_count()) {
            return false;
        }
        for (std::size_t l = 0; l < a.parts[j].prime_count(); ++l) {
            if (!std::ranges::equal(a.parts[j].row(l), b.parts[j].row(l))) {
                return false;
            }
        }
    }
    return true;
}

/** Step @p graph one wavefront per call until nothing is pending,
 *  expecting PendingWavefronts() to drop by exactly one per call;
 *  returns each call's Status. */
std::vector<Status>
StepToCompletion(HeOpGraph &graph)
{
    std::vector<Status> steps;
    std::size_t left = graph.PendingWavefronts();
    while (left > 0) {
        steps.push_back(graph.ExecuteStatus(1));
        const std::size_t now = graph.PendingWavefronts();
        EXPECT_EQ(now, left - 1) << "after step " << steps.size();
        if (now != left - 1) {
            break;
        }
        left = now;
    }
    return steps;
}

class HeGraphTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ctx_ = std::make_shared<HeContext>(ChainParams());
        scheme_ = std::make_unique<BgvScheme>(ctx_, /*seed=*/7);
        sk_.emplace(scheme_->KeyGen());
        rk_.emplace(scheme_->MakeRelinKey(*sk_));
    }

    Plaintext
    RandomPlain(u64 seed) const
    {
        Xoshiro256 rng(seed);
        Plaintext m(ctx_->degree());
        for (u64 &x : m) {
            x = rng.NextBelow(ctx_->params().plain_modulus);
        }
        return m;
    }

    /** Negacyclic product of plaintexts mod t (the oracle). */
    Plaintext
    PlainMul(const Plaintext &a, const Plaintext &b) const
    {
        const u64 t = ctx_->params().plain_modulus;
        const std::size_t n = ctx_->degree();
        Plaintext c(n, 0);
        for (std::size_t k = 0; k < n; ++k) {
            u64 acc = 0;
            for (std::size_t i = 0; i <= k; ++i) {
                acc = AddMod(acc, MulModNative(a[i], b[k - i], t), t);
            }
            for (std::size_t i = k + 1; i < n; ++i) {
                acc = SubMod(acc, MulModNative(a[i], b[n + k - i], t), t);
            }
            c[k] = acc;
        }
        return c;
    }

    std::shared_ptr<HeContext> ctx_;
    std::unique_ptr<BgvScheme> scheme_;
    std::optional<SecretKey> sk_;
    std::optional<RelinKey> rk_;
};

// ---------------------------------------------------------------------
// Eval-domain relinearization keys
// ---------------------------------------------------------------------

TEST_F(HeGraphTest, RelinKeyCoversEveryLevelInEvalDomain)
{
    ASSERT_EQ(rk_->levels.size(), 4u);
    for (std::size_t level = 1; level <= 4; ++level) {
        const auto &keys = rk_->at_level(level);
        ASSERT_EQ(keys.b.size(), level);
        ASSERT_EQ(keys.a.size(), level);
        for (std::size_t j = 0; j < level; ++j) {
            EXPECT_EQ(keys.b[j].domain(), RnsPoly::Domain::kEvaluation);
            EXPECT_EQ(keys.a[j].domain(), RnsPoly::Domain::kEvaluation);
            EXPECT_EQ(keys.b[j].prime_count(), level);
        }
    }
}

TEST_F(HeGraphTest, RelinearizeForwardNttBudgetIsNpSquared)
{
    // Eval-domain keys: the only forward transforms in a Relinearize
    // are the np digit lifts — np^2 single-row NTTs, against the
    // 4*np^2 the coefficient-domain-key formulation pays (keys and
    // digits re-transformed per gadget product) — plus the 2*np rows
    // of the accumulator inverse pair.
    const std::size_t np = 4;
    const Ciphertext prod = scheme_->Mul(
        scheme_->Encrypt(*sk_, RandomPlain(1)),
        scheme_->Encrypt(*sk_, RandomPlain(2)));
    ResetNttOpCounts();
    const Ciphertext relin = scheme_->Relinearize(prod, *rk_);
    const NttOpCounts counts = GetNttOpCounts();
    EXPECT_EQ(counts.forward, np * np);
    EXPECT_LT(counts.forward, 4 * np * np);  // the old budget
    EXPECT_EQ(counts.inverse, 2 * np);
    EXPECT_EQ(relin.degree(), 1u);
}

TEST_F(HeGraphTest, MulForwardNttBudgetIsFourTimesNp)
{
    const std::size_t np = 4;
    const Ciphertext a = scheme_->Encrypt(*sk_, RandomPlain(3));
    const Ciphertext b = scheme_->Encrypt(*sk_, RandomPlain(4));
    ResetNttOpCounts();
    const Ciphertext prod = scheme_->Mul(a, b);
    const NttOpCounts counts = GetNttOpCounts();
    EXPECT_EQ(counts.forward, 4 * np);  // one per input part x limb
    EXPECT_EQ(counts.inverse, 3 * np);  // one per result part x limb
    EXPECT_EQ(prod.degree(), 2u);
}

TEST_F(HeGraphTest, MulRelinDecryptsAtEveryLevel)
{
    // The satellite acceptance test: Mul + Relinearize round-trips at
    // every level of the modulus chain, with per-level keys.
    const Plaintext ma = RandomPlain(5);
    const Plaintext mb = RandomPlain(6);
    const Plaintext expect = PlainMul(ma, mb);
    for (std::size_t drops = 0; drops + 2 <= 4; ++drops) {
        Ciphertext a = scheme_->Encrypt(*sk_, ma);
        Ciphertext b = scheme_->Encrypt(*sk_, mb);
        for (std::size_t d = 0; d < drops; ++d) {
            a = scheme_->ModSwitch(a);
            b = scheme_->ModSwitch(b);
        }
        ASSERT_EQ(BgvScheme::Level(a), 4 - drops);
        const Ciphertext relin =
            scheme_->Relinearize(scheme_->Mul(a, b), *rk_);
        EXPECT_EQ(BgvScheme::Level(relin), 4 - drops);
        EXPECT_EQ(scheme_->Decrypt(*sk_, relin), expect)
            << "level " << (4 - drops);
    }
}

TEST_F(HeGraphTest, MulRelinModSwitchChainTracksNoise)
{
    // Two multiplicative levels: Mul+Relin at level 4, switch, Mul+Relin
    // against a fresh (switched) operand at level 3, switch again. The
    // plaintext survives and the noise budget shrinks monotonically but
    // stays positive throughout.
    const Plaintext ma = RandomPlain(7);
    const Plaintext mb = RandomPlain(8);
    const Plaintext mc = RandomPlain(9);

    Ciphertext acc = scheme_->Relinearize(
        scheme_->Mul(scheme_->Encrypt(*sk_, ma),
                     scheme_->Encrypt(*sk_, mb)),
        *rk_);
    const double budget_l4 = scheme_->NoiseBudgetBits(*sk_, acc);
    acc = scheme_->ModSwitch(acc);

    Ciphertext c = scheme_->ModSwitch(scheme_->Encrypt(*sk_, mc));
    acc = scheme_->Relinearize(scheme_->Mul(acc, c), *rk_);
    const double budget_l3 = scheme_->NoiseBudgetBits(*sk_, acc);
    acc = scheme_->ModSwitch(acc);
    const double budget_l2 = scheme_->NoiseBudgetBits(*sk_, acc);

    EXPECT_GT(budget_l4, 0.0);
    EXPECT_GT(budget_l3, 0.0);
    EXPECT_GT(budget_l2, 0.0);
    EXPECT_LT(budget_l3, budget_l4);

    EXPECT_EQ(BgvScheme::Level(acc), 2u);
    EXPECT_EQ(scheme_->Decrypt(*sk_, acc),
              PlainMul(PlainMul(ma, mb), mc));
}

// ---------------------------------------------------------------------
// Batched kernels
// ---------------------------------------------------------------------

TEST_F(HeGraphTest, BatchMulMatchesScalarMul)
{
    const Ciphertext a0 = scheme_->Encrypt(*sk_, RandomPlain(10));
    const Ciphertext b0 = scheme_->Encrypt(*sk_, RandomPlain(11));
    const Ciphertext a1 = scheme_->Encrypt(*sk_, RandomPlain(12));
    const Ciphertext b1 = scheme_->Encrypt(*sk_, RandomPlain(13));

    Ciphertext out0, out1;
    const Ciphertext *lhs[] = {&a0, &a1};
    const Ciphertext *rhs[] = {&b0, &b1};
    Ciphertext *dst[] = {&out0, &out1};
    BatchMul(*ctx_, lhs, rhs, dst);

    const Ciphertext ref0 = scheme_->Mul(a0, b0);
    const Ciphertext ref1 = scheme_->Mul(a1, b1);
    ASSERT_EQ(out0.parts.size(), 3u);
    for (std::size_t j = 0; j < 3; ++j) {
        for (std::size_t l = 0; l < 4; ++l) {
            EXPECT_TRUE(std::ranges::equal(out0.parts[j].row(l),
                                           ref0.parts[j].row(l)));
            EXPECT_TRUE(std::ranges::equal(out1.parts[j].row(l),
                                           ref1.parts[j].row(l)));
        }
    }
}

TEST_F(HeGraphTest, BatchRelinearizeMixedLevels)
{
    // One batch holding ciphertexts at different levels of the chain:
    // each decomposes against its own level's keys.
    const Plaintext ma = RandomPlain(14);
    const Plaintext mb = RandomPlain(15);
    const Ciphertext top =
        scheme_->Mul(scheme_->Encrypt(*sk_, ma),
                     scheme_->Encrypt(*sk_, mb));
    const Ciphertext low = scheme_->Mul(
        scheme_->ModSwitch(scheme_->Encrypt(*sk_, ma)),
        scheme_->ModSwitch(scheme_->Encrypt(*sk_, mb)));

    Ciphertext out_top, out_low;
    const Ciphertext *src[] = {&top, &low};
    Ciphertext *dst[] = {&out_top, &out_low};
    BatchRelinearize(*ctx_, *rk_, src, dst);

    const Plaintext expect = PlainMul(ma, mb);
    EXPECT_EQ(BgvScheme::Level(out_top), 4u);
    EXPECT_EQ(BgvScheme::Level(out_low), 3u);
    EXPECT_EQ(scheme_->Decrypt(*sk_, out_top), expect);
    EXPECT_EQ(scheme_->Decrypt(*sk_, out_low), expect);
}

TEST_F(HeGraphTest, BatchMulSharedOperandTransformsOnce)
{
    // x feeds both products: interning by part address must transform
    // its parts once (6 distinct parts -> 6 forward rows x np), and the
    // results must match the scalar path.
    const std::size_t np = 4;
    const Ciphertext x = scheme_->Encrypt(*sk_, RandomPlain(40));
    const Ciphertext y = scheme_->Encrypt(*sk_, RandomPlain(41));
    const Ciphertext z = scheme_->Encrypt(*sk_, RandomPlain(42));

    Ciphertext xy, xz;
    const Ciphertext *lhs[] = {&x, &x};
    const Ciphertext *rhs[] = {&y, &z};
    Ciphertext *dst[] = {&xy, &xz};
    ResetNttOpCounts();
    BatchMul(*ctx_, lhs, rhs, dst);
    const NttOpCounts counts = GetNttOpCounts();
    EXPECT_EQ(counts.forward, 6 * np);  // not 8*np: x shared
    EXPECT_EQ(counts.inverse, 6 * np);  // 2 products x 3 parts

    const Ciphertext ref_xy = scheme_->Mul(x, y);
    const Ciphertext ref_xz = scheme_->Mul(x, z);
    for (std::size_t j = 0; j < 3; ++j) {
        for (std::size_t l = 0; l < np; ++l) {
            EXPECT_TRUE(std::ranges::equal(xy.parts[j].row(l),
                                           ref_xy.parts[j].row(l)));
            EXPECT_TRUE(std::ranges::equal(xz.parts[j].row(l),
                                           ref_xz.parts[j].row(l)));
        }
    }
}

TEST_F(HeGraphTest, BatchKernelRejectsMismatchedSpans)
{
    const Ciphertext a = scheme_->Encrypt(*sk_, RandomPlain(16));
    const Ciphertext b = scheme_->Encrypt(*sk_, RandomPlain(17));
    Ciphertext out0, out1;
    const Ciphertext *lhs[] = {&a};
    const Ciphertext *rhs[] = {&b};
    Ciphertext *two[] = {&out0, &out1};
    EXPECT_THROW(BatchMul(*ctx_, lhs, rhs, two), std::invalid_argument);
}

// ---------------------------------------------------------------------
// HeOpGraph futures + wavefront execution
// ---------------------------------------------------------------------

TEST_F(HeGraphTest, GraphMatchesScalarPipeline)
{
    const Plaintext ma = RandomPlain(18);
    const Plaintext mb = RandomPlain(19);
    const Plaintext mc = RandomPlain(20);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(scheme_->Encrypt(*sk_, ma));
    const CtFuture y = graph.Input(scheme_->Encrypt(*sk_, mb));
    const CtFuture z = graph.Input(scheme_->Encrypt(*sk_, mc));

    // Two independent MulRelins land in the same wavefront and batch.
    const CtFuture xy = graph.MulRelin(x, y);
    const CtFuture zz = graph.MulRelin(z, z);
    const CtFuture sum = graph.Add(xy, zz);

    EXPECT_FALSE(sum.ready());
    EXPECT_GT(graph.pending(), 0u);
    const Ciphertext &result = sum.get();  // forces Execute
    EXPECT_TRUE(sum.ready());
    EXPECT_TRUE(xy.ready());  // same run computed the whole graph
    EXPECT_EQ(graph.pending(), 0u);

    const u64 t = ctx_->params().plain_modulus;
    const Plaintext p_xy = PlainMul(ma, mb);
    const Plaintext p_zz = PlainMul(mc, mc);
    const Plaintext dec = scheme_->Decrypt(*sk_, result);
    for (std::size_t i = 0; i < dec.size(); ++i) {
        EXPECT_EQ(dec[i], AddMod(p_xy[i], p_zz[i], t));
    }
}

TEST_F(HeGraphTest, DiamondGraphWithModSwitch)
{
    const Plaintext ma = RandomPlain(21);
    const Plaintext mb = RandomPlain(22);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(scheme_->Encrypt(*sk_, ma));
    const CtFuture y = graph.Input(scheme_->Encrypt(*sk_, mb));
    const CtFuture s = graph.Add(x, y);
    const CtFuture d = graph.Sub(x, y);
    // (x + y) * (x - y), relinearized, then down one level.
    const CtFuture prod = graph.MulRelin(s, d);
    const CtFuture low = graph.ModSwitch(prod);
    graph.Execute();
    EXPECT_TRUE(low.ready());

    const u64 t = ctx_->params().plain_modulus;
    Plaintext sum(ctx_->degree()), diff(ctx_->degree());
    for (std::size_t i = 0; i < sum.size(); ++i) {
        sum[i] = AddMod(ma[i], mb[i], t);
        diff[i] = SubMod(ma[i], mb[i], t);
    }
    EXPECT_EQ(BgvScheme::Level(low.get()), 3u);
    EXPECT_EQ(scheme_->Decrypt(*sk_, low.get()), PlainMul(sum, diff));
}

TEST_F(HeGraphTest, GraphKeepsGrowingAfterExecute)
{
    const Plaintext ma = RandomPlain(23);
    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(scheme_->Encrypt(*sk_, ma));
    const CtFuture sq = graph.MulRelin(x, x);
    graph.Execute();
    EXPECT_TRUE(sq.ready());
    // Appending to an already-run graph re-runs only the new nodes.
    const CtFuture low = graph.ModSwitch(sq);
    EXPECT_FALSE(low.ready());
    EXPECT_EQ(scheme_->Decrypt(*sk_, low.get()), PlainMul(ma, ma));
}

TEST_F(HeGraphTest, GraphApiMisuseThrows)
{
    HeOpGraph graph(*scheme_, &*rk_);
    HeOpGraph other(*scheme_, &*rk_);
    const CtFuture x =
        graph.Input(scheme_->Encrypt(*sk_, RandomPlain(24)));
    const CtFuture foreign =
        other.Input(scheme_->Encrypt(*sk_, RandomPlain(25)));
    EXPECT_THROW(graph.Add(x, foreign), std::invalid_argument);
    EXPECT_THROW(graph.Add(x, CtFuture{}), std::invalid_argument);
    EXPECT_THROW(CtFuture{}.get(), std::logic_error);

    // Relinearize without keys only fails at execution time.
    HeOpGraph keyless(*scheme_, nullptr);
    const CtFuture a =
        keyless.Input(scheme_->Encrypt(*sk_, RandomPlain(26)));
    const CtFuture bad = keyless.MulRelin(a, a);
    EXPECT_THROW(keyless.Execute(), std::logic_error);
    (void)bad;
}

// ---------------------------------------------------------------------
// Scheduler auto-fusion: Relinearize -> ModSwitch collapses to the
// fused kernel when the Relinearize has no other consumer
// ---------------------------------------------------------------------

TEST_F(HeGraphTest, AutoFusesRelinIntoModSwitch)
{
    const Plaintext ma = RandomPlain(61);
    const Plaintext mb = RandomPlain(62);
    const Ciphertext a = scheme_->Encrypt(*sk_, ma);
    const Ciphertext b = scheme_->Encrypt(*sk_, mb);

    // Unfused chain spelled out node by node...
    HeOpGraph chained(*scheme_, &*rk_);
    const CtFuture chained_out = chained.ModSwitch(
        chained.Relinearize(chained.Mul(chained.Input(a),
                                        chained.Input(b))));
    ResetNttOpCounts();
    chained.Execute();
    const NttOpCounts auto_fused = GetNttOpCounts();

    // ...must execute with exactly the op budget of the explicit fused
    // node: the standalone fold/alpha sweeps between the ops vanish.
    HeOpGraph fused(*scheme_, &*rk_);
    const CtFuture fused_out =
        fused.MulRelinModSwitch(fused.Input(a), fused.Input(b));
    ResetNttOpCounts();
    fused.Execute();
    const NttOpCounts explicit_fused = GetNttOpCounts();

    EXPECT_EQ(auto_fused.forward, explicit_fused.forward);
    EXPECT_EQ(auto_fused.inverse, explicit_fused.inverse);
    EXPECT_EQ(auto_fused.elementwise, explicit_fused.elementwise);

    // Same bits out, and nothing left pending (the bypassed
    // Relinearize node does not count as schedulable work).
    ASSERT_EQ(chained_out.get().parts.size(),
              fused_out.get().parts.size());
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t l = 0;
             l < chained_out.get().parts[j].prime_count(); ++l) {
            EXPECT_TRUE(
                std::ranges::equal(chained_out.get().parts[j].row(l),
                                   fused_out.get().parts[j].row(l)));
        }
    }
    EXPECT_EQ(chained.pending(), 0u);
    EXPECT_EQ(scheme_->Decrypt(*sk_, chained_out.get()),
              PlainMul(ma, mb));
}

TEST_F(HeGraphTest, AutoFusionSkipsRelinWithOtherConsumers)
{
    const Ciphertext a = scheme_->Encrypt(*sk_, RandomPlain(63));
    const Ciphertext b = scheme_->Encrypt(*sk_, RandomPlain(64));

    // The Relinearize result also feeds an Add, so it must be
    // materialised — no fusion, same counts as the spelled-out chain.
    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture relin =
        graph.Relinearize(graph.Mul(graph.Input(a), graph.Input(b)));
    const CtFuture switched = graph.ModSwitch(relin);
    const CtFuture kept = graph.Add(relin, relin);
    graph.Execute();
    EXPECT_EQ(graph.pending(), 0u);

    const Ciphertext ref = scheme_->ModSwitch(
        scheme_->Relinearize(scheme_->Mul(a, b), *rk_));
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t l = 0;
             l < switched.get().parts[j].prime_count(); ++l) {
            EXPECT_TRUE(std::ranges::equal(switched.get().parts[j].row(l),
                                           ref.parts[j].row(l)));
        }
    }
    (void)kept;
}

TEST_F(HeGraphTest, BypassedRelinRevivesForLateConsumers)
{
    // A consumer enqueued AFTER the fusion pass bypassed the relin
    // node must bring it back into the schedule instead of executing
    // on an empty value.
    const Plaintext ma = RandomPlain(71);
    const Plaintext mb = RandomPlain(72);
    const Ciphertext a = scheme_->Encrypt(*sk_, ma);
    const Ciphertext b = scheme_->Encrypt(*sk_, mb);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture relin =
        graph.Relinearize(graph.Mul(graph.Input(a), graph.Input(b)));
    const CtFuture sw1 = graph.ModSwitch(relin);
    (void)sw1.get();  // fuses; relin is bypassed

    const Ciphertext ref = scheme_->Relinearize(scheme_->Mul(a, b), *rk_);

    // A second lone ModSwitch may re-fuse — the value must still be
    // right.
    const CtFuture sw2 = graph.ModSwitch(relin);
    EXPECT_EQ(BgvScheme::Level(sw2.get()), BgvScheme::Level(ref) - 1);
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t l = 0;
             l < sw2.get().parts[j].prime_count(); ++l) {
            EXPECT_TRUE(std::ranges::equal(sw2.get().parts[j].row(l),
                                           sw1.get().parts[j].row(l)));
        }
    }

    // An Add consumer forces materialisation of the bypassed node.
    const CtFuture doubled = graph.Add(relin, relin);
    const Ciphertext &sum = doubled.get();
    ASSERT_EQ(sum.parts.size(), ref.parts.size());
    for (std::size_t j = 0; j < 2; ++j) {
        const RnsBasis &basis = ref.parts[j].context().basis();
        for (std::size_t l = 0; l < ref.parts[j].prime_count(); ++l) {
            for (std::size_t k = 0; k < ref.parts[j].degree(); ++k) {
                EXPECT_EQ(sum.parts[j].row(l)[k],
                          AddMod(ref.parts[j].row(l)[k],
                                 ref.parts[j].row(l)[k],
                                 basis.prime(l)));
            }
        }
    }
}

TEST_F(HeGraphTest, DemandedRelinIsNeverBypassed)
{
    // get() on the intermediate BEFORE any Execute: the fusion pass of
    // the Execute that get() itself triggers must not bypass the
    // demanded node (it would return an empty ciphertext otherwise).
    const Plaintext ma = RandomPlain(67);
    const Plaintext mb = RandomPlain(68);
    const Ciphertext a = scheme_->Encrypt(*sk_, ma);
    const Ciphertext b = scheme_->Encrypt(*sk_, mb);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture relin =
        graph.Relinearize(graph.Mul(graph.Input(a), graph.Input(b)));
    const CtFuture switched = graph.ModSwitch(relin);

    const Ciphertext ref = scheme_->Relinearize(scheme_->Mul(a, b), *rk_);
    const Ciphertext &got = relin.get();  // first execution trigger
    ASSERT_EQ(got.parts.size(), ref.parts.size());
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t l = 0; l < got.parts[j].prime_count(); ++l) {
            EXPECT_TRUE(std::ranges::equal(got.parts[j].row(l),
                                           ref.parts[j].row(l)));
        }
    }
    // The downstream ModSwitch still computes correctly (unfused,
    // since its operand was materialised).
    EXPECT_EQ(BgvScheme::Level(switched.get()),
              BgvScheme::Level(ref) - 1);
}

TEST_F(HeGraphTest, BypassedRelinMaterialisesOnDemand)
{
    const Plaintext ma = RandomPlain(65);
    const Plaintext mb = RandomPlain(66);
    const Ciphertext a = scheme_->Encrypt(*sk_, ma);
    const Ciphertext b = scheme_->Encrypt(*sk_, mb);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture relin =
        graph.Relinearize(graph.Mul(graph.Input(a), graph.Input(b)));
    const CtFuture switched = graph.ModSwitch(relin);
    (void)switched.get();  // executes the fused node; relin bypassed
    EXPECT_FALSE(relin.ready());

    // Demanding the intermediate brings it back as a standalone op.
    const Ciphertext ref = scheme_->Relinearize(scheme_->Mul(a, b), *rk_);
    const Ciphertext &materialised = relin.get();
    ASSERT_EQ(materialised.parts.size(), ref.parts.size());
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t l = 0;
             l < materialised.parts[j].prime_count(); ++l) {
            EXPECT_TRUE(std::ranges::equal(materialised.parts[j].row(l),
                                           ref.parts[j].row(l)));
        }
    }
}

// ---------------------------------------------------------------------
// Stepped execution: one wavefront per call, bit-identical to Execute()
// ---------------------------------------------------------------------

TEST_F(HeGraphTest, SteppedExecutionIsBitIdentical)
{
    const Ciphertext a = scheme_->Encrypt(*sk_, RandomPlain(90));
    const Ciphertext b = scheme_->Encrypt(*sk_, RandomPlain(91));
    const Ciphertext c = scheme_->Encrypt(*sk_, RandomPlain(92));

    // The graphs of the whole-graph tests above, each with its
    // wavefront count after auto-fusion and the futures to compare
    // (never a bypassed node: get() would materialise it).
    struct Case {
        const char *name;
        std::size_t wavefronts;
        std::function<std::vector<CtFuture>(HeOpGraph &)> build;
    };
    const std::vector<Case> cases = {
        {"GraphMatchesScalarPipeline", 3,
         [&](HeOpGraph &g) {
             const CtFuture xy = g.MulRelin(g.Input(a), g.Input(b));
             const CtFuture zz = g.MulRelin(g.Input(c), g.Input(c));
             return std::vector<CtFuture>{xy, zz, g.Add(xy, zz)};
         }},
        {"DiamondGraphWithModSwitch", 3,
         [&](HeOpGraph &g) {
             const CtFuture x = g.Input(a);
             const CtFuture y = g.Input(b);
             const CtFuture s = g.Add(x, y);
             const CtFuture d = g.Sub(x, y);
             return std::vector<CtFuture>{
                 s, d, g.ModSwitch(g.MulRelin(s, d))};
         }},
        {"AutoFusesRelinIntoModSwitch", 2,
         [&](HeOpGraph &g) {
             return std::vector<CtFuture>{g.ModSwitch(
                 g.Relinearize(g.Mul(g.Input(a), g.Input(b))))};
         }},
    };
    for (const Case &test : cases) {
        SCOPED_TRACE(test.name);
        HeOpGraph whole(*scheme_, &*rk_);
        const std::vector<CtFuture> want = test.build(whole);
        ResetNttOpCounts();
        whole.Execute();
        const NttOpCounts whole_counts = GetNttOpCounts();

        HeOpGraph stepped(*scheme_, &*rk_);
        const std::vector<CtFuture> got = test.build(stepped);
        EXPECT_EQ(stepped.PendingWavefronts(), test.wavefronts);
        ResetNttOpCounts();
        const std::vector<Status> steps = StepToCompletion(stepped);
        const NttOpCounts stepped_counts = GetNttOpCounts();
        EXPECT_EQ(steps.size(), test.wavefronts);
        for (const Status &step : steps) {
            EXPECT_TRUE(step.ok()) << step.ToString();
        }

        EXPECT_EQ(stepped_counts.forward, whole_counts.forward);
        EXPECT_EQ(stepped_counts.inverse, whole_counts.inverse);
        EXPECT_EQ(stepped_counts.elementwise, whole_counts.elementwise);
        EXPECT_EQ(stepped.pending(), 0u);
        EXPECT_EQ(whole.pending(), 0u);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(got[i].ready()) << "future " << i;
            EXPECT_TRUE(SameBits(got[i].get(), want[i].get()))
                << "future " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Failure containment: a failed node poisons exactly its dependents
// ---------------------------------------------------------------------

TEST_F(HeGraphTest, FailedNodePoisonsOnlyItsDependents)
{
    const Ciphertext ca = scheme_->Encrypt(*sk_, RandomPlain(80));
    const Ciphertext cb = scheme_->Encrypt(*sk_, RandomPlain(81));

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(ca);
    const CtFuture y = graph.Input(cb);
    const CtFuture m = graph.Mul(x, y);
    // Adding a degree-2 product to a degree-1 fresh ciphertext is a
    // kernel-level failure that only surfaces at execution time.
    const CtFuture bad = graph.Add(m, x);
    const CtFuture poisoned = graph.ModSwitch(bad);
    // Independent consumer of the same healthy operand.
    const CtFuture good = graph.Relinearize(m);

    // Containment: Execute() settles the failure instead of unwinding.
    EXPECT_NO_THROW(graph.Execute());
    EXPECT_EQ(graph.pending(), 0u);

    // The untainted chain completed, bit-identical to the scalar path.
    ASSERT_TRUE(good.ready());
    const Ciphertext ref =
        scheme_->Relinearize(scheme_->Mul(ca, cb), *rk_);
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t l = 0; l < good.get().parts[j].prime_count();
             ++l) {
            EXPECT_TRUE(std::ranges::equal(good.get().parts[j].row(l),
                                           ref.parts[j].row(l)));
        }
    }

    // The failing node carries the kernel's Status with provenance.
    const Status bad_status = bad.status();
    EXPECT_EQ(bad_status.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(bad_status.message().find("degrees differ"),
              std::string::npos);
    bool named = false;
    for (const std::string &frame : bad_status.frames()) {
        named = named || frame.find("(Add)") != std::string::npos;
    }
    EXPECT_TRUE(named) << bad_status.ToString();

    // Its dependent is poisoned, naming the origin node and kind.
    const Status poison = poisoned.status();
    EXPECT_EQ(poison.code(), ErrorCode::kPoisoned);
    EXPECT_NE(poison.message().find("operand node"), std::string::npos);
    EXPECT_NE(poison.message().find("(Add)"), std::string::npos);

    // get() on a failed node throws through the bridge, with the
    // demanding future named in the provenance chain.
    try {
        (void)bad.get();
        FAIL() << "did not throw";
    } catch (const std::invalid_argument &e) {
        const auto *carrier = dynamic_cast<const StatusCarrier *>(&e);
        ASSERT_NE(carrier, nullptr);
        ASSERT_FALSE(carrier->status().frames().empty());
        EXPECT_NE(carrier->status().frames().back().find("CtFuture::get"),
                  std::string::npos);
    }

    // TryGet surfaces the same failure without throwing.
    const Result<const Ciphertext *> try_bad = poisoned.TryGet();
    ASSERT_FALSE(try_bad.ok());
    EXPECT_EQ(try_bad.status().code(), ErrorCode::kPoisoned);
    const Result<const Ciphertext *> try_good = good.TryGet();
    ASSERT_TRUE(try_good.ok());
    EXPECT_EQ((*try_good)->parts.size(), 2u);

    // ExecuteStatus aggregates BOTH settled failures, not just one.
    const Status aggregate = graph.ExecuteStatus();
    EXPECT_EQ(aggregate.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(aggregate.message().find("2 tasks failed"),
              std::string::npos);
}

TEST_F(HeGraphTest, PoisonCrossesStepBoundaries)
{
    // FailedNodePoisonsOnlyItsDependents, stepped: the failure settles
    // in one call and its dependent is poisoned by the next, with the
    // same Status a whole-graph Execute() gives it.
    const Ciphertext ca = scheme_->Encrypt(*sk_, RandomPlain(80));
    const Ciphertext cb = scheme_->Encrypt(*sk_, RandomPlain(81));
    struct Futures {
        CtFuture bad, poisoned, good;
    };
    const auto build = [&](HeOpGraph &g) {
        const CtFuture x = g.Input(ca);
        const CtFuture m = g.Mul(x, g.Input(cb));
        const CtFuture bad = g.Add(m, x);  // degree 2 + degree 1
        return Futures{bad, g.ModSwitch(bad), g.Relinearize(m)};
    };
    HeOpGraph whole(*scheme_, &*rk_);
    const Futures want = build(whole);
    whole.Execute();

    HeOpGraph stepped(*scheme_, &*rk_);
    const Futures got = build(stepped);
    ASSERT_EQ(stepped.PendingWavefronts(), 3u);
    EXPECT_TRUE(stepped.ExecuteStatus(1).ok());  // Mul

    // Add fails, Relinearize completes; the poison waits for the next
    // wavefront.
    const Status second = stepped.ExecuteStatus(1);
    EXPECT_EQ(second.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(got.bad.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_TRUE(got.good.ready());
    EXPECT_EQ(got.poisoned.status().code(), ErrorCode::kUnavailable);
    EXPECT_EQ(stepped.PendingWavefronts(), 1u);

    const Status third = stepped.ExecuteStatus(1);
    EXPECT_NE(third.message().find("2 tasks failed"), std::string::npos)
        << third.ToString();
    EXPECT_EQ(stepped.PendingWavefronts(), 0u);
    EXPECT_EQ(stepped.pending(), 0u);
    EXPECT_EQ(got.poisoned.status().code(), ErrorCode::kPoisoned);
    EXPECT_NE(got.poisoned.status().message().find("(Add)"),
              std::string::npos);

    // Same provenance and same healthy bits as the whole-graph run.
    EXPECT_EQ(got.bad.status().ToString(), want.bad.status().ToString());
    EXPECT_EQ(got.poisoned.status().ToString(),
              want.poisoned.status().ToString());
    EXPECT_TRUE(SameBits(got.good.get(), want.good.get()));
    EXPECT_EQ(stepped.ExecuteStatus().ToString(),
              whole.ExecuteStatus().ToString());
}

TEST_F(HeGraphTest, BatchOfOneRetryIsolatesTheFailingMember)
{
    // Two Add nodes share one wavefront batch; one member is invalid.
    // The batch kernel rejects the whole call, so the scheduler must
    // retry member-by-member: the healthy node completes bit-identically
    // and only the bad one settles with an error.
    const Ciphertext ca = scheme_->Encrypt(*sk_, RandomPlain(82));
    const Ciphertext cb = scheme_->Encrypt(*sk_, RandomPlain(83));
    const Ciphertext prod = scheme_->Mul(ca, cb);  // degree 2

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture p = graph.Input(prod);
    const CtFuture fa = graph.Input(ca);
    const CtFuture fb = graph.Input(cb);
    const CtFuture bad = graph.Add(p, fa);   // degree mismatch
    const CtFuture good = graph.Add(fa, fb); // same depth, same kind

    EXPECT_NO_THROW(graph.Execute());
    ASSERT_TRUE(good.ready());
    EXPECT_TRUE(good.status().ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);
    bool from_kernel = false;
    for (const std::string &frame : bad.status().frames()) {
        from_kernel =
            from_kernel || frame.find("BatchAdd") != std::string::npos;
    }
    EXPECT_TRUE(from_kernel) << bad.status().ToString();

    const Ciphertext ref = scheme_->Add(ca, cb);
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t l = 0; l < good.get().parts[j].prime_count();
             ++l) {
            EXPECT_TRUE(std::ranges::equal(good.get().parts[j].row(l),
                                           ref.parts[j].row(l)));
        }
    }
}

TEST_F(HeGraphTest, FutureStatusReportsUnavailableUntilExecuted)
{
    const CtFuture empty;
    EXPECT_EQ(empty.status().code(), ErrorCode::kUnavailable);
    const Result<const Ciphertext *> try_empty = empty.TryGet();
    ASSERT_FALSE(try_empty.ok());
    EXPECT_EQ(try_empty.status().code(), ErrorCode::kFailedPrecondition);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(scheme_->Encrypt(*sk_, RandomPlain(84)));
    const CtFuture s = graph.Add(x, x);
    EXPECT_EQ(s.status().code(), ErrorCode::kUnavailable);
    graph.Execute();
    EXPECT_TRUE(s.status().ok());
}

}  // namespace
}  // namespace hentt::he
