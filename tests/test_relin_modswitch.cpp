/**
 * Tests for the fused Relinearize→ModSwitch pipeline stage and the
 * scheme scratch arena: bit-identity against the unfused chain at
 * every level of the modulus chain, the machine-checked element-wise
 * pass saving (NttOpCounts), the HeOpGraph node kind, and the
 * steady-state zero-allocation contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

// The benches' heap-allocation counter (operator new replacement),
// included once so the zero-allocation claims are tests.
#include "../bench/harness.h"
#include "common/failpoint.h"
#include "common/modarith.h"
#include "common/status.h"
#include "he/ciphertext_batch.h"
#include "he/he_graph.h"
#include "he/scratch_arena.h"
#include "ntt/ntt_engine.h"
#include "poly/rns_poly.h"

namespace hentt::he {
namespace {

constexpr std::size_t kNp = 4;

HeParams
ChainParams()
{
    HeParams params;
    params.degree = 64;
    params.prime_count = kNp;
    params.prime_bits = 50;
    params.plain_modulus = 257;
    return params;
}

class RelinModSwitchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ctx_ = std::make_shared<HeContext>(ChainParams());
        scheme_ = std::make_unique<BgvScheme>(ctx_, /*seed=*/13);
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

    /** A degree-2 product of fresh encryptions, switched down to
     *  @p level primes before the Mul. */
    Ciphertext
    ProductAtLevel(std::size_t level, u64 seed_a, u64 seed_b) const
    {
        Ciphertext a = scheme_->Encrypt(*sk_, RandomPlain(seed_a));
        Ciphertext b = scheme_->Encrypt(*sk_, RandomPlain(seed_b));
        while (BgvScheme::Level(a) > level) {
            a = scheme_->ModSwitch(a);
            b = scheme_->ModSwitch(b);
        }
        return scheme_->Mul(a, b);
    }

    static void
    ExpectBitIdentical(const Ciphertext &x, const Ciphertext &y)
    {
        ASSERT_EQ(x.parts.size(), y.parts.size());
        for (std::size_t j = 0; j < x.parts.size(); ++j) {
            ASSERT_EQ(&x.parts[j].context(), &y.parts[j].context());
            EXPECT_EQ(x.parts[j].domain(), y.parts[j].domain());
            for (std::size_t l = 0; l < x.parts[j].prime_count(); ++l) {
                EXPECT_TRUE(std::ranges::equal(x.parts[j].row(l),
                                               y.parts[j].row(l)))
                    << "part " << j << " limb " << l;
            }
        }
    }

    std::shared_ptr<HeContext> ctx_;
    std::unique_ptr<BgvScheme> scheme_;
    std::optional<SecretKey> sk_;
    std::optional<RelinKey> rk_;
};

// ---------------------------------------------------------------------
// Bit-identity with the unfused chain, at every level of the chain
// ---------------------------------------------------------------------

TEST_F(RelinModSwitchTest, FusedMatchesUnfusedAtEveryLevel)
{
    // Every level that can legally modulus-switch: np down to 2 (the
    // last legal one lands at a single remaining prime).
    for (std::size_t level = kNp; level >= 2; --level) {
        const Plaintext ma = RandomPlain(100 + level);
        const Plaintext mb = RandomPlain(200 + level);
        Ciphertext a = scheme_->Encrypt(*sk_, ma);
        Ciphertext b = scheme_->Encrypt(*sk_, mb);
        while (BgvScheme::Level(a) > level) {
            a = scheme_->ModSwitch(a);
            b = scheme_->ModSwitch(b);
        }
        const Ciphertext prod = scheme_->Mul(a, b);

        const Ciphertext unfused =
            scheme_->ModSwitch(scheme_->Relinearize(prod, *rk_));
        const Ciphertext fused = scheme_->RelinModSwitch(prod, *rk_);

        ASSERT_EQ(BgvScheme::Level(fused), level - 1)
            << "level " << level;
        ExpectBitIdentical(fused, unfused);
        EXPECT_EQ(scheme_->Decrypt(*sk_, fused), PlainMul(ma, mb))
            << "level " << level;
    }
}

TEST_F(RelinModSwitchTest, FusedRejectsLastPrime)
{
    // A ciphertext already at one prime can relinearize but not
    // modulus-switch; the fused op must refuse rather than underflow
    // the chain.
    const Ciphertext prod = ProductAtLevel(1, 1, 2);
    // Chain exhaustion is a precondition failure (kFailedPrecondition),
    // not a malformed argument: the ciphertext is perfectly valid, it
    // just sits at the bottom of the modulus chain.
    EXPECT_THROW((void)scheme_->RelinModSwitch(prod, *rk_),
                 PreconditionError);
    // The unfused Relinearize still works there.
    EXPECT_EQ(BgvScheme::Level(scheme_->Relinearize(prod, *rk_)), 1u);
}

TEST_F(RelinModSwitchTest, BatchedMixedLevelsMatchScalar)
{
    const Ciphertext top = ProductAtLevel(kNp, 3, 4);
    const Ciphertext low = ProductAtLevel(kNp - 1, 5, 6);

    Ciphertext out_top, out_low;
    const Ciphertext *src[] = {&top, &low};
    Ciphertext *dst[] = {&out_top, &out_low};
    BatchRelinModSwitch(*ctx_, *rk_, src, dst);

    ExpectBitIdentical(out_top,
                       scheme_->ModSwitch(scheme_->Relinearize(top, *rk_)));
    ExpectBitIdentical(out_low,
                       scheme_->ModSwitch(scheme_->Relinearize(low, *rk_)));
}

// ---------------------------------------------------------------------
// Op-count budget: the fused stage saves the inverse-stage sweeps
// ---------------------------------------------------------------------

TEST_F(RelinModSwitchTest, FusedSavesInverseStagePasses)
{
    const Ciphertext prod = ProductAtLevel(kNp, 7, 8);

    ResetNttOpCounts();
    (void)scheme_->ModSwitch(scheme_->Relinearize(prod, *rk_));
    const NttOpCounts unfused = GetNttOpCounts();

    ResetNttOpCounts();
    (void)scheme_->RelinModSwitch(prod, *rk_);
    const NttOpCounts fused = GetNttOpCounts();

    // Transform budget is identical: np^2 digit forwards, 2*np
    // accumulator inverse rows (the dropped prime's row is still
    // inverse-transformed — the divide-and-round consumes it).
    EXPECT_EQ(unfused.forward, kNp * kNp);
    EXPECT_EQ(fused.forward, kNp * kNp);
    EXPECT_EQ(unfused.inverse, 2 * kNp);
    EXPECT_EQ(fused.inverse, 2 * kNp);

    // Standalone element-wise sweeps (destination limb rows): both
    // chains pay the digit lift (np^2) and gadget accumulation
    // (2*np^2). The unfused chain then sweeps the (c0, c1) fold
    // (2*np), the alpha pre-scaling (2*np), and the divide-and-round
    // (2*(np-1)) as separate dispatches; the fused stage folds the
    // first two into the inverse dispatch and keeps only the
    // divide-and-round.
    EXPECT_EQ(unfused.elementwise,
              3 * kNp * kNp + 2 * kNp + 2 * kNp + 2 * (kNp - 1));
    EXPECT_EQ(fused.elementwise, 3 * kNp * kNp + 2 * (kNp - 1));
    EXPECT_EQ(unfused.elementwise - fused.elementwise, 4 * kNp);
}

// ---------------------------------------------------------------------
// HeOpGraph: the fused wavefront node
// ---------------------------------------------------------------------

TEST_F(RelinModSwitchTest, GraphRelinModSwitchMatchesScalarChain)
{
    const Plaintext ma = RandomPlain(21);
    const Plaintext mb = RandomPlain(22);
    const Plaintext mc = RandomPlain(23);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture x = graph.Input(scheme_->Encrypt(*sk_, ma));
    const CtFuture y = graph.Input(scheme_->Encrypt(*sk_, mb));
    const CtFuture z = graph.Input(scheme_->Encrypt(*sk_, mc));

    // Two independent fused nodes land in one wavefront and batch.
    const CtFuture xy = graph.MulRelinModSwitch(x, y);
    const CtFuture zz = graph.MulRelinModSwitch(z, z);
    const CtFuture sum = graph.Add(xy, zz);

    EXPECT_FALSE(sum.ready());
    const Ciphertext &result = sum.get();
    EXPECT_TRUE(xy.ready());
    EXPECT_EQ(graph.pending(), 0u);
    EXPECT_EQ(BgvScheme::Level(result), kNp - 1);

    const u64 t = ctx_->params().plain_modulus;
    const Plaintext p_xy = PlainMul(ma, mb);
    const Plaintext p_zz = PlainMul(mc, mc);
    const Plaintext dec = scheme_->Decrypt(*sk_, result);
    for (std::size_t i = 0; i < dec.size(); ++i) {
        EXPECT_EQ(dec[i], AddMod(p_xy[i], p_zz[i], t));
    }
}

TEST_F(RelinModSwitchTest, GraphNodeBitIdenticalToScalarFusedOp)
{
    const Plaintext ma = RandomPlain(31);
    const Plaintext mb = RandomPlain(32);
    const Ciphertext a = scheme_->Encrypt(*sk_, ma);
    const Ciphertext b = scheme_->Encrypt(*sk_, mb);

    HeOpGraph graph(*scheme_, &*rk_);
    const CtFuture fa = graph.Input(a);
    const CtFuture fb = graph.Input(b);
    const CtFuture fused = graph.RelinModSwitch(graph.Mul(fa, fb));

    const Ciphertext scalar =
        scheme_->RelinModSwitch(scheme_->Mul(a, b), *rk_);
    ExpectBitIdentical(fused.get(), scalar);
}

// ---------------------------------------------------------------------
// Scratch arena: steady-state zero allocations
// ---------------------------------------------------------------------

TEST_F(RelinModSwitchTest, SteadyStateRelinModSwitchDoesNotAllocate)
{
    const Ciphertext prod = ProductAtLevel(kNp, 41, 42);
    Ciphertext out;
    const Ciphertext *src[] = {&prod};
    Ciphertext *dst[] = {&out};

    // Warm-up: sizes the arena pools and the reused output.
    BatchRelinModSwitch(*ctx_, *rk_, src, dst);
    BatchRelinModSwitch(*ctx_, *rk_, src, dst);

    const long long before = bench::AllocCount();
    BatchRelinModSwitch(*ctx_, *rk_, src, dst);
    const long long allocs = bench::AllocCount() - before;
    EXPECT_EQ(allocs, 0) << "steady-state fused op touched the heap";

    // The result is still the real thing, not a stale buffer.
    ExpectBitIdentical(out,
                       scheme_->ModSwitch(scheme_->Relinearize(prod, *rk_)));
}

TEST_F(RelinModSwitchTest, SteadyStateRelinearizeDoesNotAllocate)
{
    const Ciphertext prod = ProductAtLevel(kNp, 43, 44);
    Ciphertext out;
    const Ciphertext *src[] = {&prod};
    Ciphertext *dst[] = {&out};

    BatchRelinearize(*ctx_, *rk_, src, dst);
    BatchRelinearize(*ctx_, *rk_, src, dst);

    const long long before = bench::AllocCount();
    BatchRelinearize(*ctx_, *rk_, src, dst);
    const long long allocs = bench::AllocCount() - before;
    EXPECT_EQ(allocs, 0) << "steady-state Relinearize touched the heap";

    ExpectBitIdentical(out, scheme_->Relinearize(prod, *rk_));
}

TEST_F(RelinModSwitchTest, ConcurrentOpsOnOneContextSerialize)
{
    // Two threads driving arena-backed ops on ONE shared context must
    // serialise through the arena mutex (ScratchArena::OpScope)
    // instead of corrupting each other's scratch.
    const Ciphertext prod_a = ProductAtLevel(kNp, 51, 52);
    const Ciphertext prod_b = ProductAtLevel(kNp, 53, 54);
    const Ciphertext ref_a =
        scheme_->ModSwitch(scheme_->Relinearize(prod_a, *rk_));
    const Ciphertext ref_b =
        scheme_->ModSwitch(scheme_->Relinearize(prod_b, *rk_));

    for (int round = 0; round < 8; ++round) {
        Ciphertext out_a, out_b;
        std::thread worker([&] {
            const Ciphertext *src[] = {&prod_a};
            Ciphertext *dst[] = {&out_a};
            BatchRelinModSwitch(*ctx_, *rk_, src, dst);
        });
        {
            const Ciphertext *src[] = {&prod_b};
            Ciphertext *dst[] = {&out_b};
            BatchRelinModSwitch(*ctx_, *rk_, src, dst);
        }
        worker.join();
        ExpectBitIdentical(out_a, ref_a);
        ExpectBitIdentical(out_b, ref_b);
    }
}

TEST_F(RelinModSwitchTest, ArenaSurvivesLevelChangesAndAliasing)
{
    // Alternating levels through one arena must not cross-contaminate,
    // and out[i] aliasing in[i] is part of the kernel contract.
    const Ciphertext top = ProductAtLevel(kNp, 45, 46);
    const Ciphertext low = ProductAtLevel(kNp - 1, 47, 48);

    const Ciphertext ref_top =
        scheme_->ModSwitch(scheme_->Relinearize(top, *rk_));
    const Ciphertext ref_low =
        scheme_->ModSwitch(scheme_->Relinearize(low, *rk_));

    for (int round = 0; round < 3; ++round) {
        Ciphertext a = top;  // aliased in/out
        Ciphertext b = low;
        {
            const Ciphertext *src[] = {&a};
            Ciphertext *dst[] = {&a};
            BatchRelinModSwitch(*ctx_, *rk_, src, dst);
        }
        {
            const Ciphertext *src[] = {&b};
            Ciphertext *dst[] = {&b};
            BatchRelinModSwitch(*ctx_, *rk_, src, dst);
        }
        ExpectBitIdentical(a, ref_top);
        ExpectBitIdentical(b, ref_low);
    }
}

// ---------------------------------------------------------------------
// Containment: arena exhaustion, overflow canaries, injected faults
// ---------------------------------------------------------------------

TEST_F(RelinModSwitchTest, ArenaExhaustionIsContainedAndRecoverable)
{
    const Ciphertext prod = ProductAtLevel(kNp, 61, 62);
    const Ciphertext ref =
        scheme_->ModSwitch(scheme_->Relinearize(prod, *rk_));

    // One scratch polynomial is nowhere near enough for the fused op:
    // the mid-op exhaustion must come back as a Status (never a crash,
    // never a partially-written output observable as success).
    ctx_->scratch().SetPolyBudget(1);
    const Result<Ciphertext> starved =
        scheme_->TryRelinModSwitch(prod, *rk_);
    ASSERT_FALSE(starved.ok());
    EXPECT_EQ(starved.status().code(), ErrorCode::kResourceExhausted);
    bool arena_frame = false, op_frame = false;
    for (const std::string &frame : starved.status().frames()) {
        arena_frame = arena_frame ||
                      frame.find("ScratchArena") != std::string::npos;
        op_frame = op_frame ||
                   frame.find("TryRelinModSwitch") != std::string::npos;
    }
    EXPECT_TRUE(arena_frame) << starved.status().ToString();
    EXPECT_TRUE(op_frame) << starved.status().ToString();

    // Lifting the budget makes the identical call succeed,
    // bit-identical to the never-faulted reference.
    ctx_->scratch().SetPolyBudget(0);
    const Result<Ciphertext> healed =
        scheme_->TryRelinModSwitch(prod, *rk_);
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    ExpectBitIdentical(*healed, ref);
}

TEST_F(RelinModSwitchTest, DoubleResetScratchIsIdempotent)
{
    // ResetScratch twice in a row (same level, then a different one)
    // must leave a well-formed polynomial with intact guard words —
    // the failure mode would be a stale limb count or lost canary.
    RnsPoly poly(ctx_->ntt_context());
    poly.ResetScratch(ctx_->level_context(2), /*zero=*/true);
    poly.ResetScratch(ctx_->level_context(2), /*zero=*/true);
    EXPECT_EQ(poly.prime_count(), 2u);
    EXPECT_TRUE(poly.ScratchCanaryIntact());
    for (std::size_t l = 0; l < poly.prime_count(); ++l) {
        for (const u64 v : poly.row(l)) {
            EXPECT_EQ(v, 0u);
        }
    }
    // Growing back to the full level re-plants the guards too.
    poly.ResetScratch(ctx_->ntt_context(), /*zero=*/true);
    EXPECT_EQ(poly.prime_count(), kNp);
    EXPECT_TRUE(poly.ScratchCanaryIntact());
}

TEST_F(RelinModSwitchTest, SmashedCanaryIsReportedAtTheNextOpScope)
{
    ScratchArena &arena = ctx_->scratch();
    {
        const ScratchArena::OpScope scope(arena);
        RnsPoly &poly = arena.NextPoly(ctx_->ntt_context(), true);
        // Simulate a kernel writing one element past the last residue
        // row: the first guard word sits right behind it (still inside
        // the allocation, so sanitizer builds stay quiet — the canary
        // exists precisely to catch what ASan cannot see here).
        u64 *past =
            poly.row(poly.prime_count() - 1).data() + poly.degree();
        past[0] = 0xDEADBEEFu;
    }
    try {
        const ScratchArena::OpScope scope(arena);
        FAIL() << "smashed canary went unreported";
    } catch (const RuntimeStatusError &e) {
        EXPECT_EQ(e.status().code(), ErrorCode::kInternal);
        EXPECT_NE(e.status().message().find("scratch overflow"),
                  std::string::npos);
        EXPECT_NE(e.status().message().find("1 smashed canary"),
                  std::string::npos);
        ASSERT_FALSE(e.status().frames().empty());
        EXPECT_NE(e.status().frames()[0].find("ScratchArena::OpScope"),
                  std::string::npos);
    }
    // Containment: the guards were re-planted while reporting, so the
    // arena is clean again and real ops keep working.
    EXPECT_NO_THROW({ const ScratchArena::OpScope scope(arena); });
    const Ciphertext prod = ProductAtLevel(kNp, 63, 64);
    ExpectBitIdentical(
        scheme_->RelinModSwitch(prod, *rk_),
        scheme_->ModSwitch(scheme_->Relinearize(prod, *rk_)));
}

TEST_F(RelinModSwitchTest, ArenaAllocFailpointInjectsAndReplaysClean)
{
    if (!fp::kCompiledIn) {
        GTEST_SKIP() << "failpoint sites compiled out of this build";
    }
    const Ciphertext prod = ProductAtLevel(kNp, 65, 66);
    const Ciphertext ref =
        scheme_->ModSwitch(scheme_->Relinearize(prod, *rk_));
    {
        const fp::Scoped arm(fp::kArenaAlloc, 1.0);
        const Result<Ciphertext> faulted =
            scheme_->TryRelinModSwitch(prod, *rk_);
        ASSERT_FALSE(faulted.ok());
        EXPECT_EQ(faulted.status().code(), ErrorCode::kInjected);
        bool op_frame = false;
        for (const std::string &frame : faulted.status().frames()) {
            op_frame = op_frame ||
                       frame.find("TryRelinModSwitch") !=
                           std::string::npos;
        }
        EXPECT_TRUE(op_frame) << faulted.status().ToString();
    }
    // Disarmed replay of the identical call: bit-identical result.
    const Result<Ciphertext> healed =
        scheme_->TryRelinModSwitch(prod, *rk_);
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    ExpectBitIdentical(*healed, ref);
}

}  // namespace
}  // namespace hentt::he
