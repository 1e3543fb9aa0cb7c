/** Tests for the lazy-reduction (Harvey) butterfly pipeline. */

#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/modarith.h"
#include "common/primegen.h"
#include "common/random.h"
#include "ntt/ntt_engine.h"
#include "ntt/ntt_lazy.h"
#include "ntt/ntt_radix2.h"
#include "simd/simd_backend.h"

namespace hentt {
namespace {

class LazyNttTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>>
{
  protected:
    void
    SetUp() override
    {
        n_ = std::get<0>(GetParam());
        p_ = GenerateNttPrimes(2 * n_, std::get<1>(GetParam()), 1)[0];
        table_ = std::make_unique<TwiddleTable>(n_, p_);
    }

    std::vector<u64>
    Random(u64 seed) const
    {
        Xoshiro256 rng(seed);
        std::vector<u64> v(n_);
        for (u64 &x : v) {
            x = rng.NextBelow(p_);
        }
        return v;
    }

    std::size_t n_;
    u64 p_;
    std::unique_ptr<TwiddleTable> table_;
};

TEST_P(LazyNttTest, ForwardBitExactVsStrict)
{
    const auto a = Random(1);
    std::vector<u64> strict = a, lazy = a;
    NttRadix2(strict, *table_);
    NttRadix2Lazy(lazy, *table_);
    EXPECT_EQ(lazy, strict);
}

TEST_P(LazyNttTest, InverseBitExactVsStrict)
{
    auto a = Random(2);
    NttRadix2(a, *table_);  // valid evaluation-domain input
    std::vector<u64> strict = a, lazy = a;
    InttRadix2(strict, *table_);
    InttRadix2Lazy(lazy, *table_);
    EXPECT_EQ(lazy, strict);
}

TEST_P(LazyNttTest, LazyRoundTrip)
{
    const auto a = Random(3);
    std::vector<u64> v = a;
    NttRadix2Lazy(v, *table_);
    InttRadix2Lazy(v, *table_);
    EXPECT_EQ(v, a);
}

TEST_P(LazyNttTest, AcceptsLazyRangeInputs)
{
    // Inputs up to 4p - 1 must yield the same residues as their reduced
    // forms (the Algo. 2 precondition: 0 <= A, B < 4p).
    if (p_ >= (u64{1} << 61)) {
        GTEST_SKIP() << "4p would overflow for this prime";
    }
    Xoshiro256 rng(4);
    std::vector<u64> unreduced(n_), reduced(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        unreduced[i] = rng.NextBelow(4 * p_);
        reduced[i] = unreduced[i] % p_;
    }
    NttRadix2Lazy(unreduced, *table_);
    NttRadix2(reduced, *table_);
    EXPECT_EQ(unreduced, reduced);
}

TEST_P(LazyNttTest, FusedWalkBitExactVsUnfused)
{
    // The fused radix-4 stage walker must be bit-identical to the
    // radix-2 walk on EVERY available backend — raw keep-range outputs
    // compared, so the lazy [0, 4p) representatives must agree, not
    // merely the residues. Lazy-range inputs stress the chained
    // butterfly bounds.
    if (p_ >= (u64{1} << 61)) {
        GTEST_SKIP() << "4p would overflow for this prime";
    }
    for (const simd::Backend backend : simd::kAllBackends) {
        if (!simd::BackendAvailable(backend)) {
            continue;
        }
        SCOPED_TRACE(simd::BackendName(backend));
        simd::ForceBackend(backend);

        Xoshiro256 rng(6);
        std::vector<u64> lazy_in(n_);
        for (u64 &x : lazy_in) {
            x = rng.NextBelow(4 * p_);
        }
        std::vector<u64> fused = lazy_in, unfused = lazy_in;
        NttRadix2LazyKeepRange(fused, *table_);
        NttRadix2LazyKeepRangeUnfused(unfused, *table_);
        EXPECT_EQ(fused, unfused);

        // Strict-range inputs through the folding entry points.
        const auto a = Random(7);
        std::vector<u64> f2 = a, u2 = a;
        NttRadix2Lazy(f2, *table_);
        NttRadix2LazyUnfused(u2, *table_);
        EXPECT_EQ(f2, u2);

        // Inverse walkers on a valid evaluation-domain input.
        std::vector<u64> ev = a;
        NttRadix2(ev, *table_);
        std::vector<u64> fi = ev, ui = ev;
        InttRadix2Lazy(fi, *table_);
        InttRadix2LazyUnfused(ui, *table_);
        EXPECT_EQ(fi, ui);
        EXPECT_EQ(fi, a);
    }
    simd::ResetBackend();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LazyNttTest,
    // 32 and 128 pin the odd-log2 sizes where the fused walker must
    // finish with one radix-2 tail stage.
    ::testing::Combine(::testing::Values(8, 32, 64, 128, 512, 2048),
                       ::testing::Values(30u, 50u, 60u)));

TEST(LazyNtt, FusedWalkerDispatchCount)
{
    // The pass-count contract of the fused walker: an N-point lazy
    // transform issues ceil(log2 N / 2) butterfly stage-kernel
    // dispatches (each covering two levels; odd log2 N adds the
    // radix-2 tail which the ceil already counts), not log2 N.
    const struct {
        std::size_t n;
        u64 expected;  // ceil(log2 n / 2)
    } cases[] = {{4096, 6}, {128, 4}, {32, 3}};
    for (const auto &c : cases) {
        const u64 p = GenerateNttPrimes(2 * c.n, 50, 1)[0];
        const TwiddleTable table(c.n, p);
        Xoshiro256 rng(8);
        std::vector<u64> v(c.n);
        for (u64 &x : v) {
            x = rng.NextBelow(p);
        }
        ResetNttOpCounts();
        NttRadix2LazyKeepRange(v, table);
        EXPECT_EQ(GetNttOpCounts().butterfly_stages, c.expected)
            << "forward N=" << c.n;
        ResetNttOpCounts();
        InttRadix2Lazy(v, table);
        EXPECT_EQ(GetNttOpCounts().butterfly_stages, c.expected)
            << "inverse N=" << c.n;
        // The radix-2 reference walker still pays one dispatch (and
        // one pass) per level.
        ResetNttOpCounts();
        NttRadix2LazyKeepRangeUnfused(v, table);
        EXPECT_EQ(GetNttOpCounts().butterfly_stages,
                  static_cast<u64>(Log2Exact(c.n)))
            << "unfused N=" << c.n;
    }
}

TEST(LazyButterfly, StaysInRange)
{
    const u64 p = GenerateNttPrimes(2 * 64, 60, 1)[0];
    const TwiddleTable table(64, p);
    Xoshiro256 rng(5);
    for (int i = 0; i < 2000; ++i) {
        u64 a = rng.NextBelow(4 * p);
        u64 b = rng.NextBelow(4 * p);
        const u64 a0 = a % p, b0 = b % p;
        const std::size_t idx = 1 + rng.NextBelow(63);
        LazyButterfly(a, b, table.w(idx), table.w_shoup(idx), p);
        EXPECT_LT(a, 4 * p);
        EXPECT_LT(b, 4 * p);
        const u64 v = MulModNative(b0, table.w(idx), p);
        EXPECT_EQ(a % p, AddMod(a0, v, p));
        EXPECT_EQ(b % p, SubMod(a0, v, p));
    }
}

TEST(LazyNtt, RejectsMismatchedSpan)
{
    const u64 p = GenerateNttPrimes(2 * 64, 40, 1)[0];
    const TwiddleTable table(64, p);
    std::vector<u64> wrong(32, 0);
    EXPECT_THROW(NttRadix2Lazy(wrong, table), std::invalid_argument);
    EXPECT_THROW(InttRadix2Lazy(wrong, table), std::invalid_argument);
}

}  // namespace
}  // namespace hentt
