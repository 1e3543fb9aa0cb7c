/**
 * Backend parity sweep for the SIMD modular-arithmetic layer: every
 * kernel x every available backend x degrees {16..4096} x 5 NTT primes
 * must be *bit-identical* to the scalar reference — lazy [0, 4p)
 * representatives included, not merely congruent mod p. Inputs mix
 * uniform randomness with planted lazy-range boundary values (0, 1,
 * p +/- 1, 2p +/- 1, 4p - 1) so the conditional-subtract edges of every
 * vector lane are exercised.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/primegen.h"
#include "common/random.h"
#include "ntt/ntt_engine.h"
#include "ntt/ntt_lazy.h"

namespace hentt {
namespace {

constexpr std::size_t kDegrees[] = {16, 64, 256, 1024, 4096};
constexpr unsigned kPrimeBits[] = {50, 52, 55, 58, 60};

std::vector<u64>
Primes()
{
    std::vector<u64> primes;
    for (const unsigned bits : kPrimeBits) {
        // 2 * 4096 divisibility covers every degree in the sweep.
        primes.push_back(GenerateNttPrimes(2 * 4096, bits, 1)[0]);
    }
    return primes;
}

/** Uniform values below @p bound with boundary values planted at the
 *  front (capped to the bound), exercising every correction edge. */
std::vector<u64>
Values(std::size_t n, u64 bound, u64 p, u64 seed)
{
    Xoshiro256 rng(seed);
    std::vector<u64> v(n);
    for (u64 &x : v) {
        x = rng.NextBelow(bound);
    }
    const u64 edges[] = {0,      1,          p - 1, p,     p + 1,
                         2 * p - 1, 2 * p,   2 * p + 1, 4 * p - 1};
    std::size_t slot = 0;
    for (const u64 e : edges) {
        if (e < bound && slot < n) {
            v[slot++] = e;
        }
    }
    return v;
}

using SimdParityTest = ::testing::TestWithParam<std::size_t>;

/**
 * Every non-scalar kernel table available on this host, with a label
 * for failure messages — enumerated from kAllBackends, so a new
 * backend joins the parity sweep with zero edits here. On a host with
 * no vector backend the list is empty and the sweep passes vacuously —
 * the scalar reference is the anchor, not a participant.
 */
std::vector<std::pair<std::string, const simd::Kernels *>>
VectorTables()
{
    std::vector<std::pair<std::string, const simd::Kernels *>> tables;
    for (const simd::Backend backend : simd::kAllBackends) {
        if (backend == simd::Backend::kScalar ||
            !simd::BackendAvailable(backend)) {
            continue;
        }
        tables.emplace_back(simd::BackendName(backend),
                            &simd::Get(backend));
    }
    return tables;
}

/** Rows + whole-stage parity of one table against the scalar
 *  reference, all primes, degree @p n. */
void
CheckButterflyParity(const std::string &name, const simd::Kernels &vec,
                     std::size_t n)
{
    SCOPED_TRACE(name);
    const auto &ref = simd::Get(simd::Backend::kScalar);
    for (const u64 p : Primes()) {
        // Twiddle stream: strict values < p with Shoup companions.
        const std::vector<u64> w = Values(n, p, p, 11 * p + n);
        std::vector<u64> w_bar(n);
        for (std::size_t i = 0; i < n; ++i) {
            w_bar[i] = ShoupPrecompute(w[i], p);
        }

        // Contiguous-row form (constant twiddle).
        {
            std::vector<u64> x0 = Values(n, 4 * p, p, 1 + p);
            std::vector<u64> y0 = Values(n, 4 * p, p, 2 + p);
            std::vector<u64> x1 = x0, y1 = y0;
            ref.fwd_butterfly_rows(x0.data(), y0.data(), n, w[0],
                                   w_bar[0], p);
            vec.fwd_butterfly_rows(x1.data(), y1.data(), n, w[0],
                                   w_bar[0], p);
            EXPECT_EQ(x0, x1);
            EXPECT_EQ(y0, y1);

            std::vector<u64> u0 = Values(n, 2 * p, p, 3 + p);
            std::vector<u64> v0 = Values(n, 2 * p, p, 4 + p);
            std::vector<u64> u1 = u0, v1 = v0;
            ref.inv_butterfly_rows(u0.data(), v0.data(), n, w[0],
                                   w_bar[0], p);
            vec.inv_butterfly_rows(u1.data(), v1.data(), n, w[0],
                                   w_bar[0], p);
            EXPECT_EQ(u0, u1);
            EXPECT_EQ(v0, v1);
        }

        // Whole-stage form across the tail runs (t in {1, 2}) and a
        // contiguous-row run (t = 4), at odd block counts too, so the
        // vector bodies AND their scalar remainders run.
        for (const std::size_t t :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            for (const std::size_t m : {n / (2 * t), n / (2 * t) - 1}) {
                if (m == 0) {
                    continue;
                }
                std::vector<u64> a0 = Values(2 * m * t, 4 * p, p, m + t);
                std::vector<u64> a1 = a0;
                ref.fwd_butterfly_stage(a0.data(), w.data(),
                                        w_bar.data(), m, t, p);
                vec.fwd_butterfly_stage(a1.data(), w.data(),
                                        w_bar.data(), m, t, p);
                EXPECT_EQ(a0, a1) << "fwd stage t=" << t << " m=" << m;

                std::vector<u64> b0 = Values(2 * m * t, 2 * p, p, m + t);
                std::vector<u64> b1 = b0;
                ref.inv_butterfly_stage(b0.data(), w.data(),
                                        w_bar.data(), m, t, p);
                vec.inv_butterfly_stage(b1.data(), w.data(),
                                        w_bar.data(), m, t, p);
                EXPECT_EQ(b0, b1) << "inv stage t=" << t << " m=" << m;
            }
        }
    }
}

TEST_P(SimdParityTest, ButterflyRowsAndTails)
{
    for (const auto &[name, table] : VectorTables()) {
        CheckButterflyParity(name, *table, GetParam());
    }
}

/**
 * Fused radix-4 stage pairs: every backend x quarter lengths covering
 * the row form and all shuffle tails x odd block counts (so the vector
 * bodies AND their scalar remainders run), with planted lazy-range
 * boundary values. Two independent anchors:
 *  - the scalar stage4 kernel must be bit-identical to two chained
 *    radix-2 scalar reference stages (the fused kernel IS that
 *    composition), and
 *  - every vector backend must be bit-identical to the scalar stage4.
 */
TEST_P(SimdParityTest, FusedRadix4Stages)
{
    const std::size_t n = GetParam();
    const auto &ref = simd::Get(simd::Backend::kScalar);
    for (const u64 p : Primes()) {
        for (const std::size_t q :
             {std::size_t{1}, std::size_t{2}, std::size_t{4},
              std::size_t{8}, std::size_t{16}}) {
            for (const std::size_t m : {n / (4 * q), n / (4 * q) - 1}) {
                if (m == 0 || 4 * q * m > n) {
                    continue;
                }
                // Interleaved stage-major twiddle streams: (w, w_bar)
                // pairs and (wa, wa_bar, wb, wb_bar) quads.
                const std::vector<u64> w = Values(3 * m, p, p, q + m);
                std::vector<u64> pairs(2 * m), quads(4 * m);
                for (std::size_t j = 0; j < m; ++j) {
                    pairs[2 * j] = w[j];
                    pairs[2 * j + 1] = ShoupPrecompute(w[j], p);
                    quads[4 * j] = w[(m + 2 * j) % (3 * m)];
                    quads[4 * j + 1] = ShoupPrecompute(quads[4 * j], p);
                    quads[4 * j + 2] = w[(m + 2 * j + 1) % (3 * m)];
                    quads[4 * j + 3] =
                        ShoupPrecompute(quads[4 * j + 2], p);
                }

                // Forward: scalar fused vs two chained radix-2 scalar
                // stages over the de-interleaved twiddles.
                std::vector<u64> wl1(m), wl1b(m), wl2(2 * m),
                    wl2b(2 * m);
                for (std::size_t j = 0; j < m; ++j) {
                    wl1[j] = pairs[2 * j];
                    wl1b[j] = pairs[2 * j + 1];
                    wl2[2 * j] = quads[4 * j];
                    wl2b[2 * j] = quads[4 * j + 1];
                    wl2[2 * j + 1] = quads[4 * j + 2];
                    wl2b[2 * j + 1] = quads[4 * j + 3];
                }
                const std::vector<u64> fwd_in =
                    Values(4 * m * q, 4 * p, p, m + q + p);
                std::vector<u64> chained = fwd_in;
                ref.fwd_butterfly_stage(chained.data(), wl1.data(),
                                        wl1b.data(), m, 2 * q, p);
                ref.fwd_butterfly_stage(chained.data(), wl2.data(),
                                        wl2b.data(), 2 * m, q, p);
                std::vector<u64> fused = fwd_in;
                ref.fwd_butterfly_stage4(fused.data(), pairs.data(),
                                         quads.data(), m, q, p);
                ASSERT_EQ(fused, chained)
                    << "scalar fwd stage4 != chained radix-2, q=" << q
                    << " m=" << m;
                for (const auto &[name, vec] : VectorTables()) {
                    std::vector<u64> got = fwd_in;
                    vec->fwd_butterfly_stage4(got.data(), pairs.data(),
                                              quads.data(), m, q, p);
                    EXPECT_EQ(got, fused) << name << " fwd stage4 q="
                                          << q << " m=" << m;
                }

                // Inverse: quads feed level one, pairs level two.
                std::vector<u64> il1(2 * m), il1b(2 * m), il2(m),
                    il2b(m);
                for (std::size_t j = 0; j < m; ++j) {
                    il1[2 * j] = quads[4 * j];
                    il1b[2 * j] = quads[4 * j + 1];
                    il1[2 * j + 1] = quads[4 * j + 2];
                    il1b[2 * j + 1] = quads[4 * j + 3];
                    il2[j] = pairs[2 * j];
                    il2b[j] = pairs[2 * j + 1];
                }
                const std::vector<u64> inv_in =
                    Values(4 * m * q, 2 * p, p, m + q + 2 * p);
                std::vector<u64> ichained = inv_in;
                ref.inv_butterfly_stage(ichained.data(), il1.data(),
                                        il1b.data(), 2 * m, q, p);
                ref.inv_butterfly_stage(ichained.data(), il2.data(),
                                        il2b.data(), m, 2 * q, p);
                std::vector<u64> ifused = inv_in;
                ref.inv_butterfly_stage4(ifused.data(), quads.data(),
                                         pairs.data(), m, q, p);
                ASSERT_EQ(ifused, ichained)
                    << "scalar inv stage4 != chained radix-2, q=" << q
                    << " m=" << m;
                for (const auto &[name, vec] : VectorTables()) {
                    std::vector<u64> got = inv_in;
                    vec->inv_butterfly_stage4(got.data(), quads.data(),
                                              pairs.data(), m, q, p);
                    EXPECT_EQ(got, ifused) << name << " inv stage4 q="
                                           << q << " m=" << m;
                }
            }
        }
    }
}

/** Whole element-wise family parity of one table against the scalar
 *  reference, all primes, degree @p n — divide_round included. */
void
CheckElementwiseParity(const std::string &name, const simd::Kernels &vec,
                       std::size_t n)
{
    SCOPED_TRACE(name);
    const auto &ref = simd::Get(simd::Backend::kScalar);
    for (const u64 p : Primes()) {
        const BarrettReducer red(p);
        const simd::BarrettConsts consts = simd::Consts(red);
        const u64 s = Values(1, p, p, 5)[0] | 1;
        const u64 s_bar = ShoupPrecompute(s % p, p);

        // mul_shoup: any 64-bit input reduces fully.
        {
            const std::vector<u64> src = Values(n, ~u64{0}, p, 6);
            std::vector<u64> d0(n), d1(n);
            ref.mul_shoup_rows(d0.data(), src.data(), n, s % p, s_bar, p);
            vec.mul_shoup_rows(d1.data(), src.data(), n, s % p, s_bar, p);
            EXPECT_EQ(d0, d1);
        }

        // Barrett product / accumulate / 64-bit reduce on lazy inputs.
        {
            const std::vector<u64> a = Values(n, 4 * p, p, 7);
            const std::vector<u64> b = Values(n, 4 * p, p, 8);
            std::vector<u64> d0(n), d1(n);
            ref.mul_barrett_rows(d0.data(), a.data(), b.data(), n, consts);
            vec.mul_barrett_rows(d1.data(), a.data(), b.data(), n, consts);
            EXPECT_EQ(d0, d1);

            std::vector<u64> acc0 = Values(n, p, p, 9);
            std::vector<u64> acc1 = acc0;
            ref.mul_acc_barrett_rows(acc0.data(), a.data(), b.data(), n,
                                     consts);
            vec.mul_acc_barrett_rows(acc1.data(), a.data(), b.data(), n,
                                     consts);
            EXPECT_EQ(acc0, acc1);

            const std::vector<u64> wide = Values(n, ~u64{0}, p, 10);
            ref.reduce_barrett_rows(d0.data(), wide.data(), n, consts);
            vec.reduce_barrett_rows(d1.data(), wide.data(), n, consts);
            EXPECT_EQ(d0, d1);
        }

        // add/sub with and without the lazy fold; fold; fold+rescale.
        {
            const std::vector<u64> a = Values(n, p, p, 11);
            const std::vector<u64> lazy = Values(n, 4 * p, p, 12);
            const std::vector<u64> strict = Values(n, p, p, 13);
            std::vector<u64> d0(n), d1(n);
            for (const bool fold : {false, true}) {
                const u64 *b = fold ? lazy.data() : strict.data();
                ref.add_rows(d0.data(), a.data(), b, n, p, fold);
                vec.add_rows(d1.data(), a.data(), b, n, p, fold);
                EXPECT_EQ(d0, d1);
                ref.sub_rows(d0.data(), a.data(), b, n, p, fold);
                vec.sub_rows(d1.data(), a.data(), b, n, p, fold);
                EXPECT_EQ(d0, d1);
            }

            std::vector<u64> f0 = lazy, f1 = lazy;
            ref.fold_lazy_rows(f0.data(), n, p);
            vec.fold_lazy_rows(f1.data(), n, p);
            EXPECT_EQ(f0, f1);

            std::vector<u64> r0 = a, r1 = a;
            ref.fold_rescale_rows(r0.data(), strict.data(), n, p, s % p,
                                  s_bar);
            vec.fold_rescale_rows(r1.data(), strict.data(), n, p, s % p,
                                  s_bar);
            EXPECT_EQ(r0, r1);
        }

        // Tensor stage (needs the 32p^2 headroom: bits <= 61 holds for
        // every prime in the sweep).
        {
            const std::vector<u64> a0 = Values(n, 4 * p, p, 14);
            const std::vector<u64> a1 = Values(n, 4 * p, p, 15);
            const std::vector<u64> b0 = Values(n, 4 * p, p, 16);
            const std::vector<u64> b1 = Values(n, 4 * p, p, 17);
            std::vector<u64> c0a(n), c1a(n), c2a(n);
            std::vector<u64> c0b(n), c1b(n), c2b(n);
            ref.tensor_rows(c0a.data(), c1a.data(), c2a.data(), a0.data(),
                            a1.data(), b0.data(), b1.data(), n, consts);
            vec.tensor_rows(c0b.data(), c1b.data(), c2b.data(), a0.data(),
                            a1.data(), b0.data(), b1.data(), n, consts);
            EXPECT_EQ(c0a, c0b);
            EXPECT_EQ(c1a, c1b);
            EXPECT_EQ(c2a, c2b);
        }
    }

    // Divide-and-round: constants built exactly as the BGV mod-switch
    // epilogue builds them (he/ciphertext_batch.cpp), every ordered
    // (q_k, q_i) prime pair so the u <= q_k/2 centering branch sees
    // both signs across lanes.
    const std::vector<u64> primes = Primes();
    const u64 t = 65537;
    for (const u64 qk : primes) {
        for (const u64 qi : primes) {
            if (qi == qk) {
                continue;
            }
            const BarrettReducer red(qi);
            simd::DivideRoundConsts c{};
            c.qk = qk;
            c.t_inv_qk = InvMod(t % qk, qk);
            c.t_inv_qk_bar = ShoupPrecompute(c.t_inv_qk, qk);
            c.qi = qi;
            c.qk_inv = InvMod(qk % qi, qi);
            c.qk_inv_bar = ShoupPrecompute(c.qk_inv, qi);
            c.t_mod_qi = t % qi;
            c.t_mod_qi_bar = ShoupPrecompute(c.t_mod_qi, qi);
            c.mu_lo = red.mu_lo();
            c.mu_hi = red.mu_hi();

            const std::vector<u64> src = Values(n, qi, qi, 18);
            const std::vector<u64> top = Values(n, qk, qk, 19);
            std::vector<u64> d0(n), d1(n);
            ref.divide_round_rows(d0.data(), src.data(), top.data(), n,
                                  c);
            vec.divide_round_rows(d1.data(), src.data(), top.data(), n,
                                  c);
            EXPECT_EQ(d0, d1) << "divide_round qk=" << qk
                              << " qi=" << qi;
        }
    }
}

TEST_P(SimdParityTest, ElementwiseKernels)
{
    for (const auto &[name, table] : VectorTables()) {
        CheckElementwiseParity(name, *table, GetParam());
    }
}

TEST_P(SimdParityTest, WholeTransformsMatchScalarBackend)
{
    // End-to-end composition check: the full lazy forward (keep-range
    // outputs compared raw, so the [0, 4p) representatives must agree)
    // and the full inverse, per backend, through the real twiddle
    // tables.
    const std::size_t n = GetParam();
    for (const u64 p : Primes()) {
        const NttEngine engine(n, p);
        Xoshiro256 rng(n + p);
        std::vector<u64> input(n);
        for (u64 &x : input) {
            x = rng.NextBelow(p);
        }

        simd::ForceBackend(simd::Backend::kScalar);
        std::vector<u64> fwd_s = input;
        NttRadix2LazyKeepRange(fwd_s, engine.table());
        std::vector<u64> inv_s = fwd_s;
        for (u64 &x : inv_s) {
            x = FoldLazy(x, p);
        }
        InttRadix2Lazy(inv_s, engine.table());

        for (const auto backend : simd::kAllBackends) {
            if (backend == simd::Backend::kScalar ||
                !simd::BackendAvailable(backend)) {
                continue;
            }
            simd::ForceBackend(backend);
            std::vector<u64> fwd_v = input;
            NttRadix2LazyKeepRange(fwd_v, engine.table());
            std::vector<u64> inv_v = fwd_v;
            for (u64 &x : inv_v) {
                x = FoldLazy(x, p);
            }
            InttRadix2Lazy(inv_v, engine.table());
            simd::ResetBackend();

            EXPECT_EQ(fwd_s, fwd_v) << simd::BackendName(backend);
            EXPECT_EQ(inv_s, inv_v) << simd::BackendName(backend);
        }
        EXPECT_EQ(inv_s, input) << "round trip broke";
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, SimdParityTest,
                         ::testing::ValuesIn(kDegrees));

TEST(SimdDispatch, ForcedBackendIsReportedAndRevertible)
{
    const simd::Backend initial = simd::ActiveBackend();
    simd::ForceBackend(simd::Backend::kScalar);
    EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
    EXPECT_STREQ(simd::BackendName(simd::ActiveBackend()), "scalar");
    simd::ResetBackend();
    EXPECT_EQ(simd::ActiveBackend(), initial);
}

TEST(SimdDispatch, ScalarTableIsAlwaysAvailable)
{
    EXPECT_TRUE(simd::BackendAvailable(simd::Backend::kScalar));
    // Get(kAvx2) is callable either way; it only *vectorizes* when
    // available.
    (void)simd::Get(simd::Backend::kAvx2);
}

}  // namespace
}  // namespace hentt
