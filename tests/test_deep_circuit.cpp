/**
 * Bootstrapping-depth circuit workload as a correctness suite: deep
 * Mul -> Relinearize -> ModSwitch towers that walk the full modulus
 * chain, decrypted at every level, bit-identical across every
 * available SIMD backend, with clean precondition failures — and no state
 * residue — when a tower is driven past the bottom of the chain.
 * Runs >= 1000 randomized cases by default (tests/pbt.h contract).
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/modarith.h"
#include "he/bgv.h"
#include "he/he_graph.h"
#include "ntt/ntt_engine.h"
#include "pbt.h"
#include "simd/simd_backend.h"

namespace hentt::he {
namespace {

constexpr std::size_t kDegree = 64;
constexpr std::size_t kPrimes = 8;  // depth-7 towers walk 8 -> 1

HeParams
TowerParams()
{
    HeParams params;
    params.degree = kDegree;
    params.prime_count = kPrimes;
    params.prime_bits = 50;
    params.plain_modulus = 257;
    return params;
}

/** Shared deep fixture (keygen once; all relin levels). */
struct TowerFixture {
    std::shared_ptr<HeContext> ctx;
    std::unique_ptr<BgvScheme> scheme;
    std::optional<SecretKey> sk;
    std::optional<RelinKey> rk;
};

const TowerFixture &
SharedFixture()
{
    static const TowerFixture f = [] {
        TowerFixture t;
        t.ctx = std::make_shared<HeContext>(TowerParams());
        t.scheme = std::make_unique<BgvScheme>(t.ctx, /*seed=*/5150);
        t.sk.emplace(t.scheme->KeyGen());
        t.rk.emplace(t.scheme->MakeRelinKey(*t.sk));
        return t;
    }();
    return f;
}

Plaintext
RandomPlain(const HeContext &ctx, Xoshiro256 &rng)
{
    Plaintext m(ctx.degree());
    const u64 t = ctx.params().plain_modulus;
    for (u64 &x : m) {
        x = rng.NextBelow(t);
    }
    return m;
}

Plaintext
PlainMul(const Plaintext &a, const Plaintext &b, u64 t)
{
    const std::size_t n = a.size();
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

void
ExpectCtBitIdentical(const Ciphertext &a, const Ciphertext &b,
                     const std::string &what)
{
    ASSERT_EQ(a.parts.size(), b.parts.size()) << what;
    for (std::size_t i = 0; i < a.parts.size(); ++i) {
        ASSERT_EQ(a.parts[i].prime_count(), b.parts[i].prime_count())
            << what;
        const auto fa = a.parts[i].flat();
        const auto fb = b.parts[i].flat();
        ASSERT_EQ(fa.size(), fb.size()) << what;
        for (std::size_t k = 0; k < fa.size(); ++k) {
            ASSERT_EQ(fa[k], fb[k])
                << what << ": part " << i << " word " << k;
        }
    }
}

/**
 * Walk a multiply-and-descend tower from the top of the chain:
 * acc <- RelinModSwitch(acc * m_i) for depth steps. Returns the
 * ciphertext at every level (index 0 = fresh, index d = after d
 * descents) so callers can check each level, not just the bottom.
 */
std::vector<Ciphertext>
RunTower(const BgvScheme &scheme, const RelinKey &rk,
         const Ciphertext &fresh,
         const std::vector<Ciphertext> &factors, std::size_t depth)
{
    std::vector<Ciphertext> levels;
    levels.push_back(fresh);
    Ciphertext acc = fresh;
    std::vector<Ciphertext> f = factors;
    for (std::size_t d = 0; d < depth; ++d) {
        acc = scheme.RelinModSwitch(scheme.Mul(acc, f[d]), rk);
        // Keep the remaining factors level-aligned with acc.
        for (std::size_t j = d + 1; j < f.size(); ++j) {
            f[j] = scheme.ModSwitch(f[j]);
        }
        levels.push_back(acc);
    }
    return levels;
}

/**
 * The core deep workload: a depth-7 tower through all 8 primes,
 * decrypted and oracle-checked at every level on the way down.
 */
HENTT_PBT_PROP(DeepCircuit, TowerDecryptsAtEveryLevel, 450,
               (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    const TowerFixture &f = SharedFixture();
    const u64 t = f.ctx->params().plain_modulus;
    const std::size_t depth = kPrimes - 1;

    Plaintext m0 = RandomPlain(*f.ctx, rng);
    std::vector<Plaintext> ms;
    std::vector<Ciphertext> cts;
    for (std::size_t d = 0; d < depth; ++d) {
        ms.push_back(RandomPlain(*f.ctx, rng));
        cts.push_back(f.scheme->Encrypt(*f.sk, ms.back()));
    }
    const Ciphertext fresh = f.scheme->Encrypt(*f.sk, m0);

    const std::vector<Ciphertext> levels =
        RunTower(*f.scheme, *f.rk, fresh, cts, depth);

    Plaintext expected = m0;
    for (std::size_t d = 0; d < levels.size(); ++d) {
        SCOPED_TRACE("tower level " + std::to_string(d));
        if (d > 0) {
            expected = PlainMul(expected, ms[d - 1], t);
        }
        EXPECT_EQ(BgvScheme::Level(levels[d]), kPrimes - d);
        EXPECT_EQ(f.scheme->Decrypt(*f.sk, levels[d]), expected);
        EXPECT_GT(f.scheme->NoiseBudgetBits(*f.sk, levels[d]), 0.0);
    }
}

/**
 * The same tower (same encrypted inputs) must be *word-identical* at
 * every level under every available SIMD backend. This is the paper's
 * portability claim as an executable invariant: the vector backends
 * are pure scheduling changes, not numeric ones. (The fused radix-4
 * walker's identity with the radix-2 walk is pinned per backend in
 * test_ntt_lazy.)
 */
HENTT_PBT_PROP(DeepCircuit, TowerBitIdenticalAcrossBackends, 200,
               (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    const TowerFixture &f = SharedFixture();
    const std::size_t depth = 1 + rng.NextBelow(kPrimes - 1);

    std::vector<Ciphertext> cts;
    for (std::size_t d = 0; d < depth; ++d) {
        cts.push_back(
            f.scheme->Encrypt(*f.sk, RandomPlain(*f.ctx, rng)));
    }
    const Ciphertext fresh =
        f.scheme->Encrypt(*f.sk, RandomPlain(*f.ctx, rng));

    // Every available backend, enumerated from kAllBackends so a new
    // backend joins the sweep automatically.
    std::vector<simd::Backend> backends;
    for (const simd::Backend backend : simd::kAllBackends) {
        if (simd::BackendAvailable(backend)) {
            backends.push_back(backend);
        }
    }

    std::optional<std::vector<Ciphertext>> reference;
    for (const simd::Backend backend : backends) {
        simd::ForceBackend(backend);
        const std::vector<Ciphertext> levels =
            RunTower(*f.scheme, *f.rk, fresh, cts, depth);
        simd::ResetBackend();
        if (!reference) {
            reference = levels;
            continue;
        }
        const std::string what =
            std::string("backend ") + simd::BackendName(backend);
        ASSERT_EQ(levels.size(), reference->size()) << what;
        for (std::size_t d = 0; d < levels.size(); ++d) {
            ExpectCtBitIdentical(levels[d], (*reference)[d],
                                 what + " level " + std::to_string(d));
        }
    }
}

/**
 * Two independent towers scheduled on one HeOpGraph (their per-level
 * batches share wavefront dispatches) must match the sequential
 * scheme path word for word at the bottom.
 */
HENTT_PBT_PROP(DeepCircuit, GraphTowersMatchDirectAtDepth, 200,
               (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    const TowerFixture &f = SharedFixture();
    const std::size_t depth = 2 + rng.NextBelow(kPrimes - 2);

    // Two towers over independent inputs.
    std::vector<Ciphertext> fresh, direct;
    std::vector<std::vector<Ciphertext>> factors(2);
    for (int w = 0; w < 2; ++w) {
        fresh.push_back(
            f.scheme->Encrypt(*f.sk, RandomPlain(*f.ctx, rng)));
        for (std::size_t d = 0; d < depth; ++d) {
            factors[w].push_back(
                f.scheme->Encrypt(*f.sk, RandomPlain(*f.ctx, rng)));
        }
        direct.push_back(RunTower(*f.scheme, *f.rk, fresh[w],
                                  factors[w], depth)
                             .back());
    }

    HeOpGraph g(*f.scheme, &*f.rk);
    std::vector<CtFuture> acc;
    std::vector<std::vector<CtFuture>> gf(2);
    for (int w = 0; w < 2; ++w) {
        acc.push_back(g.Input(fresh[w]));
        for (const Ciphertext &ct : factors[w]) {
            gf[w].push_back(g.Input(ct));
        }
    }
    for (std::size_t d = 0; d < depth; ++d) {
        for (int w = 0; w < 2; ++w) {
            acc[w] = g.MulRelinModSwitch(acc[w], gf[w][d]);
            for (std::size_t j = d + 1; j < depth; ++j) {
                gf[w][j] = g.ModSwitch(gf[w][j]);
            }
        }
    }
    for (int w = 0; w < 2; ++w) {
        ExpectCtBitIdentical(acc[w].get(), direct[w],
                             "tower " + std::to_string(w));
    }
}

/**
 * Driving a tower past the bottom of the modulus chain must fail as a
 * clean kFailedPrecondition Status with provenance — and must leave
 * no residue: a replay of the same deterministic computation on a
 * fresh context, with the failing op in the sequence, is word-
 * identical to a run that never failed.
 */
HENTT_PBT_PROP(DeepCircuit, DepthExhaustionIsCleanPrecondition, 150,
               (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    const u64 scheme_seed = rng.Next() | 1;
    Plaintext m0, m1;

    // Both runs share one deterministic script: fresh context, same
    // scheme seed, same plaintexts, same call order (modulo the
    // failing op, which run B omits).
    const auto play = [&](bool trigger_failure) {
        auto ctx = std::make_shared<HeContext>(TowerParams());
        BgvScheme scheme(ctx, scheme_seed);
        const SecretKey sk = scheme.KeyGen();
        const RelinKey rk = scheme.MakeRelinKey(sk);
        Ciphertext acc = scheme.Encrypt(sk, m0);
        Ciphertext other = scheme.Encrypt(sk, m1);
        // Plain ModSwitch walk to the bottom of the chain.
        while (BgvScheme::Level(acc) > 1) {
            acc = scheme.ModSwitch(acc);
            other = scheme.ModSwitch(other);
        }
        if (trigger_failure) {
            // One more step has no prime left to drop.
            const Result<Ciphertext> r = scheme.TryModSwitch(acc);
            EXPECT_FALSE(r.ok());
            EXPECT_EQ(r.status().code(),
                      ErrorCode::kFailedPrecondition);
            EXPECT_FALSE(r.status().frames().empty());
            EXPECT_NE(r.status().message().find("chain exhausted"),
                      std::string::npos)
                << r.status().message();
            // The fused descend fails the same way on a degree-2
            // operand at one prime.
            const Result<Ciphertext> r2 = scheme.TryRelinModSwitch(
                scheme.Mul(acc, other), rk);
            EXPECT_FALSE(r2.ok());
            EXPECT_EQ(r2.status().code(),
                      ErrorCode::kFailedPrecondition);
            EXPECT_FALSE(r2.status().frames().empty());
        }
        // Post-failure work must be untouched by the failed ops.
        return scheme.Add(acc, other);
    };

    const TowerFixture &f = SharedFixture();
    m0 = RandomPlain(*f.ctx, rng);
    m1 = RandomPlain(*f.ctx, rng);
    const Ciphertext with_failure = play(true);
    const Ciphertext clean = play(false);
    ExpectCtBitIdentical(with_failure, clean, "post-failure replay");
}

/**
 * Pins the relinearization transform budget at every level of the
 * chain: key-switching a degree-2 ciphertext with L primes lifts L
 * digits across L residue rows — exactly L^2 forward row transforms,
 * the evaluation-domain-keys contract of RelinKey (no per-op key
 * transforms, ever).
 */
TEST(DeepCircuit, RelinForwardRowsAreLevelSquaredAtEveryLevel)
{
    const TowerFixture &f = SharedFixture();
    Xoshiro256 rng(99);
    Ciphertext a = f.scheme->Encrypt(*f.sk, RandomPlain(*f.ctx, rng));
    Ciphertext b = f.scheme->Encrypt(*f.sk, RandomPlain(*f.ctx, rng));
    for (std::size_t level = kPrimes; level >= 2; --level) {
        ASSERT_EQ(BgvScheme::Level(a), level);
        const Ciphertext prod = f.scheme->Mul(a, b);
        ResetNttOpCounts();
        const Ciphertext relin = f.scheme->Relinearize(prod, *f.rk);
        EXPECT_EQ(GetNttOpCounts().forward, level * level)
            << "level " << level;
        (void)relin;
        a = f.scheme->RelinModSwitch(prod, *f.rk);
        b = f.scheme->ModSwitch(b);
    }
}

}  // namespace
}  // namespace hentt::he
