/**
 * Property-based correctness suite for the HE layer: randomized
 * leveled circuits checked against a plaintext oracle, ring-algebra
 * invariants (commutativity / associativity / distributivity), lazy
 * [0, 4p) vs strict NTT bit-identity, and Try* / graph path
 * equivalence. Runs >= 1000 randomized cases by default; every
 * property prints its seed and reproduces exactly under
 * HENTT_PBT_SEED / HENTT_PBT_CASES (see tests/pbt.h).
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "common/modarith.h"
#include "common/primegen.h"
#include "he/bgv.h"
#include "he/he_graph.h"
#include "ntt/ntt_lazy.h"
#include "ntt/ntt_radix2.h"
#include "pbt.h"

namespace hentt::he {
namespace {

/**
 * The randomized-parameter pool. Each entry is a full scheme fixture
 * (context, scheme, secret + relin keys) built once and shared across
 * cases — key generation is deterministic per entry, so per-case
 * reproduction only depends on the pbt seed.
 */
struct SchemeFixture {
    std::shared_ptr<HeContext> ctx;
    std::unique_ptr<BgvScheme> scheme;
    std::optional<SecretKey> sk;
    std::optional<RelinKey> rk;
};

const std::vector<SchemeFixture> &
FixturePool()
{
    static const std::vector<SchemeFixture> pool = [] {
        const struct {
            std::size_t degree;
            std::size_t primes;
            unsigned bits;
            u64 t;
        } grid[] = {{64, 3, 50, 257},
                    {32, 2, 45, 97},
                    {128, 3, 40, 769},
                    {64, 4, 50, 65537},
                    {16, 2, 55, 193}};
        std::vector<SchemeFixture> fixtures;
        for (const auto &g : grid) {
            HeParams params;
            params.degree = g.degree;
            params.prime_count = g.primes;
            params.prime_bits = g.bits;
            params.plain_modulus = g.t;
            SchemeFixture f;
            f.ctx = std::make_shared<HeContext>(params);
            f.scheme = std::make_unique<BgvScheme>(f.ctx, /*seed=*/1234);
            f.sk.emplace(f.scheme->KeyGen());
            f.rk.emplace(f.scheme->MakeRelinKey(*f.sk));
            fixtures.push_back(std::move(f));
        }
        return fixtures;
    }();
    return pool;
}

const SchemeFixture &
PickFixture(Xoshiro256 &rng)
{
    const auto &pool = FixturePool();
    return pool[rng.NextBelow(pool.size())];
}

Plaintext
RandomPlain(const SchemeFixture &f, Xoshiro256 &rng)
{
    Plaintext m(f.ctx->degree());
    const u64 t = f.ctx->params().plain_modulus;
    for (u64 &x : m) {
        x = rng.NextBelow(t);
    }
    return m;
}

Plaintext
PlainAdd(const Plaintext &a, const Plaintext &b, u64 t)
{
    Plaintext c(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        c[i] = AddMod(a[i], b[i], t);
    }
    return c;
}

Plaintext
PlainSub(const Plaintext &a, const Plaintext &b, u64 t)
{
    Plaintext c(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        c[i] = SubMod(a[i], b[i], t);
    }
    return c;
}

/** Negacyclic product mod t — the O(N^2) schoolbook oracle. */
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
ExpectCtBitIdentical(const Ciphertext &a, const Ciphertext &b)
{
    ASSERT_EQ(a.parts.size(), b.parts.size());
    for (std::size_t i = 0; i < a.parts.size(); ++i) {
        ASSERT_EQ(a.parts[i].prime_count(), b.parts[i].prime_count());
        const auto fa = a.parts[i].flat();
        const auto fb = b.parts[i].flat();
        ASSERT_EQ(fa.size(), fb.size());
        for (std::size_t k = 0; k < fa.size(); ++k) {
            ASSERT_EQ(fa[k], fb[k])
                << "part " << i << " word " << k;
        }
    }
}

/**
 * Random leveled circuit: a pool of same-level wires, each carrying
 * its ciphertext and the plaintext the oracle says it holds. Every
 * multiply descends one level (Mul -> fused RelinModSwitch) and drags
 * the rest of the pool down with plain ModSwitch, so Add operands
 * always level-match — the wire discipline a leveled BGV circuit
 * compiler enforces.
 */
HENTT_PBT_PROP(HeProperties, RandomLeveledCircuitsMatchPlaintextOracle,
               250, (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    const SchemeFixture &f = PickFixture(rng);
    const u64 t = f.ctx->params().plain_modulus;

    struct Wire {
        Ciphertext ct;
        Plaintext pt;
    };
    std::vector<Wire> wires;
    for (int i = 0; i < 3; ++i) {
        Plaintext m = RandomPlain(f, rng);
        wires.push_back({f.scheme->Encrypt(*f.sk, m), std::move(m)});
    }

    std::size_t level = f.ctx->params().prime_count;
    const u64 steps = 2 + rng.NextBelow(4);
    for (u64 s = 0; s < steps; ++s) {
        const std::size_t ia = rng.NextBelow(wires.size());
        const std::size_t ib = rng.NextBelow(wires.size());
        const u64 op = rng.NextBelow(level >= 2 ? 3 : 2);
        if (op == 0) {
            wires.push_back(
                {f.scheme->Add(wires[ia].ct, wires[ib].ct),
                 PlainAdd(wires[ia].pt, wires[ib].pt, t)});
        } else if (op == 1) {
            wires.push_back(
                {f.scheme->Sub(wires[ia].ct, wires[ib].ct),
                 PlainSub(wires[ia].pt, wires[ib].pt, t)});
        } else {
            // Multiply-and-descend, then level-align the whole pool.
            Wire w{f.scheme->RelinModSwitch(
                       f.scheme->Mul(wires[ia].ct, wires[ib].ct),
                       *f.rk),
                   PlainMul(wires[ia].pt, wires[ib].pt, t)};
            for (Wire &other : wires) {
                other.ct = f.scheme->ModSwitch(other.ct);
            }
            wires.push_back(std::move(w));
            --level;
        }
    }

    for (std::size_t i = 0; i < wires.size(); ++i) {
        SCOPED_TRACE("wire " + std::to_string(i));
        EXPECT_EQ(BgvScheme::Level(wires[i].ct), level);
        EXPECT_EQ(f.scheme->Decrypt(*f.sk, wires[i].ct), wires[i].pt);
    }
}

HENTT_PBT_PROP(HeProperties, AddCommutesBitIdentical, 200,
               (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    const SchemeFixture &f = PickFixture(rng);
    const Ciphertext a = f.scheme->Encrypt(*f.sk, RandomPlain(f, rng));
    const Ciphertext b = f.scheme->Encrypt(*f.sk, RandomPlain(f, rng));
    // AddMod is exact, so a + b and b + a agree word for word, not
    // just as residues.
    ExpectCtBitIdentical(f.scheme->Add(a, b), f.scheme->Add(b, a));
}

HENTT_PBT_PROP(HeProperties, AddAssociatesBitIdentical, 150,
               (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    const SchemeFixture &f = PickFixture(rng);
    const Ciphertext a = f.scheme->Encrypt(*f.sk, RandomPlain(f, rng));
    const Ciphertext b = f.scheme->Encrypt(*f.sk, RandomPlain(f, rng));
    const Ciphertext c = f.scheme->Encrypt(*f.sk, RandomPlain(f, rng));
    ExpectCtBitIdentical(f.scheme->Add(f.scheme->Add(a, b), c),
                         f.scheme->Add(a, f.scheme->Add(b, c)));
}

HENTT_PBT_PROP(HeProperties, MulCommutesBitIdentical, 100,
               (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    const SchemeFixture &f = PickFixture(rng);
    const Ciphertext a = f.scheme->Encrypt(*f.sk, RandomPlain(f, rng));
    const Ciphertext b = f.scheme->Encrypt(*f.sk, RandomPlain(f, rng));
    // The tensor product is symmetric in its operands (c1 sums the two
    // cross terms with exact modular adds), so Mul commutes at the
    // word level.
    ExpectCtBitIdentical(f.scheme->Mul(a, b), f.scheme->Mul(b, a));
}

HENTT_PBT_PROP(HeProperties, MulDistributesOverAdd, 100,
               (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    const SchemeFixture &f = PickFixture(rng);
    const u64 t = f.ctx->params().plain_modulus;
    const Plaintext ma = RandomPlain(f, rng);
    const Plaintext mb = RandomPlain(f, rng);
    const Plaintext mc = RandomPlain(f, rng);
    const Ciphertext a = f.scheme->Encrypt(*f.sk, ma);
    const Ciphertext b = f.scheme->Encrypt(*f.sk, mb);
    const Ciphertext c = f.scheme->Encrypt(*f.sk, mc);
    // a*(b+c) and a*b + a*c accumulate different noise, so the
    // invariant is decrypt-equality against the oracle, not
    // bit-identity.
    const Plaintext expected =
        PlainMul(ma, PlainAdd(mb, mc, t), t);
    const Ciphertext lhs = f.scheme->Mul(a, f.scheme->Add(b, c));
    const Ciphertext rhs =
        f.scheme->Add(f.scheme->Mul(a, b), f.scheme->Mul(a, c));
    EXPECT_EQ(f.scheme->Decrypt(*f.sk, lhs), expected);
    EXPECT_EQ(f.scheme->Decrypt(*f.sk, rhs), expected);
}

/**
 * Lazy pipeline identities on raw rows: strict radix-2, lazy fused,
 * lazy unfused, and keep-range + fold must all agree word for word,
 * on strict ([0, p)) and lazy ([0, 4p)) inputs alike.
 */
HENTT_PBT_PROP(HeProperties, LazyTransformsBitIdenticalToStrict, 200,
               (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    struct Table {
        std::size_t n;
        u64 p;
        std::unique_ptr<TwiddleTable> table;
    };
    static const std::vector<Table> tables = [] {
        std::vector<Table> out;
        for (std::size_t n : {16, 64, 256}) {
            for (unsigned bits : {30u, 50u, 60u}) {
                const u64 p = GenerateNttPrimes(2 * n, bits, 1)[0];
                out.push_back(
                    {n, p, std::make_unique<TwiddleTable>(n, p)});
            }
        }
        return out;
    }();

    const Table &tb = tables[rng.NextBelow(tables.size())];
    std::vector<u64> a(tb.n);
    for (u64 &x : a) {
        x = rng.NextBelow(tb.p);
    }

    std::vector<u64> strict = a, fused = a, unfused = a, folded = a;
    NttRadix2(strict, *tb.table);
    NttRadix2Lazy(fused, *tb.table);
    NttRadix2LazyUnfused(unfused, *tb.table);
    NttRadix2LazyKeepRange(folded, *tb.table);
    for (u64 &x : folded) {
        x %= tb.p;  // reference fold of the [0, 4p) representatives
    }
    EXPECT_EQ(fused, strict);
    EXPECT_EQ(unfused, strict);
    EXPECT_EQ(folded, strict);

    // Lazy-range inputs (< 4p) must land on the same residues as
    // their reduced forms.
    if (tb.p < (u64{1} << 61)) {
        std::vector<u64> wide(tb.n), reduced(tb.n);
        for (std::size_t i = 0; i < tb.n; ++i) {
            wide[i] = rng.NextBelow(4 * tb.p);
            reduced[i] = wide[i] % tb.p;
        }
        NttRadix2Lazy(wide, *tb.table);
        NttRadix2(reduced, *tb.table);
        EXPECT_EQ(wide, reduced);
    }

    // Inverse walks agree and round-trip.
    std::vector<u64> ev = strict;
    std::vector<u64> inv_fused = ev, inv_unfused = ev;
    InttRadix2Lazy(inv_fused, *tb.table);
    InttRadix2LazyUnfused(inv_unfused, *tb.table);
    EXPECT_EQ(inv_fused, a);
    EXPECT_EQ(inv_unfused, a);
}

/**
 * One expression, three execution paths: the throwing API, the Try*
 * Result API, and the HeOpGraph wavefront scheduler must produce
 * word-identical ciphertexts.
 */
HENTT_PBT_PROP(HeProperties, TryAndGraphPathsMatchDirect, 100,
               (hentt::Xoshiro256 &rng, hentt::u64 /*case_index*/))
{
    const SchemeFixture &f = PickFixture(rng);
    const Plaintext ma = RandomPlain(f, rng);
    const Plaintext mb = RandomPlain(f, rng);
    const Plaintext mc = RandomPlain(f, rng);
    const Ciphertext a = f.scheme->Encrypt(*f.sk, ma);
    const Ciphertext b = f.scheme->Encrypt(*f.sk, mb);
    const Ciphertext c = f.scheme->Encrypt(*f.sk, mc);

    // direct: (a*b descended) + modswitch(c)
    const Ciphertext direct = f.scheme->Add(
        f.scheme->RelinModSwitch(f.scheme->Mul(a, b), *f.rk),
        f.scheme->ModSwitch(c));

    // Try* path.
    auto prod = f.scheme->TryMul(a, b);
    ASSERT_TRUE(prod.ok());
    auto descended = f.scheme->TryRelinModSwitch(prod.value(), *f.rk);
    ASSERT_TRUE(descended.ok());
    auto switched = f.scheme->TryModSwitch(c);
    ASSERT_TRUE(switched.ok());
    auto sum = f.scheme->TryAdd(descended.value(), switched.value());
    ASSERT_TRUE(sum.ok());
    ExpectCtBitIdentical(sum.value(), direct);

    // Graph path (auto-batched wavefronts).
    HeOpGraph g(*f.scheme, &*f.rk);
    CtFuture ga = g.Input(a), gb = g.Input(b), gc = g.Input(c);
    CtFuture out = g.Add(g.MulRelinModSwitch(ga, gb), g.ModSwitch(gc));
    ExpectCtBitIdentical(out.get(), direct);

    const Plaintext expected =
        PlainAdd(PlainMul(ma, mb, f.ctx->params().plain_modulus), mc,
                 f.ctx->params().plain_modulus);
    EXPECT_EQ(f.scheme->Decrypt(*f.sk, direct), expected);
}

}  // namespace
}  // namespace hentt::he
