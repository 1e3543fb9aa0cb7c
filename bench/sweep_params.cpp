/**
 * @file
 * SLATE-style parameter-sweep driver for the bootstrapping-depth
 * circuit workload (PR 7): one binary, multiple comma-list axes,
 * one table row per axis combination — modeled on SLATE's `Params`
 * test driver (single binary, orthogonal parameter axes, per-row
 * check column) rather than a bench-per-configuration zoo.
 *
 *   sweep_params [--n 64,4096] [--limbs 3,8] [--depth 1,4,7]
 *                [--backend auto,scalar,avx2,avx512]
 *                [--threads 1,4] [--reps R] [--check]
 *                [--json BENCH_deep_circuit.json]
 *
 * Each row walks a Mul -> fused RelinModSwitch tower `depth` levels
 * down the modulus chain with the batched kernels (warm arena,
 * preallocated per-level outputs) and reports the steady-state tower
 * time, the per-level mean, and the heap-allocation count (which must
 * be 0 at every depth). `--check` additionally verifies the result:
 * against the O(N^2) schoolbook plaintext oracle for N <= 256, and
 * via cross-backend bit-identity + positive noise budget above that.
 *
 * `--json` ignores the sweep axes and emits the canonical gated
 * series (N=4096 x 8 limbs, depths 1/2/4/7, default backend + scalar
 * ablation) consumed by scripts/check_bench_regression.py; run_suite
 * invokes it and mirrors the JSON to the repo root. Series contract:
 * `*_ns` keys are machine-local, `speedup_*` depth-scaling ratios are
 * cross-machine comparable (--relative-only), and
 * `steady_state_allocs` must never grow.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/modarith.h"
#include "harness.h"
#include "common/thread_pool.h"
#include "he/bgv.h"
#include "he/ciphertext_batch.h"
#include "simd/simd_backend.h"

namespace hentt::he {
namespace {

// ------------------------------------------------------------- axes
/** One comma-list CLI axis, SLATE-Params style: the cross product of
 *  all axes is the sweep. */
std::vector<std::string>
SplitList(const char *arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char *p = arg;; ++p) {
        if (*p == ',' || *p == '\0') {
            if (!cur.empty()) {
                out.push_back(cur);
            }
            cur.clear();
            if (*p == '\0') {
                break;
            }
        } else {
            cur.push_back(*p);
        }
    }
    return out;
}

std::vector<std::size_t>
SplitSizeList(const char *arg)
{
    std::vector<std::size_t> out;
    for (const std::string &s : SplitList(arg)) {
        out.push_back(std::strtoull(s.c_str(), nullptr, 10));
    }
    return out;
}

struct Axes {
    std::vector<std::size_t> n{4096};
    std::vector<std::size_t> limbs{8};
    std::vector<std::size_t> depth{1, 4, 7};
    std::vector<std::string> backend{"auto"};
    std::vector<std::size_t> threads;
    int reps = 3;
    bool check = false;
    std::string json_path;
};

/** "auto" -> nullopt (environment/auto-resolved backend). */
std::optional<simd::Backend>
ParseBackend(const std::string &name)
{
    if (name == "scalar") {
        return simd::Backend::kScalar;
    }
    if (name == "avx2") {
        return simd::Backend::kAvx2;
    }
    if (name == "avx512") {
        return simd::Backend::kAvx512;
    }
    return std::nullopt;
}

// -------------------------------------------------- scheme instances
/** Cached per-(N, limbs) scheme: keygen and relin-key generation are
 *  far more expensive than one tower walk, so the sweep reuses them
 *  across every row that shares the ring. */
std::shared_ptr<HeContext>
MakeContext(std::size_t n, std::size_t limbs)
{
    HeParams params;
    params.degree = n;
    params.prime_count = limbs;
    params.prime_bits = 50;
    params.plain_modulus = 65537;
    return std::make_shared<HeContext>(params);
}

Plaintext
RandomPlain(std::size_t n, u64 modulus, u64 seed)
{
    Plaintext m(n);
    Xoshiro256 rng(seed);
    for (u64 &x : m) {
        x = rng.NextBelow(modulus);
    }
    return m;
}

struct SchemeBundle {
    std::shared_ptr<HeContext> ctx;
    std::unique_ptr<BgvScheme> scheme;
    SecretKey sk;
    RelinKey rk;
    Plaintext ma, mb;
    Ciphertext ct_a, ct_b;

    SchemeBundle(std::size_t n, std::size_t limbs)
        : ctx(MakeContext(n, limbs)),
          scheme(std::make_unique<BgvScheme>(ctx, /*seed=*/77)),
          sk(scheme->KeyGen()),
          rk(scheme->MakeRelinKey(sk)),
          ma(RandomPlain(n, ctx->params().plain_modulus, 3)),
          mb(RandomPlain(n, ctx->params().plain_modulus, 5)),
          ct_a(scheme->Encrypt(sk, ma)),
          ct_b(scheme->Encrypt(sk, mb))
    {
    }
};

SchemeBundle &
GetBundle(std::map<std::pair<std::size_t, std::size_t>,
                   std::unique_ptr<SchemeBundle>> &cache,
          std::size_t n, std::size_t limbs)
{
    auto &slot = cache[{n, limbs}];
    if (!slot) {
        slot = std::make_unique<SchemeBundle>(n, limbs);
    }
    return *slot;
}

// ------------------------------------------------------ measurement
/** Back-to-back calls per timed run of one tower stage. Interleaved
 *  with every other level, a single call starts on operands the other
 *  arms evicted. On a 4-core AVX-512 host, 8 runs of
 *  speedup_deep_level2_vs_level8 spread over 3.5-5.1 with one call per
 *  run and over 4.5-4.9 with four. */
constexpr int kTowerCallsPerRun = 4;

struct TowerTiming {
    /** level_ns[b][d]: best Mul + fused descend at walked level d on
     *  the b-th measured backend. */
    std::vector<std::vector<double>> level_ns;
    long long allocs = 0;  ///< heap allocs in the timed region
    Ciphertext bottom;     ///< final accumulator (for checks)

    /** Tower time on the b-th backend down to depth @p depth. */
    double
    Total(std::size_t b, std::size_t depth) const
    {
        double ns = 0.0;
        for (std::size_t d = 0; d < depth; ++d) {
            ns += level_ns[b][d];
        }
        return ns;
    }
};

/** Time `depth` levels of the Mul -> fused RelinModSwitch tower on each
 *  of @p backends with the batched kernels. Each (backend, level,
 *  stage) is one interleaved arm over preallocated per-level operands
 *  and outputs. An untimed walk down the chain on the first backend
 *  builds those operands, an untimed pass over every arm sizes the
 *  arena on each backend, and the heap allocations of the whole timed
 *  region are counted. */
TowerTiming
MeasureTower(SchemeBundle &bundle, std::size_t depth, int reps,
             std::span<const simd::Backend> backends)
{
    const HeContext &ctx = *bundle.ctx;
    struct Level {
        Ciphertext acc, factor, prod, down;
    };
    std::vector<Level> levels(depth);
    // Arm (b * depth + d) * 2 + stage: backend b, level d, stage 0
    // (tensor) or 1 (fused descend).
    const auto run = [&](std::size_t arm) {
        simd::ForceBackend(backends[arm / (2 * depth)]);
        Level &lv = levels[(arm / 2) % depth];
        if (arm % 2 == 0) {
            const Ciphertext *mul_a[] = {&lv.acc};
            const Ciphertext *mul_b[] = {&lv.factor};
            Ciphertext *mul_out[] = {&lv.prod};
            BatchMul(ctx, mul_a, mul_b, mul_out);
        } else {
            const Ciphertext *relin_in[] = {&lv.prod};
            Ciphertext *down_out[] = {&lv.down};
            BatchRelinModSwitch(ctx, bundle.rk, relin_in, down_out);
        }
    };

    TowerTiming t;
    t.bottom = bundle.ct_a;
    Ciphertext factor = bundle.ct_b;
    for (std::size_t d = 0; d < depth; ++d) {
        levels[d].acc = t.bottom;
        levels[d].factor = factor;
        run(2 * d);
        run(2 * d + 1);
        t.bottom = levels[d].down;
        factor = bundle.scheme->ModSwitch(factor);
    }
    std::vector<bench::ArmTime> best(2 * depth * backends.size());
    for (std::size_t arm = 0; arm < best.size(); ++arm) {
        run(arm);
    }
    const long long before = bench::AllocCount();
    bench::TimeArms(reps, best, run, kTowerCallsPerRun);
    t.allocs = bench::AllocCount() - before;

    t.level_ns.assign(backends.size(), std::vector<double>(depth));
    for (std::size_t arm = 0; arm < best.size(); arm += 2) {
        t.level_ns[arm / (2 * depth)][(arm / 2) % depth] =
            best[arm].ns + best[arm + 1].ns;
    }
    return t;
}

// ------------------------------------------------------------ checks
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

bool
BitIdentical(const Ciphertext &x, const Ciphertext &y)
{
    if (x.parts.size() != y.parts.size()) {
        return false;
    }
    for (std::size_t j = 0; j < x.parts.size(); ++j) {
        if (x.parts[j].prime_count() != y.parts[j].prime_count()) {
            return false;
        }
        const auto fx = x.parts[j].flat();
        const auto fy = y.parts[j].flat();
        for (std::size_t k = 0; k < fx.size(); ++k) {
            if (fx[k] != fy[k]) {
                return false;
            }
        }
    }
    return true;
}

/** The `depth`-level tower through the scheme API on the scalar
 *  backend: the reference a measured walk must match bit for bit. */
Ciphertext
ScalarTower(SchemeBundle &bundle, std::size_t depth)
{
    simd::ForceBackend(simd::Backend::kScalar);
    Ciphertext acc = bundle.ct_a;
    Ciphertext factor = bundle.ct_b;
    for (std::size_t d = 0; d < depth; ++d) {
        acc = bundle.scheme->RelinModSwitch(
            bundle.scheme->Mul(acc, factor), bundle.rk);
        factor = bundle.scheme->ModSwitch(factor);
    }
    simd::ResetBackend();
    return acc;
}

/** Row check: plaintext oracle for small rings, cross-backend
 *  bit-identity + positive noise budget for big ones.  Returns a
 *  short status string for the table's check column. */
std::string
CheckRow(SchemeBundle &bundle, const TowerTiming &t, std::size_t depth)
{
    const u64 tm = bundle.ctx->params().plain_modulus;
    if (bundle.ctx->params().degree <= 256) {
        Plaintext expect = bundle.ma;
        for (std::size_t d = 0; d < depth; ++d) {
            expect = PlainMul(expect, bundle.mb, tm);
        }
        const Plaintext got =
            bundle.scheme->Decrypt(bundle.sk, t.bottom);
        if (got != expect) {
            return "FAIL(oracle)";
        }
        return "ok(oracle)";
    }
    // Ring too big for the schoolbook oracle: demand bit-identity with
    // the scalar walk, then positive noise headroom.
    if (!BitIdentical(ScalarTower(bundle, depth), t.bottom)) {
        return "FAIL(backend)";
    }
    if (bundle.scheme->NoiseBudgetBits(bundle.sk, t.bottom) <= 0.0) {
        return "FAIL(noise)";
    }
    return "ok(scalar=)";
}

// -------------------------------------------------------- JSON mode
/** Canonical gated series: N=4096 x 8 limbs, depths 1/2/4/7 as
 *  prefix sums of one full-depth walk, plus a scalar-backend ablation
 *  at full depth, timed as interleaved arms of one measurement.  Axis
 *  flags are ignored on purpose — the committed trajectory must always
 *  describe the same workload. */
int
EmitJson(const std::string &path, int reps)
{
    std::map<std::pair<std::size_t, std::size_t>,
             std::unique_ptr<SchemeBundle>>
        cache;
    SchemeBundle &bundle = GetBundle(cache, 4096, 8);
    const std::size_t full_depth = 7;

    simd::ResetBackend();
    const simd::Backend backends[] = {simd::ActiveBackend(),
                                      simd::Backend::kScalar};
    const TowerTiming t = MeasureTower(bundle, full_depth, reps, backends);
    simd::ResetBackend();

    if (!BitIdentical(t.bottom, ScalarTower(bundle, full_depth))) {
        std::fprintf(stderr,
                     "FAIL: default-backend tower != scalar tower\n");
        return 1;
    }

    const double d1 = t.Total(0, 1);
    const double d7 = t.Total(0, 7);
    const double scalar_ns = t.Total(1, 7);
    bench::JsonObject json("deep_circuit");
    json.Add("n", 4096);
    json.Add("limbs", 8);
    json.Add("depth", 7);
    json.Add("lanes", GlobalThreadCount());
    json.Add("deep_tower_depth1_ns", d1);
    json.Add("deep_tower_depth2_ns", t.Total(0, 2));
    json.Add("deep_tower_depth4_ns", t.Total(0, 4));
    json.Add("deep_tower_depth7_ns", d7);
    json.Add("deep_tower_depth7_scalar_ns", scalar_ns);
    json.Add("speedup_deep_tower_vs_scalar", scalar_ns / d7);
    json.Add("speedup_deep_depth_scaling", full_depth * d1 / d7);
    json.Add("speedup_deep_level2_vs_level8",
             t.level_ns[0].front() / t.level_ns[0].back());
    json.Add("steady_state_allocs", t.allocs);
    json.Add("simd_default_backend", simd::BackendName(backends[0]));
    json.Add("avx2_available",
             simd::BackendAvailable(simd::Backend::kAvx2));
    json.Add("avx512_available",
             simd::BackendAvailable(simd::Backend::kAvx512));
    if (!json.Write(path)) {
        return 1;
    }

    if (t.allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: steady-state tower allocated %lld times "
                     "(must be 0 at every depth)\n",
                     t.allocs);
        return 1;
    }
    return 0;
}

// -------------------------------------------------------------- main
int
SweepMain(int argc, char **argv)
{
    Axes axes;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (std::strcmp(a, "--n") == 0) {
            axes.n = SplitSizeList(next());
        } else if (std::strcmp(a, "--limbs") == 0) {
            axes.limbs = SplitSizeList(next());
        } else if (std::strcmp(a, "--depth") == 0) {
            axes.depth = SplitSizeList(next());
        } else if (std::strcmp(a, "--backend") == 0) {
            axes.backend = SplitList(next());
        } else if (std::strcmp(a, "--threads") == 0) {
            axes.threads = SplitSizeList(next());
        } else if (std::strcmp(a, "--reps") == 0) {
            axes.reps = std::atoi(next());
        } else if (std::strcmp(a, "--check") == 0) {
            axes.check = true;
        } else if (std::strcmp(a, "--json") == 0) {
            axes.json_path = next();
        } else {
            std::fprintf(stderr, "unknown flag %s\n", a);
            return 2;
        }
    }
    if (axes.threads.empty()) {
        std::size_t t = 0;
        if (const char *env = std::getenv("HENTT_THREADS")) {
            t = std::strtoull(env, nullptr, 10);
        }
        if (t == 0) {
            const unsigned hw = std::thread::hardware_concurrency();
            t = hw < 4 ? 4 : hw;
        }
        axes.threads = {t};
    }

    SetGlobalThreadCount(axes.threads.front());
    SetParallelGrain(1);
    GlobalThreadPool();  // spin up workers outside any timed region

    if (!axes.json_path.empty()) {
        return EmitJson(axes.json_path, axes.reps);
    }

    std::map<std::pair<std::size_t, std::size_t>,
             std::unique_ptr<SchemeBundle>>
        cache;
    std::printf("%6s %6s %6s %8s %8s %14s %12s %7s  %s\n", "n",
                "limbs", "depth", "backend", "threads", "tower_us",
                "us/level", "allocs", axes.check ? "check" : "");

    bool all_ok = true;
    for (const std::size_t n : axes.n) {
        for (const std::size_t limbs : axes.limbs) {
            for (const std::size_t depth : axes.depth) {
                if (depth + 1 > limbs) {
                    std::printf("%6zu %6zu %6zu  skip (depth > "
                                "limbs-1)\n",
                                n, limbs, depth);
                    continue;
                }
                for (const std::string &bname : axes.backend) {
                    const auto backend = ParseBackend(bname);
                    if (backend &&
                        !simd::BackendAvailable(*backend)) {
                        std::printf("%6zu %6zu %6zu %8s  skip "
                                    "(backend unavailable)\n",
                                    n, limbs, depth, bname.c_str());
                        continue;
                    }
                    for (const std::size_t threads : axes.threads) {
                        SetGlobalThreadCount(threads);
                        if (backend) {
                            simd::ForceBackend(*backend);
                        } else {
                            simd::ResetBackend();
                        }
                        SchemeBundle &bundle = GetBundle(cache, n, limbs);
                        const simd::Backend active[] = {
                            simd::ActiveBackend()};
                        const TowerTiming t = MeasureTower(
                            bundle, depth, axes.reps, active);
                        const double tower_ns = t.Total(0, depth);
                        std::string check;
                        if (axes.check) {
                            check = CheckRow(bundle, t, depth);
                            if (check.rfind("FAIL", 0) == 0) {
                                all_ok = false;
                            }
                        }
                        simd::ResetBackend();
                        if (t.allocs != 0) {
                            all_ok = false;
                        }
                        std::printf("%6zu %6zu %6zu %8s %8zu %14.1f "
                                    "%12.1f %7lld  %s\n",
                                    n, limbs, depth, bname.c_str(),
                                    threads, tower_ns / 1e3,
                                    tower_ns / 1e3 /
                                        static_cast<double>(depth),
                                    t.allocs, check.c_str());
                    }
                }
            }
        }
    }
    if (!all_ok) {
        std::fprintf(stderr,
                     "FAIL: at least one sweep row failed its check "
                     "or allocated in steady state\n");
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace hentt::he

int
main(int argc, char **argv)
{
    return hentt::he::SweepMain(argc, argv);
}
