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

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/modarith.h"
#include "common/thread_pool.h"
#include "he/bgv.h"
#include "he/ciphertext_batch.h"
#include "simd/simd_backend.h"

// ---------------------------------------------------------------------
// Allocation counter: global operator new replacement so every sweep
// row can prove its steady-state tower walk never touches the heap
// (same counter as bench_deep_circuit / bench_he_pipeline).
// ---------------------------------------------------------------------
namespace {
std::atomic<long long> g_alloc_count{0};
}

void *
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace hentt::he {
namespace {

using Clock = std::chrono::steady_clock;

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
double
Elapsed_ns(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

template <typename Fn>
double
TimeBest_ns(int reps, Fn &&fn)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        const auto t1 = Clock::now();
        const double ns = Elapsed_ns(t0, t1);
        if (best == 0.0 || ns < best) {
            best = ns;
        }
    }
    return best;
}

struct TowerTiming {
    std::vector<double> level_ns;  ///< per-level Mul + fused descend
    double total_ns = 0.0;         ///< sum over the walked levels
    long long allocs = 0;          ///< heap allocs in the timed region
    Ciphertext bottom;             ///< final accumulator (for checks)
};

/** Walk `depth` levels of the Mul -> fused RelinModSwitch tower with
 *  the batched kernels; per level: warm the arena + output shapes
 *  (2x), then take best-of-reps with preallocated outputs and count
 *  heap allocations across the timed region. */
TowerTiming
MeasureTower(SchemeBundle &bundle, std::size_t depth, int reps)
{
    TowerTiming t;
    const HeContext &ctx = *bundle.ctx;
    Ciphertext acc = bundle.ct_a;
    Ciphertext factor = bundle.ct_b;
    const std::size_t np = ctx.params().prime_count;
    for (std::size_t level = np; level >= 2 && level + depth >= np + 1;
         --level) {
        const Ciphertext *mul_a[] = {&acc};
        const Ciphertext *mul_b[] = {&factor};
        Ciphertext prod;
        Ciphertext *mul_out[] = {&prod};
        const Ciphertext *relin_in[] = {&prod};
        Ciphertext down;
        Ciphertext *down_out[] = {&down};

        BatchMul(ctx, mul_a, mul_b, mul_out);
        BatchRelinModSwitch(ctx, bundle.rk, relin_in, down_out);
        BatchMul(ctx, mul_a, mul_b, mul_out);
        BatchRelinModSwitch(ctx, bundle.rk, relin_in, down_out);

        const long long before =
            g_alloc_count.load(std::memory_order_relaxed);
        const double mul_ns = TimeBest_ns(reps, [&] {
            BatchMul(ctx, mul_a, mul_b, mul_out);
        });
        const double descend_ns = TimeBest_ns(reps, [&] {
            BatchRelinModSwitch(ctx, bundle.rk, relin_in, down_out);
        });
        t.allocs += g_alloc_count.load(std::memory_order_relaxed) -
                    before;
        t.level_ns.push_back(mul_ns + descend_ns);
        t.total_ns += mul_ns + descend_ns;

        acc = down;
        if (level > 2) {
            const Ciphertext *ms_in[] = {&factor};
            Ciphertext switched;
            Ciphertext *ms_out[] = {&switched};
            BatchModSwitch(ctx, ms_in, ms_out);
            factor = switched;
        }
    }
    t.bottom = std::move(acc);
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
    // Ring too big for the schoolbook oracle: re-walk on the scalar
    // backend and demand bit-identity, then positive noise headroom.
    simd::ForceBackend(simd::Backend::kScalar);
    Ciphertext acc = bundle.ct_a;
    Ciphertext factor = bundle.ct_b;
    for (std::size_t d = 0; d < depth; ++d) {
        acc = bundle.scheme->RelinModSwitch(
            bundle.scheme->Mul(acc, factor), bundle.rk);
        factor = bundle.scheme->ModSwitch(factor);
    }
    simd::ResetBackend();
    if (!BitIdentical(acc, t.bottom)) {
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
 *  at full depth.  Axis flags are ignored on purpose — the committed
 *  trajectory must always describe the same workload. */
int
EmitJson(const std::string &path, int reps)
{
    std::map<std::pair<std::size_t, std::size_t>,
             std::unique_ptr<SchemeBundle>>
        cache;
    SchemeBundle &bundle = GetBundle(cache, 4096, 8);
    const std::size_t full_depth = 7;

    simd::ResetBackend();
    TowerTiming def = MeasureTower(bundle, full_depth, reps);
    const char *def_name = simd::BackendName(simd::ActiveBackend());

    simd::ForceBackend(simd::Backend::kScalar);
    TowerTiming scal = MeasureTower(bundle, full_depth, reps);
    simd::ResetBackend();

    if (!BitIdentical(def.bottom, scal.bottom)) {
        std::fprintf(stderr,
                     "FAIL: default-backend tower != scalar tower\n");
        return 1;
    }

    auto prefix_ns = [&](std::size_t depth) {
        double s = 0.0;
        for (std::size_t d = 0; d < depth; ++d) {
            s += def.level_ns[d];
        }
        return s;
    };
    const double d1 = prefix_ns(1), d2 = prefix_ns(2),
                 d4 = prefix_ns(4), d7 = prefix_ns(7);
    const long long allocs = def.allocs + scal.allocs;

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"deep_circuit\",\n"
        "  \"n\": 4096,\n"
        "  \"limbs\": 8,\n"
        "  \"depth\": 7,\n"
        "  \"lanes\": %zu,\n"
        "  \"deep_tower_depth1_ns\": %.1f,\n"
        "  \"deep_tower_depth2_ns\": %.1f,\n"
        "  \"deep_tower_depth4_ns\": %.1f,\n"
        "  \"deep_tower_depth7_ns\": %.1f,\n"
        "  \"deep_tower_depth7_scalar_ns\": %.1f,\n"
        "  \"speedup_deep_tower_vs_scalar\": %.3f,\n"
        "  \"speedup_deep_depth_scaling\": %.3f,\n"
        "  \"speedup_deep_level2_vs_level8\": %.3f,\n"
        "  \"steady_state_allocs\": %lld,\n"
        "  \"simd_default_backend\": \"%s\",\n"
        "  \"avx2_available\": %s,\n"
        "  \"avx512_available\": %s\n"
        "}\n",
        GlobalThreadCount(), d1, d2, d4, d7, scal.total_ns,
        scal.total_ns / d7, full_depth * d1 / d7,
        def.level_ns.front() / def.level_ns.back(), allocs, def_name,
        simd::BackendAvailable(simd::Backend::kAvx2) ? "true"
                                                     : "false",
        simd::BackendAvailable(simd::Backend::kAvx512) ? "true"
                                                       : "false");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());

    if (allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: steady-state tower allocated %lld times "
                     "(must be 0 at every depth)\n",
                     allocs);
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
                        TowerTiming t =
                            MeasureTower(bundle, depth, axes.reps);
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
                                    threads, t.total_ns / 1e3,
                                    t.total_ns / 1e3 /
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
