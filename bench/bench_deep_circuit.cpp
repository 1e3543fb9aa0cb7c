/**
 * @file
 * Bootstrapping-depth circuit workload (PR 7): a full multiply-and-
 * descend tower at N = 4096 x 8 limbs, walked from the top of the
 * modulus chain to the bottom with the batched kernels, timed and
 * machine-checked at EVERY level:
 *
 *   - per-level steady-state timings for the BatchMul tensor stage and
 *     the fused BatchRelinModSwitch descend (warm arena, preallocated
 *     outputs);
 *   - zero steady-state heap allocations at every depth (global
 *     operator-new counter; any allocation fails the bench);
 *   - the relinearization transform budget: exactly L^2 forward NTT
 *     rows at a level with L primes (evaluation-domain keys);
 *   - the whole tower bit-identical across every available SIMD
 *     backend, with positive noise budget at the bottom.
 *
 * The machine-readable JSON series for this workload comes from the
 * parameter-sweep driver (bench/sweep_params.cpp), which emits
 * BENCH_deep_circuit.json; this bench is the human-readable deep dive
 * and the hard correctness gate.
 *
 * Usage: bench_deep_circuit [--threads T] [--reps R]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "harness.h"
#include "common/thread_pool.h"
#include "he/bgv.h"
#include "he/ciphertext_batch.h"
#include "ntt/ntt_engine.h"
#include "simd/simd_backend.h"

namespace hentt::he {
namespace {

/** Back-to-back calls per timed run of one tower stage, as in
 *  sweep_params: interleaved with every other level, a single call
 *  starts on operands the other arms evicted. */
constexpr int kTowerCallsPerRun = 4;

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

/** Tower walk through the scheme API; returns the per-level results. */
std::vector<Ciphertext>
RunTower(const BgvScheme &scheme, const RelinKey &rk,
         const Ciphertext &fresh, const Ciphertext &factor0,
         std::size_t depth)
{
    std::vector<Ciphertext> levels;
    Ciphertext acc = fresh;
    Ciphertext factor = factor0;
    for (std::size_t d = 0; d < depth; ++d) {
        acc = scheme.RelinModSwitch(scheme.Mul(acc, factor), rk);
        factor = scheme.ModSwitch(factor);
        levels.push_back(acc);
    }
    return levels;
}

int
BenchMain(int argc, char **argv)
{
    int reps = 5;
    std::size_t threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            threads = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        }
    }
    if (threads == 0) {
        if (const char *env = std::getenv("HENTT_THREADS")) {
            threads = std::strtoull(env, nullptr, 10);
        }
    }
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw < 4 ? 4 : hw;
    }

    HeParams params;
    params.degree = 4096;
    params.prime_count = 8;
    params.prime_bits = 50;
    params.plain_modulus = 65537;
    auto ctx = std::make_shared<HeContext>(params);
    BgvScheme scheme(ctx, /*seed=*/77);
    const SecretKey sk = scheme.KeyGen();
    const RelinKey rk = scheme.MakeRelinKey(sk);
    const std::size_t np = params.prime_count;
    const std::size_t depth = np - 1;

    bench::Header("BENCH deep_circuit",
                  "bootstrapping-depth Mul->Relin->ModSwitch tower "
                  "through the full modulus chain");
    std::printf("config: N=%zu, limbs=%zu, depth=%zu, lanes=%zu\n",
                params.degree, np, depth, threads);

    Plaintext ma(params.degree), mb(params.degree);
    {
        Xoshiro256 rng(3);
        for (u64 &x : ma) {
            x = rng.NextBelow(params.plain_modulus);
        }
        for (u64 &x : mb) {
            x = rng.NextBelow(params.plain_modulus);
        }
    }
    const Ciphertext ct_a = scheme.Encrypt(sk, ma);
    const Ciphertext ct_b = scheme.Encrypt(sk, mb);

    // ------------------------------------------------------------------
    // Correctness gate: the tower is bit-identical at every level under
    // every available backend, and still decryptable with headroom at
    // the bottom.
    // ------------------------------------------------------------------
    std::vector<simd::Backend> backends{simd::Backend::kScalar};
    if (simd::BackendAvailable(simd::Backend::kAvx2)) {
        backends.push_back(simd::Backend::kAvx2);
    }
    if (simd::BackendAvailable(simd::Backend::kAvx512)) {
        backends.push_back(simd::Backend::kAvx512);
    }

    std::vector<Ciphertext> reference;
    for (const simd::Backend backend : backends) {
        simd::ForceBackend(backend);
        std::vector<Ciphertext> levels =
            RunTower(scheme, rk, ct_a, ct_b, depth);
        simd::ResetBackend();
        if (reference.empty()) {
            reference = std::move(levels);
            continue;
        }
        for (std::size_t d = 0; d < depth; ++d) {
            if (!BitIdentical(levels[d], reference[d])) {
                std::fprintf(stderr,
                             "FAIL: tower diverged at level %zu on "
                             "backend %s\n",
                             d, simd::BackendName(backend));
                return 1;
            }
        }
    }
    const double bottom_budget =
        scheme.NoiseBudgetBits(sk, reference.back());
    std::printf("cross-check: %zu backend towers bit-identical at all "
                "%zu levels; bottom noise budget %.1f bits\n",
                backends.size(), depth, bottom_budget);
    if (bottom_budget <= 0.0) {
        std::fprintf(stderr, "FAIL: tower exhausted its noise budget\n");
        return 1;
    }

    SetGlobalThreadCount(threads);
    SetParallelGrain(1);
    GlobalThreadPool();  // spin up workers outside the timed region

    // ------------------------------------------------------------------
    // Per-level steady state: an untimed walk down the chain builds
    // every level's operands and checks its relinearization transform
    // budget; then the BatchMul tensor stage and the fused descend of
    // every level run as interleaved arms into preallocated outputs,
    // and the whole timed region must make zero heap allocations.
    // ------------------------------------------------------------------
    bench::Section(
        "per-level steady state (BatchMul / fused RelinModSwitch)");

    struct Level {
        Ciphertext acc, factor, prod, down;
    };
    std::vector<Level> levels(depth);
    // Arms 2d and 2d+1: level d's tensor stage and fused descend.
    const auto run = [&](std::size_t arm) {
        Level &lv = levels[arm / 2];
        if (arm % 2 == 0) {
            const Ciphertext *mul_a[] = {&lv.acc};
            const Ciphertext *mul_b[] = {&lv.factor};
            Ciphertext *mul_out[] = {&lv.prod};
            BatchMul(*ctx, mul_a, mul_b, mul_out);
        } else {
            const Ciphertext *relin_in[] = {&lv.prod};
            Ciphertext *down_out[] = {&lv.down};
            BatchRelinModSwitch(*ctx, rk, relin_in, down_out);
        }
    };

    bool rows_ok = true;
    std::vector<u64> fwd_rows(depth);
    Ciphertext acc = ct_a;
    Ciphertext factor = ct_b;
    for (std::size_t d = 0; d < depth; ++d) {
        levels[d].acc = acc;
        levels[d].factor = factor;
        run(2 * d);
        // Transform budget: L^2 forward rows for the digit lifts at a
        // level with L primes.
        ResetNttOpCounts();
        run(2 * d + 1);
        fwd_rows[d] = GetNttOpCounts().forward;
        rows_ok = rows_ok && fwd_rows[d] == (np - d) * (np - d);
        acc = levels[d].down;
        factor = scheme.ModSwitch(factor);
    }

    std::vector<bench::ArmTime> best(2 * depth);
    const long long before = bench::AllocCount();
    bench::TimeArms(reps, best, run, kTowerCallsPerRun);
    const long long total_allocs = bench::AllocCount() - before;

    std::printf("  %-7s %12s %16s %14s\n", "level", "mul_us",
                "relin_ms_us", "relin_fwd_rows");
    double total_mul_ns = 0.0, total_descend_ns = 0.0;
    for (std::size_t d = 0; d < depth; ++d) {
        std::printf("  %zu->%zu %13.1f %16.1f %14llu\n", np - d,
                    np - d - 1, best[2 * d].ns / 1e3,
                    best[2 * d + 1].ns / 1e3,
                    static_cast<unsigned long long>(fwd_rows[d]));
        total_mul_ns += best[2 * d].ns;
        total_descend_ns += best[2 * d + 1].ns;
    }
    std::printf("  heap allocations across the timed levels: %lld\n",
                total_allocs);

    bench::Section("whole tower");
    bench::Row("sum of mul stages", total_mul_ns / 1e3, "us");
    bench::Row("sum of descends", total_descend_ns / 1e3, "us");
    bench::Row("full tower", (total_mul_ns + total_descend_ns) / 1e3,
               "us");

    if (total_allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: steady-state tower allocated %lld times "
                     "(must be 0 at every depth)\n",
                     total_allocs);
        return 1;
    }
    if (!rows_ok) {
        std::fprintf(stderr,
                     "FAIL: relinearization forward rows != L^2 at "
                     "some level (eval-domain key contract)\n");
        return 1;
    }
    std::printf("\nsteady-state allocations across all %zu levels: 0; "
                "relin forward rows = L^2 at every level\n",
                depth);
    return 0;
}

}  // namespace
}  // namespace hentt::he

int
main(int argc, char **argv)
{
    return hentt::he::BenchMain(argc, argv);
}
