/**
 * @file
 * Benchmark for the batched RNS execution layer (this repo's CPU
 * analogue of the paper's Fig. 3 batching argument).
 *
 * Compares three execution paths for a full negacyclic RnsPoly
 * multiply (forward NTT x2, Hadamard, inverse NTT at N x np):
 *
 *   seed    — the pre-batching code path: serial limb loop, strict
 *             radix-2 butterflies, MulModNative (hardware `%`) in the
 *             Hadamard inner loop;
 *   fast    — single-threaded new path: lazy [0, 4p) butterflies
 *             (paper Algo. 2) and Barrett Hadamard;
 *   batched — the fast path with limbs dispatched across the global
 *             thread pool.
 *
 * Also verifies the acceptance-criterion allocation bound: the
 * steady-state multiply loop performs zero heap allocations (flat
 * storage + size-preserving vector assignment + the pool's type-erased
 * dispatch).
 *
 * Usage: bench_rns_batch [--json PATH] [--threads T] [--reps R]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness.h"
#include "common/modarith.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "ntt/ntt_lazy.h"
#include "poly/rns_poly.h"
#include "simd/simd_backend.h"

namespace hentt {
namespace {

/** Kernel calls per timed run of a single-row SIMD arm. One call
 *  takes microseconds; timed alone right after another backend's arm,
 *  one call per run read the scalar NTT 20-45% slower after the
 *  AVX-512 arms, and the AVX-512 radix-4 walk slower than its radix-2
 *  neighbour. */
constexpr int kKernelCallsPerRun = 32;

/** The seed code path, reconstructed: serial limbs, strict radix-2,
 *  native `%` Hadamard. Operates on preallocated buffers. */
void
SeedMultiply(RnsPoly &fa, RnsPoly &fb, const RnsPoly &a, const RnsPoly &b)
{
    fa = a;
    fb = b;
    const RnsNttContext &ctx = a.context();
    for (std::size_t i = 0; i < a.prime_count(); ++i) {
        ctx.engine(i).Forward(fa.row(i), NttAlgorithm::kRadix2);
        ctx.engine(i).Forward(fb.row(i), NttAlgorithm::kRadix2);
        const u64 p = ctx.basis().prime(i);
        const std::span<u64> ra = fa.row(i);
        const std::span<const u64> rb = fb.row(i);
        for (std::size_t k = 0; k < ra.size(); ++k) {
            ra[k] = MulModNative(ra[k], rb[k], p);
        }
        InttRadix2(fa.row(i), ctx.engine(i).table());
    }
}

/** The new execution layer: lazy butterflies + Barrett Hadamard, with
 *  limb dispatch controlled by the global pool configuration. */
void
BatchedMultiply(RnsPoly &fa, RnsPoly &fb, const RnsPoly &a,
                const RnsPoly &b)
{
    fa = a;
    fb = b;
    fa.ToEvaluation();
    fb.ToEvaluation();
    fa *= fb;
    fa.ToCoefficient();
}

RnsPoly
RandomPoly(const std::shared_ptr<const RnsNttContext> &ctx, u64 seed)
{
    RnsPoly poly(ctx);
    Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < poly.prime_count(); ++i) {
        const u64 p = ctx->basis().prime(i);
        for (u64 &x : poly.row(i)) {
            x = rng.NextBelow(p);
        }
    }
    return poly;
}

int
BenchMain(int argc, char **argv)
{
    const std::size_t n = 4096;
    const std::size_t np = 8;
    int reps = 7;
    std::size_t threads = 0;  // 0 = hardware default, floor 4
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
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
        threads = hw < 4 ? 4 : hw;  // acceptance criterion: >= 4 lanes
    }

    bench::Header("BENCH rns_batch",
                  "batched parallel RNS multiply vs. the serial "
                  "MulModNative seed path");
    std::printf("config: N=%zu, limbs=%zu, lanes=%zu, "
                "hardware_concurrency=%u\n",
                n, np, threads, std::thread::hardware_concurrency());

    auto basis = std::make_shared<RnsBasis>(n, 50, np);
    auto ctx = std::make_shared<RnsNttContext>(n, std::move(basis));
    const RnsPoly a = RandomPoly(ctx, 1);
    const RnsPoly b = RandomPoly(ctx, 2);
    RnsPoly fa(ctx), fb(ctx);

    // Correctness cross-check before timing anything.
    {
        RnsPoly sa(ctx), sb(ctx);
        SeedMultiply(sa, sb, a, b);
        BatchedMultiply(fa, fb, a, b);
        for (std::size_t i = 0; i < np; ++i) {
            const std::span<const u64> x = sa.row(i);
            const std::span<const u64> y = fa.row(i);
            for (std::size_t k = 0; k < n; ++k) {
                if (x[k] != y[k]) {
                    std::fprintf(stderr,
                                 "MISMATCH row %zu index %zu\n", i, k);
                    return 1;
                }
            }
        }
    }

    bench::Section("full negacyclic multiply (2 fwd + Hadamard + inv)");
    // The three paths are interleaved arms over one pool of `threads`
    // lanes. The serial arms raise the grain past any job, so
    // ParallelFor takes the same caller-only loop a 1-lane pool takes,
    // without tearing the pool down between arms. The pool arm runs
    // last in each round and leaves the grain at 1 (always dispatch:
    // the batch is large).
    SetGlobalThreadCount(threads);
    GlobalThreadPool();  // spin up workers outside the timed region
    bench::ArmTime paths[3];  // seed, fast (1 lane), batched (pool)
    bench::TimeArms(reps, paths, [&](std::size_t arm) {
        SetParallelGrain(arm == 2 ? 1
                                  : std::numeric_limits<std::size_t>::max());
        if (arm == 0) {
            SeedMultiply(fa, fb, a, b);
        } else {
            BatchedMultiply(fa, fb, a, b);
        }
    });
    const double seed_ns = paths[0].ns;
    const double fast_ns = paths[1].ns;
    const double batched_ns = paths[2].ns;

    bench::Row("seed (serial, native %)", seed_ns / 1e3, "us");
    bench::Row("fast (1 lane)", fast_ns / 1e3, "us");
    bench::Row("batched (pool)", batched_ns / 1e3, "us");
    bench::Ratio("fast vs seed", seed_ns / fast_ns);
    bench::Ratio("batched vs seed", seed_ns / batched_ns);

    // ------------------------------------------------------------------
    // SIMD backend columns: the butterfly-bound single-row N=4096 lazy
    // forward (the kernel the backends exist for) and the full
    // multiply, per backend, one lane, so the vectorization shows up
    // without the pool in the way. Each backend is measured through
    // BOTH stage walkers — the fused radix-4 default (ceil(log N / 2)
    // kernel passes) and the radix-2 ablation walk (log N passes) —
    // which is how the pass reduction becomes a tracked column. Every
    // backend is an arm of one timing, so the cross-backend ratios
    // compare runs from the same rounds.
    // ------------------------------------------------------------------
    bench::Section("simd backends (1 lane)");
    SetGlobalThreadCount(1);
    // Per-backend columns are indexed by enum value, never by literal
    // position, so the JSON writer stays in step with the Backend enum.
    constexpr std::size_t kBackends = simd::kBackendCount;
    constexpr std::size_t kScalarSlot =
        static_cast<std::size_t>(simd::Backend::kScalar);
    constexpr std::size_t kAvx2Slot =
        static_cast<std::size_t>(simd::Backend::kAvx2);
    constexpr std::size_t kAvx512Slot =
        static_cast<std::size_t>(simd::Backend::kAvx512);
    constexpr std::size_t kNeonSlot =
        static_cast<std::size_t>(simd::Backend::kNeon);
    const bool avx2_available =
        simd::BackendAvailable(simd::Backend::kAvx2);
    const bool avx512_available =
        simd::BackendAvailable(simd::Backend::kAvx512);
    const bool neon_available =
        simd::BackendAvailable(simd::Backend::kNeon);
    std::vector<simd::Backend> available;
    for (const auto backend : simd::kAllBackends) {
        if (simd::BackendAvailable(backend)) {
            available.push_back(backend);
        }
    }
    const auto slot_of = [&](std::size_t i) {
        return static_cast<std::size_t>(available[i]);
    };
    double ntt_backend_ns[kBackends] = {};    // fused radix-4 walker
    double ntt_radix2_ns[kBackends] = {};     // radix-2 reference walk
    double mul_backend_ns[kBackends] = {};
    {
        RnsPoly ntt_poly = a;
        // Arms 2i and 2i+1: backend i through each walker.
        std::vector<bench::ArmTime> ntt(2 * available.size());
        bench::TimeArms(
            3 * reps, ntt,
            [&](std::size_t arm) {
                simd::ForceBackend(available[arm / 2]);
                std::copy(a.row(0).begin(), a.row(0).end(),
                          ntt_poly.row(0).begin());
                if (arm % 2 == 0) {
                    NttRadix2Lazy(ntt_poly.row(0),
                                  ctx->engine(0).table());
                } else {
                    NttRadix2LazyUnfused(ntt_poly.row(0),
                                         ctx->engine(0).table());
                }
            },
            kKernelCallsPerRun);
        std::vector<bench::ArmTime> mul(available.size());
        bench::TimeArms(reps, mul, [&](std::size_t arm) {
            simd::ForceBackend(available[arm]);
            BatchedMultiply(fa, fb, a, b);
        });
        simd::ResetBackend();
        for (std::size_t i = 0; i < available.size(); ++i) {
            const std::size_t slot = slot_of(i);
            ntt_backend_ns[slot] = ntt[2 * i].ns;
            ntt_radix2_ns[slot] = ntt[2 * i + 1].ns;
            mul_backend_ns[slot] = mul[i].ns;
            const std::string name = simd::BackendName(available[i]);
            bench::Row("ntt4096 radix4 " + name,
                       ntt_backend_ns[slot] / 1e3, "us");
            bench::Row("ntt4096 radix2 " + name, ntt_radix2_ns[slot] / 1e3,
                       "us");
            bench::Row("multiply " + name, mul[i].ns / 1e3, "us");
        }
    }
    if (avx2_available) {
        bench::Ratio("ntt4096 avx2 vs scalar",
                     ntt_backend_ns[kScalarSlot] / ntt_backend_ns[kAvx2Slot]);
        bench::Ratio("multiply avx2 vs scalar",
                     mul_backend_ns[kScalarSlot] / mul_backend_ns[kAvx2Slot]);
    }
    bench::Ratio("ntt4096 radix4 vs radix2 (scalar)",
                 ntt_radix2_ns[kScalarSlot] / ntt_backend_ns[kScalarSlot]);
    // The acceptance series for the fused walker: the best radix-4
    // column against the radix-2 AVX2 path PR 4 shipped.
    const std::size_t best_slot = avx512_available ? kAvx512Slot
                                  : avx2_available ? kAvx2Slot
                                                   : kScalarSlot;
    const double radix4_vs_pr4 =
        avx2_available
            ? ntt_radix2_ns[kAvx2Slot] / ntt_backend_ns[best_slot]
            : 0.0;
    if (avx2_available) {
        bench::Ratio("ntt4096 radix4 best vs pr4 radix2 avx2",
                     radix4_vs_pr4);
    }

    // ------------------------------------------------------------------
    // Element-wise family columns: the tensor stage and the fused
    // fold+rescale epilogue at N=4096 through each backend's
    // PRODUCTION table (the Hadamard/rescale loops of the HE layer).
    // The avx512-vs-avx2 ratios are the cross-machine acceptance
    // series for the 8-lane element-wise tentpole; note the AVX2
    // production table resolves tensor_rows to the scalar mulx loop
    // (the measured 4-lane verdict), so the ratio reads "what the
    // vpmullq table buys over the best pre-AVX-512 path".
    // ------------------------------------------------------------------
    bench::Section("elementwise rows, production tables (N=4096)");
    double ew_tensor_ns[kBackends] = {};
    double ew_foldrescale_ns[kBackends] = {};
    {
        const u64 p0 = ctx->basis().prime(0);
        const BarrettReducer red(p0);
        const simd::BarrettConsts consts = simd::Consts(red);
        const u64 s = a.row(1)[0] % p0;
        const u64 s_bar = ShoupPrecompute(s, p0);
        std::vector<u64> c0(n), c1(n), c2(n), dst(n);
        // Arms 2i and 2i+1: backend i's tensor and fold+rescale rows.
        std::vector<bench::ArmTime> ew(2 * available.size());
        bench::TimeArms(
            3 * reps, ew,
            [&](std::size_t arm) {
                const simd::Kernels &kernels =
                    simd::Get(available[arm / 2]);
                if (arm % 2 == 0) {
                    kernels.tensor_rows(c0.data(), c1.data(), c2.data(),
                                        a.row(0).data(), a.row(1).data(),
                                        b.row(0).data(), b.row(1).data(),
                                        n, consts);
                } else {
                    kernels.fold_rescale_rows(dst.data(),
                                              b.row(0).data(), n, p0, s,
                                              s_bar);
                }
            },
            kKernelCallsPerRun);
        for (std::size_t i = 0; i < available.size(); ++i) {
            const std::size_t slot = slot_of(i);
            ew_tensor_ns[slot] = ew[2 * i].ns;
            ew_foldrescale_ns[slot] = ew[2 * i + 1].ns;
            const std::string name = simd::BackendName(available[i]);
            bench::Row("tensor " + name, ew_tensor_ns[slot] / 1e3, "us");
            bench::Row("fold+rescale " + name,
                       ew_foldrescale_ns[slot] / 1e3, "us");
        }
    }
    const double ew_tensor_512_vs_2 =
        (avx2_available && avx512_available)
            ? ew_tensor_ns[kAvx2Slot] / ew_tensor_ns[kAvx512Slot]
            : 0.0;
    const double ew_foldrescale_512_vs_2 =
        (avx2_available && avx512_available)
            ? ew_foldrescale_ns[kAvx2Slot] /
                  ew_foldrescale_ns[kAvx512Slot]
            : 0.0;
    if (avx512_available) {
        bench::Ratio("tensor avx512 vs avx2 table", ew_tensor_512_vs_2);
        bench::Ratio("fold+rescale avx512 vs avx2 table",
                     ew_foldrescale_512_vs_2);
    }
    SetGlobalThreadCount(threads);

    bench::Section("steady-state allocation check");
    long long alloc_delta;
    {
        BatchedMultiply(fa, fb, a, b);  // ensure buffers are sized
        const long long before = bench::AllocCount();
        for (int r = 0; r < 5; ++r) {
            BatchedMultiply(fa, fb, a, b);
        }
        alloc_delta = bench::AllocCount() - before;
    }
    std::printf("  heap allocations in 5 steady-state multiplies: %lld\n",
                alloc_delta);

    bench::JsonObject json("rns_batch");
    json.Add("n", n);
    json.Add("limbs", np);
    json.Add("lanes", threads);
    json.Add("seed_serial_native_ns", seed_ns);
    json.Add("fast_single_lane_ns", fast_ns);
    json.Add("batched_pool_ns", batched_ns);
    json.Add("speedup_fast_vs_seed", seed_ns / fast_ns);
    json.Add("speedup_batched_vs_seed", seed_ns / batched_ns);
    json.Add("simd_default_backend",
             simd::BackendName(simd::ActiveBackend()));
    json.Add("avx2_available", avx2_available);
    json.Add("avx512_available", avx512_available);
    json.Add("neon_available", neon_available);
    json.Add("ntt4096_scalar_ns", ntt_backend_ns[kScalarSlot]);
    json.Add("ntt4096_avx2_ns", ntt_backend_ns[kAvx2Slot]);
    json.Add("ntt4096_avx512_ns", ntt_backend_ns[kAvx512Slot]);
    json.Add("ntt4096_radix2_scalar_ns", ntt_radix2_ns[kScalarSlot]);
    json.Add("ntt4096_radix2_avx2_ns", ntt_radix2_ns[kAvx2Slot]);
    json.Add("ntt4096_radix2_avx512_ns", ntt_radix2_ns[kAvx512Slot]);
    json.Add("speedup_ntt4096_avx2_vs_scalar",
             avx2_available
                 ? ntt_backend_ns[kScalarSlot] / ntt_backend_ns[kAvx2Slot]
                 : 0.0);
    json.Add("speedup_ntt4096_radix4_vs_radix2_scalar",
             ntt_radix2_ns[kScalarSlot] / ntt_backend_ns[kScalarSlot]);
    json.Add("speedup_ntt4096_radix4_vs_radix2_avx2",
             avx2_available
                 ? ntt_radix2_ns[kAvx2Slot] / ntt_backend_ns[kAvx2Slot]
                 : 0.0);
    json.Add("speedup_ntt4096_radix4_vs_radix2_avx512",
             avx512_available ? ntt_radix2_ns[kAvx512Slot] /
                                    ntt_backend_ns[kAvx512Slot]
                              : 0.0);
    json.Add("speedup_ntt4096_radix4_best_vs_pr4_radix2_avx2",
             radix4_vs_pr4);
    json.Add("multiply_scalar_ns", mul_backend_ns[kScalarSlot]);
    json.Add("multiply_avx2_ns", mul_backend_ns[kAvx2Slot]);
    json.Add("multiply_avx512_ns", mul_backend_ns[kAvx512Slot]);
    json.Add("speedup_multiply_avx2_vs_scalar",
             avx2_available
                 ? mul_backend_ns[kScalarSlot] / mul_backend_ns[kAvx2Slot]
                 : 0.0);
    json.Add("elementwise_tensor_scalar_ns", ew_tensor_ns[kScalarSlot]);
    json.Add("elementwise_tensor_avx2_ns", ew_tensor_ns[kAvx2Slot]);
    json.Add("elementwise_tensor_avx512_ns", ew_tensor_ns[kAvx512Slot]);
    json.Add("elementwise_tensor_neon_ns", ew_tensor_ns[kNeonSlot]);
    json.Add("elementwise_foldrescale_scalar_ns",
             ew_foldrescale_ns[kScalarSlot]);
    json.Add("elementwise_foldrescale_avx2_ns",
             ew_foldrescale_ns[kAvx2Slot]);
    json.Add("elementwise_foldrescale_avx512_ns",
             ew_foldrescale_ns[kAvx512Slot]);
    json.Add("elementwise_foldrescale_neon_ns",
             ew_foldrescale_ns[kNeonSlot]);
    json.Add("speedup_elementwise_tensor_avx512_vs_avx2",
             ew_tensor_512_vs_2);
    json.Add("speedup_elementwise_foldrescale_avx512_vs_avx2",
             ew_foldrescale_512_vs_2);
    json.Add("steady_state_allocs", alloc_delta);
    if (!json.Write(json_path)) {
        return 1;
    }

    if (alloc_delta != 0) {
        std::fprintf(stderr,
                     "FAIL: steady-state multiply allocated %lld times\n",
                     alloc_delta);
        return 1;
    }
    // Advisory, not a hard gate: on cores that split 256-bit ops into
    // two halves (or on noisy shared runners) a correct build can
    // legitimately land below the 1.5x target; the committed JSON
    // column is the tracked record.
    if (avx2_available &&
        ntt_backend_ns[kScalarSlot] / ntt_backend_ns[kAvx2Slot] < 1.5) {
        std::fprintf(stderr,
                     "WARNING: AVX2 backend below the 1.5x target on "
                     "the N=4096 butterfly-bound microbench (%.2fx)\n",
                     ntt_backend_ns[kScalarSlot] / ntt_backend_ns[kAvx2Slot]);
    }
    // Same advisory status for the fused-walker acceptance series: the
    // best radix-4 column should beat the PR 4 radix-2 AVX2 path by
    // >= 1.15x on hardware with a wide backend.
    if (avx2_available && radix4_vs_pr4 < 1.15) {
        std::fprintf(stderr,
                     "WARNING: fused radix-4 walker below the 1.15x "
                     "target vs the PR 4 radix-2 AVX2 path on the "
                     "N=4096 butterfly series (%.2fx)\n",
                     radix4_vs_pr4);
    }
    // Element-wise tentpole target: the all-native AVX-512 table should
    // beat the AVX2 production table (scalar tensor verdict) by >= 1.2x
    // on both acceptance rows. Advisory for the same shared-runner
    // reasons as above.
    if (avx512_available &&
        (ew_tensor_512_vs_2 < 1.2 || ew_foldrescale_512_vs_2 < 1.2)) {
        std::fprintf(stderr,
                     "WARNING: AVX-512 element-wise family below the "
                     "1.2x target vs the AVX2 table at N=4096 "
                     "(tensor %.2fx, fold+rescale %.2fx)\n",
                     ew_tensor_512_vs_2, ew_foldrescale_512_vs_2);
    }
    return 0;
}

}  // namespace
}  // namespace hentt

int
main(int argc, char **argv)
{
    return hentt::BenchMain(argc, argv);
}
