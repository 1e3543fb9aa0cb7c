/**
 * @file
 * Benchmark for the ciphertext-level batched HE pipeline (PR 2): a full
 * Mul + Relinearize chain through three execution paths.
 *
 *   pr1     — the PR 1 formulation reconstructed: per-RnsPoly dispatch
 *             (each part transformed by its own pool job) and
 *             coefficient-domain relinearization keys, so every gadget
 *             product re-transforms the digit and the key
 *             (4*np^2 forward NTT rows per Relinearize);
 *   batched — the ciphertext-level kernels (he/ciphertext_batch.h):
 *             one lazy forward dispatch per op spanning all parts x
 *             limbs, eval-domain keys (np^2 forward rows per
 *             Relinearize), evaluation-domain gadget accumulation;
 *   graph   — HeOpGraph running independent Mul+Relin chains in one
 *             wavefront, so their stages share dispatches.
 *
 * PR 3 adds the fused Relinearize→ModSwitch stage: the same chain
 * continued one step down the modulus chain, measured unfused
 * (Relinearize then ModSwitch — the PR 2 path) against the fused
 * BatchRelinModSwitch, with the element-wise pass counts and the
 * scratch-arena steady-state allocation count machine-checked.
 *
 * Emits BENCH_he_pipeline.json with the measured times, the speedups,
 * the per-path forward-NTT counts for one Relinearize (the PR 2
 * acceptance criterion), and the fused-stage pass/alloc counts (the
 * PR 3 criterion: strictly fewer standalone element-wise sweeps and
 * zero steady-state heap allocations).
 *
 * Usage: bench_he_pipeline [--json PATH] [--threads T] [--reps R]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness.h"
#include "common/thread_pool.h"
#include "he/bgv.h"
#include "he/ciphertext_batch.h"
#include "he/he_graph.h"
#include "ntt/ntt_engine.h"
#include "simd/simd_backend.h"

namespace hentt::he {
namespace {

/** Copy of @p x transformed to the evaluation domain if needed. */
RnsPoly
ToEvalStrict(const RnsPoly &x)
{
    RnsPoly y = x;
    if (y.domain() == RnsPoly::Domain::kCoefficient) {
        y.ToEvaluation();
    }
    return y;
}

/** The PR 1 tensor product: each part transformed by its own pool
 *  dispatch, strict (fully reduced) forwards. */
Ciphertext
Pr1Mul(const Ciphertext &a, const Ciphertext &b)
{
    const RnsPoly a0 = ToEvalStrict(a.parts[0]);
    const RnsPoly a1 = ToEvalStrict(a.parts[1]);
    const RnsPoly b0 = ToEvalStrict(b.parts[0]);
    const RnsPoly b1 = ToEvalStrict(b.parts[1]);

    RnsPoly c0 = a0 * b0;
    RnsPoly c1 = a0 * b1;
    c1.MultiplyAccumulate(a1, b0);
    RnsPoly c2 = a1 * b1;
    c0.ToCoefficient();
    c1.ToCoefficient();
    c2.ToCoefficient();

    Ciphertext out;
    out.parts.push_back(std::move(c0));
    out.parts.push_back(std::move(c1));
    out.parts.push_back(std::move(c2));
    return out;
}

/** The PR 1 relinearization: coefficient-domain keys, so every gadget
 *  product runs a full RnsPoly::Multiply that re-transforms both the
 *  digit and the key (4*np^2 forward NTT rows total). */
Ciphertext
Pr1Relinearize(const HeContext &ctx, const Ciphertext &ct,
               const std::vector<RnsPoly> &key_b,
               const std::vector<RnsPoly> &key_a)
{
    const auto &ntt_ctx = *ctx.ntt_context();
    const RnsBasis &basis = ctx.basis();
    const std::size_t np = basis.prime_count();
    const RnsPoly &c2 = ct.parts[2];

    RnsPoly c0 = ct.parts[0];
    RnsPoly c1 = ct.parts[1];
    RnsPoly digit(ctx.ntt_context());
    for (std::size_t j = 0; j < np; ++j) {
        const u64 qj = basis.prime(j);
        const u64 q_tilde = InvMod(ctx.q_hat(j, j), qj);
        const u64 q_tilde_bar = ShoupPrecompute(q_tilde, qj);
        for (std::size_t k = 0; k < ctx.degree(); ++k) {
            const u64 v =
                MulModShoup(c2.row(j)[k], q_tilde, q_tilde_bar, qj);
            for (std::size_t i = 0; i < np; ++i) {
                digit.row(i)[k] = ntt_ctx.reducer(i).Reduce(v);
            }
        }
        c0 += RnsPoly::Multiply(digit, key_b[j]);
        c1 += RnsPoly::Multiply(digit, key_a[j]);
    }
    return Ciphertext{{std::move(c0), std::move(c1)}};
}

int
BenchMain(int argc, char **argv)
{
    int reps = 5;
    std::size_t threads = 0;
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
        threads = hw < 4 ? 4 : hw;
    }

    HeParams params;
    params.degree = 4096;
    params.prime_count = 8;
    params.prime_bits = 50;
    params.plain_modulus = 65537;
    auto ctx = std::make_shared<HeContext>(params);
    BgvScheme scheme(ctx, /*seed=*/99);
    const SecretKey sk = scheme.KeyGen();
    const RelinKey rk = scheme.MakeRelinKey(sk);
    const std::size_t np = params.prime_count;

    bench::Header("BENCH he_pipeline",
                  "ciphertext-level batched Mul+Relinearize vs. the "
                  "PR 1 per-RnsPoly dispatch path");
    std::printf("config: N=%zu, limbs=%zu, lanes=%zu\n", params.degree,
                np, threads);

    // Coefficient-domain key copies for the PR 1 baseline.
    std::vector<RnsPoly> key_b, key_a;
    for (const RnsPoly &poly : rk.at_level(np).b) {
        RnsPoly copy = poly;
        copy.ToCoefficient();
        key_b.push_back(std::move(copy));
    }
    for (const RnsPoly &poly : rk.at_level(np).a) {
        RnsPoly copy = poly;
        copy.ToCoefficient();
        key_a.push_back(std::move(copy));
    }

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

    // Correctness cross-check: both paths must decrypt to the same
    // plaintext product.
    {
        const Ciphertext ref =
            Pr1Relinearize(*ctx, Pr1Mul(ct_a, ct_b), key_b, key_a);
        const Ciphertext fast =
            scheme.Relinearize(scheme.Mul(ct_a, ct_b), rk);
        if (scheme.Decrypt(sk, ref) != scheme.Decrypt(sk, fast)) {
            std::fprintf(stderr,
                         "MISMATCH: pipeline paths decrypt differently\n");
            return 1;
        }
    }

    // Forward-NTT budget per Relinearize (the acceptance criterion).
    const Ciphertext prod = scheme.Mul(ct_a, ct_b);
    ResetNttOpCounts();
    (void)Pr1Relinearize(*ctx, prod, key_b, key_a);
    const u64 pr1_fwd = GetNttOpCounts().forward;
    ResetNttOpCounts();
    (void)scheme.Relinearize(prod, rk);
    const u64 batched_fwd = GetNttOpCounts().forward;

    SetGlobalThreadCount(threads);
    SetParallelGrain(1);
    GlobalThreadPool();  // spin up workers outside the timed region

    bench::Section("Mul + Relinearize chain");
    // Arms: the PR 1 path, the ciphertext-level kernels, and the graph
    // path running 4 independent Mul+Relin chains in one wavefront.
    constexpr std::size_t kGraphOps = 4;
    bench::ArmTime chain[3];
    bench::TimeArms(reps, chain, [&](std::size_t arm) {
        if (arm == 0) {
            (void)Pr1Relinearize(*ctx, Pr1Mul(ct_a, ct_b), key_b, key_a);
        } else if (arm == 1) {
            (void)scheme.Relinearize(scheme.Mul(ct_a, ct_b), rk);
        } else {
            HeOpGraph graph(scheme, &rk);
            std::vector<CtFuture> outs;
            for (std::size_t i = 0; i < kGraphOps; ++i) {
                const CtFuture x = graph.Input(ct_a);
                const CtFuture y = graph.Input(ct_b);
                outs.push_back(graph.MulRelin(x, y));
            }
            graph.Execute();
        }
    });
    const double pr1_ns = chain[0].ns;
    const double batched_ns = chain[1].ns;
    const double graph_per_op_ns = chain[2].ns / kGraphOps;

    bench::Row("pr1 (per-RnsPoly)", pr1_ns / 1e3, "us");
    bench::Row("batched (ct-level)", batched_ns / 1e3, "us");
    bench::Row("graph (per op, x4)", graph_per_op_ns / 1e3, "us");
    bench::Ratio("batched vs pr1", pr1_ns / batched_ns);
    bench::Ratio("graph vs pr1", pr1_ns / graph_per_op_ns);

    // ------------------------------------------------------------------
    // Fused Relinearize→ModSwitch vs the unfused PR 2 chain (PR 3).
    // ------------------------------------------------------------------
    bench::Section("Relinearize -> ModSwitch (fused vs unfused)");
    // Steady state: both paths run through the batch kernels with
    // reused outputs (warm arena); the saved passes are a
    // percent-level effect, so triple the reps.
    double unfused_ms_ns = 0.0, fused_ms_ns = 0.0;
    {
        Ciphertext relin_out, ms_out, fused_out;
        const Ciphertext *src[] = {&prod};
        const Ciphertext *ms_src[] = {&relin_out};
        Ciphertext *relin_dst[] = {&relin_out};
        Ciphertext *ms_dst[] = {&ms_out};
        Ciphertext *fused_dst[] = {&fused_out};
        bench::ArmTime stage[2];  // unfused, fused
        bench::TimeArms(3 * reps, stage, [&](std::size_t arm) {
            if (arm == 0) {
                BatchRelinearize(*ctx, rk, src, relin_dst);
                BatchModSwitch(*ctx, ms_src, ms_dst);
            } else {
                BatchRelinModSwitch(*ctx, rk, src, fused_dst);
            }
        });
        unfused_ms_ns = stage[0].ns;
        fused_ms_ns = stage[1].ns;
    }
    bench::Row("unfused (PR 2 chain)", unfused_ms_ns / 1e3, "us");
    bench::Row("fused (one stage)", fused_ms_ns / 1e3, "us");
    bench::Ratio("fused vs unfused", unfused_ms_ns / fused_ms_ns);

    // Standalone element-wise sweeps (destination limb rows) — the
    // quantity the fusion removes; transforms are identical either way.
    ResetNttOpCounts();
    (void)scheme.ModSwitch(scheme.Relinearize(prod, rk));
    const NttOpCounts unfused_counts = GetNttOpCounts();
    ResetNttOpCounts();
    (void)scheme.RelinModSwitch(prod, rk);
    const NttOpCounts fused_counts = GetNttOpCounts();
    std::printf("  elementwise rows: unfused %llu, fused %llu "
                "(saved %llu)\n",
                static_cast<unsigned long long>(
                    unfused_counts.elementwise),
                static_cast<unsigned long long>(fused_counts.elementwise),
                static_cast<unsigned long long>(
                    unfused_counts.elementwise -
                    fused_counts.elementwise));

    // Steady-state allocation count of the fused stage: warmed arena +
    // reused output must keep 5 calls off the heap entirely.
    long long relin_ms_allocs = 0;
    {
        Ciphertext ms_out;
        const Ciphertext *ms_src[] = {&prod};
        Ciphertext *ms_dst[] = {&ms_out};
        BatchRelinModSwitch(*ctx, rk, ms_src, ms_dst);
        BatchRelinModSwitch(*ctx, rk, ms_src, ms_dst);
        const long long before = bench::AllocCount();
        for (int r = 0; r < 5; ++r) {
            BatchRelinModSwitch(*ctx, rk, ms_src, ms_dst);
        }
        relin_ms_allocs = bench::AllocCount() - before;
    }
    std::printf("  steady-state allocs (5 fused calls): %lld\n",
                relin_ms_allocs);

    // ------------------------------------------------------------------
    // SIMD backend columns: the steady-state fused stage per backend
    // (warm arena, reused output), one lane, so the vectorized inner
    // loops show up without pool noise.
    // ------------------------------------------------------------------
    bench::Section("fused RelinModSwitch per simd backend (1 lane)");
    SetGlobalThreadCount(1);
    const bool avx2_available =
        simd::BackendAvailable(simd::Backend::kAvx2);
    const bool avx512_available =
        simd::BackendAvailable(simd::Backend::kAvx512);
    constexpr auto kScalarSlot =
        static_cast<std::size_t>(simd::Backend::kScalar);
    constexpr auto kAvx2Slot = static_cast<std::size_t>(simd::Backend::kAvx2);
    constexpr auto kAvx512Slot =
        static_cast<std::size_t>(simd::Backend::kAvx512);
    double fused_backend_ns[simd::kBackendCount] = {};
    {
        std::vector<simd::Backend> available;
        for (const auto backend : simd::kAllBackends) {
            if (simd::BackendAvailable(backend)) {
                available.push_back(backend);
            }
        }
        Ciphertext ms_out;
        const Ciphertext *ms_src[] = {&prod};
        Ciphertext *ms_dst[] = {&ms_out};
        std::vector<bench::ArmTime> fused(available.size());
        bench::TimeArms(reps, fused, [&](std::size_t arm) {
            simd::ForceBackend(available[arm]);
            BatchRelinModSwitch(*ctx, rk, ms_src, ms_dst);
        });
        simd::ResetBackend();
        for (std::size_t i = 0; i < available.size(); ++i) {
            fused_backend_ns[static_cast<std::size_t>(available[i])] =
                fused[i].ns;
            bench::Row(std::string("fused ") +
                           simd::BackendName(available[i]),
                       fused[i].ns / 1e3, "us");
        }
    }
    const double fused_avx2_vs_scalar =
        avx2_available
            ? fused_backend_ns[kScalarSlot] / fused_backend_ns[kAvx2Slot]
            : 0.0;
    const double fused_avx512_vs_avx2 =
        avx512_available
            ? fused_backend_ns[kAvx2Slot] / fused_backend_ns[kAvx512Slot]
            : 0.0;
    if (avx2_available) {
        bench::Ratio("fused avx2 vs scalar", fused_avx2_vs_scalar);
    }
    if (avx512_available) {
        bench::Ratio("fused avx512 vs avx2", fused_avx512_vs_avx2);
    }
    SetGlobalThreadCount(threads);

    bench::Section("forward NTT rows per Relinearize");
    std::printf("  pr1 (coeff-domain keys)   %6llu\n",
                static_cast<unsigned long long>(pr1_fwd));
    std::printf("  batched (eval-domain)     %6llu\n",
                static_cast<unsigned long long>(batched_fwd));

    bench::JsonObject json("he_pipeline");
    json.Add("n", params.degree);
    json.Add("limbs", np);
    json.Add("lanes", threads);
    json.Add("pr1_mul_relin_ns", pr1_ns);
    json.Add("batched_mul_relin_ns", batched_ns);
    json.Add("graph_per_op_ns", graph_per_op_ns);
    json.Add("speedup_batched_vs_pr1", pr1_ns / batched_ns);
    json.Add("speedup_graph_vs_pr1", pr1_ns / graph_per_op_ns);
    json.Add("relin_forward_ntt_rows_pr1", pr1_fwd);
    json.Add("relin_forward_ntt_rows_batched", batched_fwd);
    json.Add("unfused_relin_ms_ns", unfused_ms_ns);
    json.Add("fused_relin_ms_ns", fused_ms_ns);
    json.Add("speedup_fused_vs_unfused", unfused_ms_ns / fused_ms_ns);
    json.Add("relin_ms_elementwise_rows_unfused",
             unfused_counts.elementwise);
    json.Add("relin_ms_elementwise_rows_fused", fused_counts.elementwise);
    json.Add("relin_ms_steady_state_allocs", relin_ms_allocs);
    json.Add("simd_default_backend",
             simd::BackendName(simd::ActiveBackend()));
    json.Add("avx2_available", avx2_available);
    json.Add("avx512_available", avx512_available);
    json.Add("fused_relin_ms_scalar_ns", fused_backend_ns[kScalarSlot]);
    json.Add("fused_relin_ms_avx2_ns", fused_backend_ns[kAvx2Slot]);
    json.Add("fused_relin_ms_avx512_ns", fused_backend_ns[kAvx512Slot]);
    json.Add("speedup_fused_avx2_vs_scalar", fused_avx2_vs_scalar);
    json.Add("speedup_fused_avx512_vs_avx2", fused_avx512_vs_avx2);
    if (!json.Write(json_path)) {
        return 1;
    }

    if (batched_fwd >= pr1_fwd) {
        std::fprintf(stderr,
                     "FAIL: eval-domain keys did not reduce forward "
                     "NTT count (%llu >= %llu)\n",
                     static_cast<unsigned long long>(batched_fwd),
                     static_cast<unsigned long long>(pr1_fwd));
        return 1;
    }
    if (fused_counts.elementwise >= unfused_counts.elementwise ||
        fused_counts.forward != unfused_counts.forward ||
        fused_counts.inverse != unfused_counts.inverse) {
        std::fprintf(stderr,
                     "FAIL: fused RelinModSwitch did not save the "
                     "inverse-stage pass (elementwise %llu vs %llu)\n",
                     static_cast<unsigned long long>(
                         fused_counts.elementwise),
                     static_cast<unsigned long long>(
                         unfused_counts.elementwise));
        return 1;
    }
    if (relin_ms_allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: steady-state fused RelinModSwitch "
                     "allocated %lld times\n",
                     relin_ms_allocs);
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace hentt::he

int
main(int argc, char **argv)
{
    return hentt::he::BenchMain(argc, argv);
}
