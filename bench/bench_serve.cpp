/**
 * @file
 * Benchmark for the serving layer (PR 10): cross-client batching
 * through the Coalescer, measured in-process (SessionManager +
 * Coalescer, no sockets — the wire is constant overhead per request;
 * what this bench gates is the coalescing claim itself).
 *
 * Scenario: S independent sessions (1/8/64/512), each submitting a
 * keyless Mul→ModSwitch program. Two server configurations:
 *
 *   batched   — the Coalescer admits up to 64 requests per batch
 *               (requests queued while the worker runs one batch share
 *               the next; there is no admission timer), so the
 *               tensor-product kernel runs as one batched dispatch
 *               spanning every in-flight client;
 *   unbatched — the ablation (max_batch = 1): every request executes
 *               as its own batch of one, i.e. per-session dispatch.
 *
 * Reported per session count: per-op wall time, ops/sec, and p50/p99
 * request latency (submit → settled). The acceptance series is
 * speedup_batched_vs_unbatched at 64 sessions — cross-client batching
 * must beat per-session dispatch, and the bench exits non-zero if it
 * does not. The 1-session row must stay under 1 ms per request: a lone
 * request starts as soon as the worker is free, so a slower row means
 * a hold on admission came back. steady_state_allocs proves the serve
 * hot loop (the wavefront batch kernel on a warm arena with reused
 * outputs) stays off the heap; the per-request bookkeeping (queue nodes, result
 * maps) is intentionally outside that loop.
 *
 * Emits BENCH_serve.json (schema in docs/BENCHMARKS.md). Timing series
 * are machine-local; the speedup series travels cross-machine.
 *
 * Usage: bench_serve [--json PATH] [--threads T] [--reps R]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "harness.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "he/bgv.h"
#include "he/ciphertext_batch.h"
#include "serve/coalescer.h"
#include "serve/session.h"
#include "simd/simd_backend.h"

namespace hentt::serve {
namespace {

/** Waves per timed run: enough consecutive waves that one run spans
 *  tens of milliseconds, riding out scheduler noise on small hosts. */
constexpr int kWavesPerRun = 8;

/** Exit gate on the 1-session row. One N=64 Mul→ModSwitch request
 *  costs tens of microseconds end to end, so any fixed hold on
 *  admission (a batching window of a millisecond or more) shows up as
 *  its whole length. */
constexpr double kLoneRequestLimitNs = 1e6;

/**
 * One timed arm: a server configuration at a session count, served by
 * its own Coalescer that lives across every run (as the daemon's
 * does), so the timed runs hold only request traffic. Keeps each
 * run's per-request latencies and coalesced-request count, in run
 * order, for the run the timer reports as best.
 */
struct ServeArm {
    std::size_t sessions = 0;
    std::unique_ptr<Coalescer> coalescer;
    std::vector<u64> ids;
    std::vector<std::chrono::steady_clock::time_point> submitted;
    std::vector<std::vector<double>> latency_ns;  ///< per run
    std::vector<u64> coalesced;                   ///< per run
};

/**
 * One run of @p arm: kWavesPerRun consecutive waves. In each wave
 * every session submits one Mul→ModSwitch program (both stages
 * keyless, so they batch across every client), then all results are
 * collected.
 */
void
RunWaves(ServeArm &arm,
         const std::vector<std::shared_ptr<Session>> &all_sessions,
         const std::vector<WireProgram::Op> &program,
         const he::Ciphertext &ct_a, const he::Ciphertext &ct_b)
{
    using Clock = std::chrono::steady_clock;
    std::vector<double> &latency_ns = arm.latency_ns.emplace_back();
    latency_ns.reserve(arm.sessions * kWavesPerRun);
    const u64 coalesced_before =
        arm.coalescer->StatsSnapshot().coalesced_requests;
    for (int wave = 0; wave < kWavesPerRun; ++wave) {
        for (std::size_t s = 0; s < arm.sessions; ++s) {
            arm.submitted[s] = Clock::now();
            Result<u64> id = arm.coalescer->Submit(
                all_sessions[s], {ct_a, ct_b}, program, {3});
            if (!id.ok()) {
                std::fprintf(stderr, "submit failed: %s\n",
                             id.status().ToString().c_str());
                std::exit(1);
            }
            arm.ids[s] = *id;
        }
        for (std::size_t s = 0; s < arm.sessions; ++s) {
            const PollResult result =
                arm.coalescer->Wait(arm.ids[s], all_sessions[s]->id);
            latency_ns.push_back(
                std::chrono::duration<double, std::nano>(
                    Clock::now() - arm.submitted[s])
                    .count());
            if (!result.status.ok()) {
                std::fprintf(stderr, "request failed: %s\n",
                             result.status.ToString().c_str());
                std::exit(1);
            }
        }
    }
    arm.coalesced.push_back(
        arm.coalescer->StatsSnapshot().coalesced_requests -
        coalesced_before);
}

/** The @p percent-th percentile of one run's sorted latencies. */
double
Percentile(const std::vector<double> &sorted, std::size_t percent)
{
    return sorted[std::min(sorted.size() - 1,
                           (sorted.size() * percent) / 100)];
}

int
BenchMain(int argc, char **argv)
{
    int reps = 3;
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
        // Serving default: one lane per hardware thread. A floor of 4
        // (the throughput benches' choice) oversubscribes small hosts,
        // and oversubscription punishes exactly what this bench
        // measures — wide wavefront dispatches vs below-grain serial
        // singles.
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 1 : hw;
    }

    // The suite's small-parameter class (tests use the same set): the
    // serving regime this bench gates is many small independent
    // requests, where fixed per-request costs — worker wakeups, graph
    // setup, per-op dispatch — rival kernel time, which is exactly
    // what cross-client coalescing amortises. At production degrees
    // the per-wavefront working set outgrows cache and kernel time
    // dominates on a serial host; those throughput-class numbers are
    // bench_he_pipeline's territory, and on multicore hosts wide
    // wavefronts additionally parallelize across lanes.
    he::HeParams params;
    params.degree = 64;
    params.prime_count = 2;
    params.prime_bits = 50;
    params.plain_modulus = 257;

    bench::Header("BENCH serve",
                  "cross-client batching: coalesced wavefronts vs "
                  "per-session dispatch");
    std::printf("config: N=%zu, limbs=%zu, lanes=%zu, "
                "workload=Mul+ModSwitch per session, %d waves/run\n",
                params.degree, params.prime_count, threads,
                kWavesPerRun);

    constexpr std::size_t kMaxSessions = 512;
    constexpr std::size_t kAblationSessions = 64;

    // Shared serving state, exactly as the daemon builds it: one
    // worker arena, one session registry; every session shares the
    // engine state (same params) and borrows the worker arena.
    auto arena = std::make_shared<he::ScratchArena>();
    SessionManager sessions(arena);
    std::vector<std::shared_ptr<Session>> all_sessions;
    for (std::size_t s = 0; s < kMaxSessions; ++s) {
        Result<std::shared_ptr<Session>> session =
            sessions.Create(params);
        if (!session.ok()) {
            std::fprintf(stderr, "session create failed: %s\n",
                         session.status().ToString().c_str());
            return 1;
        }
        all_sessions.push_back(*session);
    }

    // One encrypted operand pair, shared by every request (sessions
    // over one engine state hold mutually compatible ciphertexts).
    he::BgvScheme scheme(all_sessions.front()->ctx, /*seed=*/77);
    const he::SecretKey sk = scheme.KeyGen();
    he::Plaintext ma(params.degree), mb(params.degree);
    {
        Xoshiro256 rng(13);
        for (u64 &x : ma) {
            x = rng.NextBelow(params.plain_modulus);
        }
        for (u64 &x : mb) {
            x = rng.NextBelow(params.plain_modulus);
        }
    }
    const he::Ciphertext ct_a = scheme.Encrypt(sk, ma);
    const he::Ciphertext ct_b = scheme.Encrypt(sk, mb);

    SetGlobalThreadCount(threads);
    GlobalThreadPool();  // spin up workers outside the timed region

    // The arms: the coalescing server (up to 64 requests per batch) at
    // each session count, plus the unbatched ablation (max_batch = 1,
    // every request its own batch) at 64 sessions. One timing runs them
    // all, so speedup_batched_vs_unbatched divides runs from the same
    // rounds; its two arms run back to back.
    BatchConfig batched;
    batched.max_batch = 64;
    BatchConfig unbatched;
    unbatched.max_batch = 1;
    struct ArmConfig {
        std::size_t sessions;
        const BatchConfig &config;
        const char *label;
    };
    const ArmConfig kArmConfigs[] = {
        {1, batched, "batched"},
        {8, batched, "batched"},
        {kAblationSessions, batched, "batched"},
        {kAblationSessions, unbatched, "unbatched"},
        {512, batched, "batched"},
    };
    constexpr std::size_t kArms = std::size(kArmConfigs);
    constexpr std::size_t kBatched64 = 2;
    constexpr std::size_t kUnbatched64 = 3;
    const std::vector<WireProgram::Op> program = {
        {WireOp::kMul, 0, 1},
        {WireOp::kModSwitch, 2, 0},
    };
    ServeArm arms[kArms];
    for (std::size_t i = 0; i < kArms; ++i) {
        arms[i].sessions = kArmConfigs[i].sessions;
        arms[i].ids.resize(arms[i].sessions);
        arms[i].submitted.resize(arms[i].sessions);
        arms[i].coalescer =
            std::make_unique<Coalescer>(kArmConfigs[i].config, arena);
        arms[i].coalescer->Start();
    }
    bench::ArmTime best[kArms];
    bench::TimeArms(reps, best, [&](std::size_t arm) {
        RunWaves(arms[arm], all_sessions, program, ct_a, ct_b);
    });

    bench::Section("coalesced wavefronts (batched) vs per-session "
                   "dispatch (unbatched)");
    double per_op_ns[kArms] = {};
    double p50_ns[kArms] = {};
    double p99_ns[kArms] = {};
    u64 max_batch[kArms] = {};
    for (std::size_t i = 0; i < kArms; ++i) {
        ServeArm &arm = arms[i];
        std::vector<double> &latency = arm.latency_ns[best[i].round];
        std::sort(latency.begin(), latency.end());
        per_op_ns[i] = best[i].ns / kWavesPerRun /
                       static_cast<double>(arm.sessions);
        p50_ns[i] = Percentile(latency, 50);
        p99_ns[i] = Percentile(latency, 99);
        max_batch[i] = arm.coalescer->StatsSnapshot().max_batch_observed;
        arm.coalescer->Stop();
        std::printf("  %-9s %4zu sessions: %9.1f us/op  %9.0f ops/s  "
                    "p50 %8.1f us  p99 %8.1f us  (max batch %llu)\n",
                    kArmConfigs[i].label, arm.sessions,
                    per_op_ns[i] / 1e3, 1e9 / per_op_ns[i],
                    p50_ns[i] / 1e3, p99_ns[i] / 1e3,
                    static_cast<unsigned long long>(max_batch[i]));
    }
    const u64 coalesced_64 =
        arms[kBatched64].coalesced[best[kBatched64].round];
    const double speedup =
        per_op_ns[kUnbatched64] / per_op_ns[kBatched64];
    bench::Ratio("batched vs unbatched (64)", speedup);

    // ------------------------------------------------------------------
    // The serve hot loop: once the coalescer has admitted a wavefront,
    // the kernels run over the worker arena with reused outputs — that
    // steady state must not allocate. (Per-request bookkeeping —
    // queue nodes, result maps, ciphertext copies in and out — is
    // per-request by design and excluded.)
    // ------------------------------------------------------------------
    long long steady_allocs = 0;
    {
        const he::HeContext &ctx = *all_sessions.front()->ctx;
        std::vector<const he::Ciphertext *> a(kAblationSessions, &ct_a);
        std::vector<const he::Ciphertext *> b(kAblationSessions, &ct_b);
        std::vector<he::Ciphertext> outs(kAblationSessions);
        std::vector<he::Ciphertext *> dst;
        for (he::Ciphertext &out : outs) {
            dst.push_back(&out);
        }
        he::BatchMul(ctx, a, b, dst);  // warm: arena + outputs sized
        he::BatchMul(ctx, a, b, dst);
        const long long before = bench::AllocCount();
        for (int r = 0; r < 5; ++r) {
            he::BatchMul(ctx, a, b, dst);
        }
        steady_allocs = bench::AllocCount() - before;
    }
    std::printf("\nsteady-state allocs (5 warm 64-wide wavefront "
                "kernels): %lld\n",
                steady_allocs);

    bench::JsonObject json("serve");
    json.Add("n", params.degree);
    json.Add("limbs", params.prime_count);
    json.Add("lanes", threads);
    json.Add("serve_batched_1_ns", per_op_ns[0]);
    json.Add("serve_batched_8_ns", per_op_ns[1]);
    json.Add("serve_batched_64_ns", per_op_ns[kBatched64]);
    json.Add("serve_batched_512_ns", per_op_ns[4]);
    json.Add("serve_p50_64_ns", p50_ns[kBatched64]);
    json.Add("serve_p99_64_ns", p99_ns[kBatched64]);
    json.Add("serve_unbatched_64_ns", per_op_ns[kUnbatched64]);
    json.Add("speedup_batched_vs_unbatched", speedup);
    json.Add("coalesced_requests_64", coalesced_64);
    json.Add("max_batch_observed_64", max_batch[kBatched64]);
    json.Add("steady_state_allocs", steady_allocs);
    json.Add("simd_default_backend",
             simd::BackendName(simd::ActiveBackend()));
    json.Add("avx2_available",
             simd::BackendAvailable(simd::Backend::kAvx2));
    json.Add("avx512_available",
             simd::BackendAvailable(simd::Backend::kAvx512));
    if (!json.Write(json_path)) {
        return 1;
    }

    if (speedup <= 1.0) {
        std::fprintf(stderr,
                     "FAIL: cross-client batching did not beat the "
                     "unbatched ablation at %zu sessions "
                     "(speedup %.3f)\n",
                     kAblationSessions, speedup);
        return 1;
    }
    if (per_op_ns[0] >= kLoneRequestLimitNs) {
        std::fprintf(stderr,
                     "FAIL: a lone request took %.1f us (limit %.0f us): "
                     "admission held it instead of starting it\n",
                     per_op_ns[0] / 1e3, kLoneRequestLimitNs / 1e3);
        return 1;
    }
    if (max_batch[kBatched64] <= 1) {
        std::fprintf(stderr,
                     "FAIL: no coalescing observed at %zu sessions\n",
                     kAblationSessions);
        return 1;
    }
    if (steady_allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: steady-state wavefront kernel allocated "
                     "%lld times\n",
                     steady_allocs);
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace hentt::serve

int
main(int argc, char **argv)
{
    return hentt::serve::BenchMain(argc, argv);
}
