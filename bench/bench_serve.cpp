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
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "he/bgv.h"
#include "he/ciphertext_batch.h"
#include "serve/coalescer.h"
#include "serve/session.h"
#include "simd/simd_backend.h"

// ---------------------------------------------------------------------
// Allocation counter: global operator new replacement so the bench can
// prove the steady-state wavefront kernel does not touch the heap
// (same counter as bench_rns_batch / bench_he_pipeline).
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

namespace hentt::serve {
namespace {

using Clock = std::chrono::steady_clock;

double
Elapsed_ns(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

struct WaveResult {
    double total_ns = 0.0;  ///< submit-first → last-settled
    double p50_ns = 0.0;    ///< per-request submit→settled latency
    double p99_ns = 0.0;
    WireStats stats;
};

/** Waves per timed rep: enough consecutive waves that one rep spans
 *  tens of milliseconds, riding out scheduler noise on small hosts. */
constexpr int kWavesPerRep = 8;

/** Exit gate on the 1-session row. One N=64 Mul→ModSwitch request
 *  costs tens of microseconds end to end, so any fixed hold on
 *  admission (a batching window of a millisecond or more) shows up as
 *  its whole length. */
constexpr double kLoneRequestLimitNs = 1e6;

/**
 * Run timed reps (plus one warm-up) of @p kWavesPerRep consecutive
 * waves. In each wave every one of @p session_count sessions submits
 * one Mul→ModSwitch program (both stages keyless, so they batch
 * across every client), then all results are collected. Keeps the
 * best rep by total wall time; total_ns comes back per wave.
 */
WaveResult
RunWave(const BatchConfig &config,
        const std::vector<std::shared_ptr<Session>> &all_sessions,
        std::size_t session_count,
        const std::shared_ptr<he::ScratchArena> &arena,
        const he::Ciphertext &ct_a, const he::Ciphertext &ct_b,
        int reps)
{
    const std::vector<WireProgram::Op> kProgram = {
        {WireOp::kMul, 0, 1},
        {WireOp::kModSwitch, 2, 0},
    };
    WaveResult best;
    for (int r = 0; r < reps + 1; ++r) {  // one warm-up rep
        Coalescer coalescer(config, arena);
        coalescer.Start();
        std::vector<u64> ids(session_count);
        std::vector<Clock::time_point> submitted(session_count);
        std::vector<double> latency_ns;
        latency_ns.reserve(session_count * kWavesPerRep);
        const auto t0 = Clock::now();
        for (int wave = 0; wave < kWavesPerRep; ++wave) {
            for (std::size_t s = 0; s < session_count; ++s) {
                submitted[s] = Clock::now();
                Result<u64> id = coalescer.Submit(
                    all_sessions[s], {ct_a, ct_b}, kProgram, {3});
                if (!id.ok()) {
                    std::fprintf(stderr, "submit failed: %s\n",
                                 id.status().ToString().c_str());
                    std::exit(1);
                }
                ids[s] = *id;
            }
            for (std::size_t s = 0; s < session_count; ++s) {
                const PollResult result =
                    coalescer.Wait(ids[s], all_sessions[s]->id);
                latency_ns.push_back(
                    Elapsed_ns(submitted[s], Clock::now()));
                if (!result.status.ok()) {
                    std::fprintf(stderr, "request failed: %s\n",
                                 result.status.ToString().c_str());
                    std::exit(1);
                }
            }
        }
        const double total =
            Elapsed_ns(t0, Clock::now()) / kWavesPerRep;
        const WireStats stats = coalescer.StatsSnapshot();
        coalescer.Stop();
        if (r == 0) {
            continue;
        }
        if (best.total_ns == 0.0 || total < best.total_ns) {
            std::sort(latency_ns.begin(), latency_ns.end());
            const std::size_t count = latency_ns.size();
            best.total_ns = total;
            best.p50_ns = latency_ns[count / 2];
            best.p99_ns = latency_ns[std::min(
                count - 1, (count * 99) / 100)];
            best.stats = stats;
        }
    }
    return best;
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
                "workload=Mul+ModSwitch per session, %d waves/rep\n",
                params.degree, params.prime_count, threads,
                kWavesPerRep);

    constexpr std::size_t kSessionCounts[] = {1, 8, 64, 512};
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

    BatchConfig batched;
    batched.max_batch = 64;
    BatchConfig unbatched;
    unbatched.max_batch = 1;

    bench::Section("batched (coalesced wavefronts)");
    double batched_per_op_ns[4] = {};
    double batched_p50_ns[4] = {};
    double batched_p99_ns[4] = {};
    double batched_total_64_ns = 0.0;
    u64 coalesced_64 = 0, max_batch_64 = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t count = kSessionCounts[i];
        const WaveResult wave = RunWave(batched, all_sessions, count,
                                        arena, ct_a, ct_b, reps);
        batched_per_op_ns[i] = wave.total_ns / count;
        batched_p50_ns[i] = wave.p50_ns;
        batched_p99_ns[i] = wave.p99_ns;
        if (count == kAblationSessions) {
            batched_total_64_ns = wave.total_ns;
            coalesced_64 = wave.stats.coalesced_requests;
            max_batch_64 = wave.stats.max_batch_observed;
        }
        std::printf("  %4zu sessions: %9.1f us/op  %9.0f ops/s  "
                    "p50 %8.1f us  p99 %8.1f us  (max batch %llu)\n",
                    count, batched_per_op_ns[i] / 1e3,
                    1e9 / batched_per_op_ns[i], wave.p50_ns / 1e3,
                    wave.p99_ns / 1e3,
                    static_cast<unsigned long long>(
                        wave.stats.max_batch_observed));
    }

    bench::Section("unbatched ablation (per-session dispatch)");
    const WaveResult unbatched_wave =
        RunWave(unbatched, all_sessions, kAblationSessions, arena,
                ct_a, ct_b, reps);
    const double unbatched_per_op_ns =
        unbatched_wave.total_ns / kAblationSessions;
    std::printf("  %4zu sessions: %9.1f us/op  %9.0f ops/s  "
                "p50 %8.1f us  p99 %8.1f us\n",
                kAblationSessions, unbatched_per_op_ns / 1e3,
                1e9 / unbatched_per_op_ns,
                unbatched_wave.p50_ns / 1e3,
                unbatched_wave.p99_ns / 1e3);

    const double speedup =
        unbatched_wave.total_ns / batched_total_64_ns;
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
        const long long before =
            g_alloc_count.load(std::memory_order_relaxed);
        for (int r = 0; r < 5; ++r) {
            he::BatchMul(ctx, a, b, dst);
        }
        steady_allocs =
            g_alloc_count.load(std::memory_order_relaxed) - before;
    }
    std::printf("\nsteady-state allocs (5 warm 64-wide wavefront "
                "kernels): %lld\n",
                steady_allocs);

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"serve\",\n"
            "  \"n\": %zu,\n"
            "  \"limbs\": %zu,\n"
            "  \"lanes\": %zu,\n"
            "  \"serve_batched_1_ns\": %.1f,\n"
            "  \"serve_batched_8_ns\": %.1f,\n"
            "  \"serve_batched_64_ns\": %.1f,\n"
            "  \"serve_batched_512_ns\": %.1f,\n"
            "  \"serve_p50_64_ns\": %.1f,\n"
            "  \"serve_p99_64_ns\": %.1f,\n"
            "  \"serve_unbatched_64_ns\": %.1f,\n"
            "  \"speedup_batched_vs_unbatched\": %.3f,\n"
            "  \"coalesced_requests_64\": %llu,\n"
            "  \"max_batch_observed_64\": %llu,\n"
            "  \"steady_state_allocs\": %lld,\n"
            "  \"simd_default_backend\": \"%s\",\n"
            "  \"avx2_available\": %s,\n"
            "  \"avx512_available\": %s\n"
            "}\n",
            params.degree, params.prime_count, threads,
            batched_per_op_ns[0], batched_per_op_ns[1],
            batched_per_op_ns[2], batched_per_op_ns[3],
            batched_p50_ns[2], batched_p99_ns[2], unbatched_per_op_ns,
            speedup,
            static_cast<unsigned long long>(coalesced_64),
            static_cast<unsigned long long>(max_batch_64),
            steady_allocs,
            simd::BackendName(simd::ActiveBackend()),
            simd::BackendAvailable(simd::Backend::kAvx2) ? "true"
                                                         : "false",
            simd::BackendAvailable(simd::Backend::kAvx512) ? "true"
                                                           : "false");
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (speedup <= 1.0) {
        std::fprintf(stderr,
                     "FAIL: cross-client batching did not beat the "
                     "unbatched ablation at %zu sessions "
                     "(speedup %.3f)\n",
                     kAblationSessions, speedup);
        return 1;
    }
    if (batched_per_op_ns[0] >= kLoneRequestLimitNs) {
        std::fprintf(stderr,
                     "FAIL: a lone request took %.1f us (limit %.0f us): "
                     "admission held it instead of starting it\n",
                     batched_per_op_ns[0] / 1e3, kLoneRequestLimitNs / 1e3);
        return 1;
    }
    if (max_batch_64 <= 1) {
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
