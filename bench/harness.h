/**
 * @file
 * The measurement harness of the gated benches — the ones whose
 * numbers land in a committed BENCH_*.json or gate an exit code:
 *
 *   - one heap-allocation counter (replacement global operator new),
 *     read through AllocCount(), so "the steady state does not touch
 *     the heap" is a measured count rather than a comment;
 *   - one timer, TimeArms: warm-up rounds, then k rounds that run
 *     every arm once each, interleaved, keeping each arm's best of k.
 *     A ratio of two arms therefore compares runs from the same
 *     rounds, and host-speed drift hits both sides alike;
 *   - one ordered JSON writer with the number formats the committed
 *     files and scripts/check_bench_regression.py agree on.
 *
 * Include this header exactly once per binary (benches and the
 * allocation-checking tests are one translation unit each):
 * replacement allocation functions may not be declared inline, so the
 * definitions below would collide if two TUs of one binary included
 * them.
 */

#ifndef HENTT_BENCH_HARNESS_H
#define HENTT_BENCH_HARNESS_H

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hentt::bench::detail {
inline std::atomic<long long> g_alloc_count{0};
}  // namespace hentt::bench::detail

// Every non-aligned global allocation funnels through the counting
// operator new; the deletes pair with its malloc.
// NOLINTBEGIN(misc-definitions-in-headers): see the file comment.
void *
operator new(std::size_t size)
{
    hentt::bench::detail::g_alloc_count.fetch_add(
        1, std::memory_order_relaxed);
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
// NOLINTEND(misc-definitions-in-headers)

namespace hentt::bench {

/** Global operator-new calls made so far by this process. */
inline long long
AllocCount()
{
    return detail::g_alloc_count.load(std::memory_order_relaxed);
}

/** Untimed rounds before the timed ones: they fault in pages, size
 *  reused outputs and scratch arenas, and wake pool workers. */
inline constexpr int kWarmupRounds = 2;

/** One arm's fastest timed run. */
struct ArmTime {
    double ns = 0.0;  ///< wall time per call of the fastest timed run
    int round = 0;    ///< round it ran in, counting warm-ups from 0
};

/**
 * The timing rule of every gated series. Runs kWarmupRounds untimed
 * rounds, then max(@p reps, 1) timed ones; each round runs every arm
 * once, in index order, so all arms see the same stretch of host
 * speed and a ratio of two arms is a same-rounds ratio. A run of an
 * arm is @p calls back-to-back calls of `run(arm)`; writes each arm's
 * best run, as time per call, to @p best (one entry per arm).
 *
 * Set @p calls above 1 for arms whose single call lasts microseconds
 * or cycles cache-cold operands: alone, such a call mostly measures
 * the state the previous arm left behind (evicted caches, a slower
 * SIMD clock), and back-to-back calls let the run settle on the arm's
 * own steady state. The timer allocates nothing, so an AllocCount()
 * delta taken around it is the arms' own.
 *
 * An arm that keeps side data per run (latencies, counters) can index
 * it by call order: with one call per run, its n-th call is round n,
 * so `best[arm].round` names the run the best time came from.
 */
template <typename Run>
void
TimeArms(int reps, std::span<ArmTime> best, Run &&run, int calls = 1)
{
    using Clock = std::chrono::steady_clock;
    const int rounds = kWarmupRounds + (reps < 1 ? 1 : reps);
    for (int round = 0; round < rounds; ++round) {
        for (std::size_t arm = 0; arm < best.size(); ++arm) {
            const Clock::time_point t0 = Clock::now();
            for (int call = 0; call < calls; ++call) {
                run(arm);
            }
            const double ns = std::chrono::duration<double, std::nano>(
                                  Clock::now() - t0)
                                  .count() /
                              calls;
            if (round == kWarmupRounds || (round > kWarmupRounds &&
                                           ns < best[arm].ns)) {
                best[arm] = {ns, round};
            }
        }
    }
}

/**
 * A BENCH_*.json object: one flat object whose keys keep the order
 * they were added in. Values take the formats the regression gate
 * classifies by key: doubles print as `%.3f` under a `speedup_*` key
 * and `%.1f` otherwise (the `*_ns` timings); integers, booleans and
 * strings print as themselves.
 */
class JsonObject
{
  public:
    /** The object opens with the `bench` name key. */
    explicit JsonObject(const char *bench) { Add("bench", bench); }

    void Add(const char *key, const char *value)
    {
        Put(key, std::string("\"") + value + "\"");
    }

    void Add(const char *key, bool value)
    {
        Put(key, value ? "true" : "false");
    }

    template <std::integral T>
    void Add(const char *key, T value)
    {
        Put(key, std::to_string(value));
    }

    void Add(const char *key, double value)
    {
        const bool ratio = std::string(key).rfind("speedup_", 0) == 0;
        char text[64];
        std::snprintf(text, sizeof text, ratio ? "%.3f" : "%.1f", value);
        Put(key, text);
    }

    /** Write the object to @p path and say so on stdout. An empty
     *  path writes nothing. False (after a message on stderr) when
     *  the file cannot be opened. */
    bool Write(const std::string &path) const
    {
        if (path.empty()) {
            return true;
        }
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
            return false;
        }
        std::fprintf(f, "{\n");
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            std::fprintf(f, "  \"%s\": %s%s\n", fields_[i].first.c_str(),
                         fields_[i].second.c_str(),
                         i + 1 < fields_.size() ? "," : "");
        }
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
        return true;
    }

  private:
    void Put(const char *key, std::string text)
    {
        fields_.emplace_back(key, std::move(text));
    }

    std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace hentt::bench

#endif  // HENTT_BENCH_HARNESS_H
