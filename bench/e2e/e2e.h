/**
 * @file
 * hentt_e2e — the end-to-end served-HE benchmark (see README.md).
 *
 * One process drives a freshly spawned hentt-daemon over its unix
 * socket through the public serve::Client API, from one thread over a
 * few connections, and verifies every reply word for word against an
 * in-process reference. A traced run also replays one request through
 * each layer's public functions to split the end-to-end time.
 *
 * Files: workload.cpp (workload table, seeded inputs, oracle, stats),
 * loadgen.cpp (daemon process, phases, verification), replay.cpp
 * (per-layer replay), main.cpp (command line, self-test, output).
 */

#ifndef HENTT_BENCH_E2E_E2E_H
#define HENTT_BENCH_E2E_E2E_H

#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "he/bgv.h"
#include "serve/client.h"
#include "serve/wire.h"

namespace hentt::e2e {

using Clock = std::chrono::steady_clock;

/** Milliseconds in @p d. */
inline double
Ms(Clock::duration d)
{
    return std::chrono::duration<double, std::milli>(d).count();
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/** One kind of request: session parameters and the program it runs. */
struct RequestClass {
    const char *name;
    he::HeParams params;
    /** Sessions upload relinearization keys (the program key-switches). */
    bool keys = false;
    /** Program over slots: 0 and 1 are the inputs a and b. */
    std::vector<serve::WireProgram::Op> ops;
    std::vector<u32> outputs;
    /** Nonzero coefficients of operand b; 0 means dense. */
    std::size_t sparse_b = 0;
};

/** One traffic stream of a workload: a request class on connections. */
struct StreamSpec {
    const RequestClass *cls;
    /** Connections carrying the stream; 0 = all the others leave. */
    std::size_t conns;
    /** Nominal open-loop arrival rate (requests per second). */
    double open_rps;
    /** Requests each connection keeps outstanding in the closed phase. */
    std::size_t depth;
    /** Latency metrics are taken over this stream. */
    bool measured;
};

/** A named traffic mix (README.md has the reasons). */
struct Workload {
    const char *name;
    std::vector<StreamSpec> streams;
    /** Open-loop tail percentile reported as tail_ms. */
    double tail_pct;
    /** Shares of the measured time given to the lone/open/closed
     *  phases. */
    double lone_share, open_share, closed_share;
};

const std::vector<Workload> &Workloads();
const Workload *FindWorkload(const std::string &name);

/** Input pairs each session cycles through. */
inline constexpr std::size_t kPoolSize = 8;

/** Warm-up before the measured phases (untimed, still verified). */
inline constexpr double kWarmupSeconds = 2.0;

/** A seed for one purpose, derived from the run seed and a tag. */
u64 DeriveSeed(u64 seed, u64 tag);

/** Plaintext operands of one request. */
struct PlainPair {
    he::Plaintext a, b;
};

/** The class's pool of plaintext pairs for @p seed. */
std::vector<PlainPair> MakePlainPool(const RequestClass &cls, u64 seed);

/** The expected decryption of the class's single program output,
 *  computed with the schoolbook negacyclic product mod t. */
he::Plaintext PlainEvaluate(const RequestClass &cls, const PlainPair &in);

/** The class's program run in process with @p scheme, op by op. */
std::vector<he::Ciphertext>
EvaluateLocal(const he::BgvScheme &scheme, const he::RelinKey *rk,
              const RequestClass &cls,
              const std::vector<he::Ciphertext> &inputs);

/**
 * Seeded open-loop arrival offsets (seconds) in [0, seconds) at mean
 * rate @p rps. The gaps are exponential, as in a Poisson process, but
 * stratified: one gap from each of rps * seconds equal-probability
 * slices of the distribution, shuffled. A pure Poisson draw varies the
 * number of close arrivals so much from seed to seed that a 10 s
 * window's p90 latency moves by +-15 % on a batching server;
 * stratifying keeps the gap mix and randomises only its order.
 */
std::vector<double> ArrivalSchedule(double rps, double seconds, u64 seed);

// ---------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------

double Median(std::vector<double> v);

/** Nearest-rank percentile, @p pct in (0, 100). A failed request is a
 *  +inf sample and sorts last. */
double Percentile(std::vector<double> v, double pct);

/** Samples above the nearest-rank @p pct percentile of @p n samples. */
std::size_t SamplesBeyond(std::size_t n, double pct);

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Every number a run reports, in the order it was measured. */
class Report
{
  public:
    void Add(const std::string &name, double value, const std::string &unit);
    /** A non-numeric fact (printed, written to the run file). */
    void Note(const std::string &name, const std::string &text);

    /** The named metric's value; NaN when it was not reported. */
    double Value(const std::string &name) const;

    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> notes;
};

/** True when @p name is a legal metric name: at most 64 of
 *  [A-Za-z0-9_.-], starting with a letter or digit. */
bool ValidMetricName(const std::string &name);

/** Client-side spans, kept in memory and written at exit. */
class SpanLog
{
  public:
    void Record(const char *name, u64 request, u32 lane,
                Clock::time_point start, Clock::time_point end);
    /** Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev). */
    bool WriteChromeJson(const std::string &path) const;

  private:
    struct Span {
        const char *name;
        u64 request;
        u32 lane;
        Clock::time_point start, end;
    };
    std::vector<Span> spans_;
    Clock::time_point origin_ = Clock::now();
};

// ---------------------------------------------------------------------
// Load generation (loadgen.cpp).
// ---------------------------------------------------------------------

/** Whether @p got equals @p want word for word (shape included). */
bool SameCiphertexts(const std::vector<he::Ciphertext> &got,
                     const std::vector<he::Ciphertext> &want);

/** Per-stream request accounting of one phase. */
struct Tally {
    std::size_t sent = 0, ok = 0, failed = 0;
    /** Latency of every settled request in ms; +inf when it failed. */
    std::vector<double> latency_ms;
    /** Open loop: send time minus due time, ms. */
    std::vector<double> lag_ms;
};

/**
 * Settle one finished request: verify the outcome against @p expected
 * and record its latency from @p start to now. An error Status or any
 * output mismatch is a failed request, recorded as a +inf latency.
 * Returns success.
 */
bool SettleRequest(const Result<serve::Client::Outcome> &outcome,
                   const std::vector<he::Ciphertext> &expected,
                   Clock::time_point start, Tally &tally);

/** One connection with its session, keys and input pool. */
struct Conn {
    std::size_t index = 0;
    const RequestClass *cls = nullptr;
    std::unique_ptr<serve::Client> client;
    std::unique_ptr<he::BgvScheme> scheme;
    std::unique_ptr<he::SecretKey> sk;
    std::unique_ptr<he::RelinKey> rk;
    /** Pool entry i: the encrypted pair, and the outputs it must give. */
    std::vector<std::vector<he::Ciphertext>> inputs;
    std::vector<std::vector<he::Ciphertext>> expected;
    std::size_t next_input = 0;

    struct Outstanding {
        u64 seq;
        u64 id;
        std::size_t input;
        std::size_t stream;
        Clock::time_point start;  ///< due time (open) or send time
        bool traced;
        std::size_t polls;
    };
    std::deque<Outstanding> outstanding;
};

/** What a run is asked to do. */
struct RunConfig {
    const Workload *workload = nullptr;
    u64 seed = 1;
    /** Measured time shared by the lone/open/closed phases. */
    double seconds = 25.0;
    bool trace = false;
    bool smoke = false;
    std::string out_dir;
    std::string daemon;
    std::size_t connections = 4;
    std::size_t lanes = 1;
};

/** Requests over every phase, warm-up included. */
struct Totals {
    std::size_t attempted = 0, failed = 0;
    /** A validity guard tripped (lag, backlog); the run is invalid. */
    std::vector<std::string> guard_failures;
};

/**
 * Set up the daemon and sessions, run warm-up and the lone, open and
 * closed phases, and add every end-to-end metric and the load-side
 * per-layer metrics (the client spans only when traced) to @p report.
 * The daemon is stopped on return; @p conns keeps the sessions' keys
 * and pools for the replay.
 */
Status RunLoad(const RunConfig &config, Report &report, SpanLog &spans,
               Totals &totals, std::vector<std::unique_ptr<Conn>> &conns);

// ---------------------------------------------------------------------
// Per-layer replay (replay.cpp).
// ---------------------------------------------------------------------

/**
 * Time one request of the workload's measured class through each
 * layer's public functions in pipeline order (serde, wire, coalescer,
 * HeOpGraph, batch kernels, NTT rows) and add the per-layer metrics.
 * Needs report entries "lone_p50_ms" and the conns RunLoad kept.
 */
void Replay(const RunConfig &config,
            const std::vector<std::unique_ptr<Conn>> &conns,
            Report &report, SpanLog &spans);

}  // namespace hentt::e2e

#endif  // HENTT_BENCH_E2E_E2E_H
