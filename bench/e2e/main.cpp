/**
 * @file
 * hentt_e2e command line: the self-test, one workload run, and its
 * output (README.md documents both).
 *
 *   hentt_e2e --workload tiny --seed 1 [--seconds 25] [--trace [0|1]]
 *             [--smoke] [--out DIR] [--json PATH]
 *   hentt_e2e --self-test [--seconds 25]
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <sched.h>
#include <sys/prctl.h>

#include "common/thread_pool.h"
#include "e2e.h"

namespace hentt::e2e {

namespace {

void
Usage()
{
    std::fprintf(stderr,
                 "usage: hentt_e2e --workload NAME --seed N [--seconds S] "
                 "[--trace [0|1]] [--smoke] [--out DIR] [--json PATH]\n"
                 "       hentt_e2e --self-test [--seconds S]\n"
                 "workloads:");
    for (const Workload &w : Workloads()) {
        std::fprintf(stderr, " %s", w.name);
    }
    std::fprintf(stderr, "\n");
}

std::size_t
UsableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        return static_cast<std::size_t>(CPU_COUNT(&set));
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
CpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            return line.substr(line.find(':') + 2);
        }
    }
    return "unknown";
}

std::string
JsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out + "\"";
}

std::string
JsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The run file: every metric with its unit, plus what the run was. */
bool
WriteRunFile(const std::string &path, const RunConfig &config,
             std::time_t started, const Report &report,
             const Totals &totals, bool correct)
{
    std::ofstream out(path);
    out << "{\n  \"workload\": " << JsonString(config.workload->name)
        << ",\n  \"seed\": " << config.seed
        << ",\n  \"seconds\": " << JsonNumber(config.seconds)
        << ",\n  \"trace\": " << (config.trace ? "true" : "false")
        << ",\n  \"smoke\": " << (config.smoke ? "true" : "false")
        << ",\n  \"started\": " << started
        << ",\n  \"correct\": " << (correct ? "true" : "false")
        << ",\n  \"attempted\": " << totals.attempted
        << ",\n  \"failed\": " << totals.failed
        << ",\n  \"guard_failures\": [";
    for (std::size_t i = 0; i < totals.guard_failures.size(); ++i) {
        out << (i ? ", " : "") << JsonString(totals.guard_failures[i]);
    }
    out << "],\n  \"notes\": {";
    for (std::size_t i = 0; i < report.notes.size(); ++i) {
        out << (i ? ", " : "") << JsonString(report.notes[i].first) << ": "
            << JsonString(report.notes[i].second);
    }
    out << "},\n  \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        out << (i ? "," : "") << "\n    " << JsonString(m.name)
            << ": {\"value\": " << JsonNumber(m.value)
            << ", \"unit\": " << JsonString(m.unit) << "}";
    }
    out << "\n  }\n}\n";
    return static_cast<bool>(out);
}

int
SelfTest(double seconds)
{
    int failures = 0;
    const auto check = [&](bool ok, const std::string &what) {
        if (!ok) {
            std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
            ++failures;
        }
    };

    // Percentiles, and the rule that a reported tail keeps >= 10
    // samples beyond it at the workload's nominal open-loop count.
    std::vector<double> ramp(1000);
    std::iota(ramp.begin(), ramp.end(), 1.0);
    check(Percentile(ramp, 99.0) == 990.0, "p99 of 1..1000 is 990");
    check(SamplesBeyond(1000, 99.0) == 10, "10 samples beyond p99 of 1000");
    check(Percentile(ramp, 50.0) == 500.0, "p50 of 1..1000 is 500");
    check(Median({1.0, 2.0, 3.0, 4.0}) == 2.5, "median of 1..4 is 2.5");
    check(std::isinf(Percentile({1.0, 2.0, INFINITY}, 99.0)),
          "a failed request (+inf) lands in the tail");
    for (const Workload &w : Workloads()) {
        double rate = 0.0;
        for (const StreamSpec &s : w.streams) {
            rate += s.measured ? s.open_rps : 0.0;
        }
        const auto n =
            static_cast<std::size_t>(rate * seconds * w.open_share);
        check(SamplesBeyond(n, w.tail_pct) >= 10,
              std::string(w.name) + ": p" + std::to_string(w.tail_pct) +
                  " of " + std::to_string(n) +
                  " nominal samples keeps >= 10 beyond it");
    }

    // The seed fixes the schedule and the inputs, and only the seed.
    const RequestClass &tiny = *FindWorkload("tiny")->streams[0].cls;
    const RequestClass &wide = *FindWorkload("wide")->streams[0].cls;
    const auto due = [](u64 seed) {
        return ArrivalSchedule(300.0, 5.0, DeriveSeed(seed, 300));
    };
    check(due(1) == due(1), "same seed, same due times");
    check(due(1) != due(2), "other seed, other due times");
    const auto pool = [&](u64 seed) {
        return MakePlainPool(tiny, DeriveSeed(seed, 200)).front().a;
    };
    check(pool(1) == pool(1), "same seed, same inputs");
    check(pool(1) != pool(2), "other seed, other inputs");
    const he::Plaintext sparse = MakePlainPool(wide, 7).front().b;
    check(static_cast<std::size_t>(std::count_if(
              sparse.begin(), sparse.end(), [](u64 x) { return x; })) ==
              wide.sparse_b,
          "wide operand b has exactly sparse_b nonzeros");

    check(ValidMetricName("he.graph_ms.b1") &&
              ValidMetricName("loadgen.lag_p99_ms") &&
              !ValidMetricName("") && !ValidMetricName("a b") &&
              !ValidMetricName("req/s") && !ValidMetricName(".x"),
          "metric names are [A-Za-z0-9_.-]+ starting alphanumeric");

    // A planted one-word corruption of a correct reply is a failure.
    auto ctx = std::make_shared<const he::HeContext>(tiny.params);
    he::BgvScheme scheme(ctx, 5);
    const he::SecretKey sk = scheme.KeyGen();
    const PlainPair pair = MakePlainPool(tiny, 9).front();
    const std::vector<he::Ciphertext> in = {scheme.Encrypt(sk, pair.a),
                                            scheme.Encrypt(sk, pair.b)};
    const std::vector<he::Ciphertext> expected =
        EvaluateLocal(scheme, nullptr, tiny, in);
    check(scheme.Decrypt(sk, expected.front()) == PlainEvaluate(tiny, pair),
          "in-process reference decrypts to the schoolbook oracle");
    serve::Client::Outcome reply;
    reply.done = true;
    reply.outputs = expected;
    Tally tally;
    check(SettleRequest(reply, expected, Clock::now(), tally),
          "an exact reply settles ok");
    reply.outputs.front().parts[1].row(0)[5] ^= 1;
    check(!SettleRequest(reply, expected, Clock::now(), tally) &&
              tally.failed == 1 && std::isinf(tally.latency_ms.back()),
          "a one-word corruption is a failed request with +inf latency");
    check(!SettleRequest(Status(ErrorCode::kUnavailable, "planted"),
                         expected, Clock::now(), tally) &&
              tally.failed == 2,
          "an error Status is a failed request");

    std::fprintf(stderr, "hentt_e2e self-test: %s\n",
                 failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
}

int
RunMain(int argc, char **argv)
{
    const std::time_t started = std::time(nullptr);
    RunConfig config;
    std::string workload, json_path;
    config.out_dir = ".bench_build/e2e";
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            config.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            config.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace") {
            config.trace = true;
            if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                              std::strcmp(argv[i + 1], "1") == 0)) {
                config.trace = argv[++i][0] == '1';
            }
        } else if (arg == "--smoke") {
            config.smoke = true;
        } else if (arg == "--out" && has_value) {
            config.out_dir = argv[++i];
        } else if (arg == "--json" && has_value) {
            json_path = argv[++i];
        } else if (arg == "--self-test") {
            self_test = true;
        } else {
            Usage();
            return 2;
        }
    }
    if (!(config.seconds > 0.0)) {
        Usage();
        return 2;
    }
    if (self_test) {
        return SelfTest(config.seconds);
    }
    config.workload = FindWorkload(workload);
    if (config.workload == nullptr) {
        Usage();
        return 2;
    }

    const std::size_t cpus = UsableCpus();
    config.lanes = std::max<std::size_t>(1, cpus - 1);
    config.connections = std::clamp<std::size_t>(cpus, 2, 4);
    config.daemon = HENTT_E2E_DAEMON;
    if (config.smoke) {
        config.seconds /= 10.0;
    }
    SetGlobalThreadCount(config.lanes);
    // The generator sleeps between polls; the default 50 us timer slack
    // would show up as lag on every due send.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    std::filesystem::create_directories(config.out_dir);

    Report report;
    SpanLog spans;
    Totals totals;
    std::vector<std::unique_ptr<Conn>> conns;
    const Status loaded = RunLoad(config, report, spans, totals, conns);
    if (!loaded.ok()) {
        std::fprintf(stderr, "hentt_e2e: %s\n", loaded.ToString().c_str());
        return 1;
    }
    if (config.trace) {
        Replay(config, conns, report, spans);
        const std::string trace_path = config.out_dir + "/trace-" +
                                       config.workload->name + "-s" +
                                       std::to_string(config.seed) + ".json";
        if (spans.WriteChromeJson(trace_path)) {
            report.Note("trace.file", trace_path);
        }
    }
    report.Add("fail_ratio",
               static_cast<double>(totals.failed) /
                   static_cast<double>(std::max<std::size_t>(
                       totals.attempted, 1)),
               "1");
    report.Note("cpu", CpuModel());
    report.Note("cpus", std::to_string(cpus));
    report.Note("lanes", std::to_string(config.lanes));
    report.Note("connections", std::to_string(config.connections));
    if (config.smoke) {
        report.Note("comparable", "no (smoke run at 1/10 durations)");
    }

    bool correct = totals.failed == 0 && totals.guard_failures.empty();
    const std::string prefix = std::string(config.workload->name) + ".";
    for (const Metric &m : report.metrics) {
        if (!ValidMetricName(m.name)) {
            std::fprintf(stderr, "hentt_e2e: bad metric name %s\n",
                         m.name.c_str());
            correct = false;
        }
        std::printf("%s%s %.10g %s\n", prefix.c_str(), m.name.c_str(),
                    m.value, m.unit.c_str());
    }
    for (const auto &[name, text] : report.notes) {
        std::printf("%s%s %s\n", prefix.c_str(), name.c_str(), text.c_str());
    }
    for (const std::string &why : totals.guard_failures) {
        std::fprintf(stderr, "hentt_e2e: invalid run: %s\n", why.c_str());
    }
    std::fflush(stdout);
    if (!json_path.empty() &&
        !WriteRunFile(json_path, config, started, report, totals,
                      correct)) {
        std::fprintf(stderr, "hentt_e2e: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    return correct ? 0 : 1;
}

}  // namespace

}  // namespace hentt::e2e

int
main(int argc, char **argv)
{
    try {
        return hentt::e2e::RunMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hentt_e2e: %s\n", e.what());
        return 1;
    }
}
