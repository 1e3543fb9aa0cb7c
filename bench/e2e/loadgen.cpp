/** @file Daemon process, session set-up, and the measured phases. */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "e2e.h"

extern char **environ;

namespace hentt::e2e {

namespace {

/** A hentt-daemon child process; stopped and reaped on destruction. */
class DaemonProcess
{
  public:
    DaemonProcess() = default;
    ~DaemonProcess()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGTERM);
            Reap(std::chrono::seconds(5));
        }
    }

    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    /** Start `binary --socket socket` with HENTT_THREADS=lanes and both
     *  output streams appended to @p log. The daemon gets SIGTERM if
     *  this process dies first, so no run leaves one behind. */
    Status
    Spawn(const std::string &binary, const std::string &socket,
          const std::string &log, std::size_t lanes)
    {
        std::vector<std::string> env;
        for (char **e = environ; *e != nullptr; ++e) {
            if (std::strncmp(*e, "HENTT_THREADS=", 14) != 0) {
                env.emplace_back(*e);
            }
        }
        env.push_back("HENTT_THREADS=" + std::to_string(lanes));
        std::vector<char *> envp;
        for (std::string &s : env) {
            envp.push_back(s.data());
        }
        envp.push_back(nullptr);
        std::string arg0 = binary, flag = "--socket", path = socket;
        char *argv[] = {arg0.data(), flag.data(), path.data(), nullptr};
        const int log_fd = ::open(log.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                                  0644);
        if (log_fd < 0) {
            return Status(ErrorCode::kUnavailable,
                          "cannot open " + log + ": " +
                              std::strerror(errno));
        }
        const pid_t parent = ::getpid();
        pid_ = ::fork();
        if (pid_ == 0) {
            // The child may only make async-signal-safe calls until
            // execve.
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            if (::getppid() != parent) {
                ::_exit(127);
            }
            ::dup2(log_fd, STDOUT_FILENO);
            ::dup2(log_fd, STDERR_FILENO);
            ::execve(arg0.c_str(), argv, envp.data());
            ::_exit(127);
        }
        const int fork_errno = errno;
        ::close(log_fd);
        if (pid_ < 0) {
            return Status(ErrorCode::kUnavailable,
                          "cannot fork for " + binary + ": " +
                              std::strerror(fork_errno));
        }
        return Status::Ok();
    }

    /** Wait up to @p grace for the process to exit, then SIGKILL it.
     *  Returns whether it exited by itself. */
    bool
    Reap(std::chrono::milliseconds grace)
    {
        if (pid_ <= 0) {
            return true;
        }
        const auto deadline = Clock::now() + grace;
        for (;;) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return true;
            }
            if (Clock::now() >= deadline) {
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
        return false;
    }

    bool
    Exited()
    {
        if (pid_ > 0 && ::waitpid(pid_, nullptr, WNOHANG) == pid_) {
            pid_ = -1;
        }
        return pid_ <= 0;
    }

    pid_t pid() const { return pid_; }

  private:
    pid_t pid_ = -1;
};

/** A "Key:  value" field of /proc/<pid>/status (kB for Vm*), or -1. */
long
ProcStatusField(pid_t pid, const std::string &key)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0) {
            return std::atol(line.c_str() + key.size());
        }
    }
    return -1;
}

/** utime + stime of @p pid, seconds. */
double
ProcCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    std::istringstream rest(stat.substr(stat.rfind(')') + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i >= 14) {
            ticks += std::atof(field.c_str());
        }
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
CpuSelfSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/** Client-side span durations of the measured stream's traced
 *  requests in one phase. */
struct ClientSpans {
    std::vector<double> submit_ms, poll_ms, done_ms, polls;
};

/** Each phase runs as this many slices interleaved with the other
 *  phases' slices, so a burst of outside load spreads over every phase
 *  instead of landing on one. */
constexpr int kRounds = 3;

/** What one stream does during a phase. */
struct StreamPlan {
    bool open = false;
    /** Closed loop: requests kept outstanding per connection. */
    std::size_t depth = 0;
    /** Closed loop: only the first conn_limit connections send. */
    std::size_t conn_limit = std::numeric_limits<std::size_t>::max();
    /** Open loop: due offsets from the phase start, seconds. */
    std::vector<double> due;
};

enum class TraceMode {
    kOff,
    kAll,
    /** Every other request traced: the untraced half is the in-run
     *  reference for the tracing overhead. */
    kAlternate,
};

template <typename T>
void
Append(std::vector<T> &into, const std::vector<T> &from)
{
    into.insert(into.end(), from.begin(), from.end());
}

/** What a phase measured, summed over its rounds. */
struct PhaseOutcome {
    std::vector<Tally> tallies;  ///< per stream
    /** Measured streams' latencies split by traced (1) or not (0). */
    std::vector<double> by_trace[2];
    ClientSpans client;
    /**
     * Successful completions inside the phase window, all streams: the
     * gaps between them and the time they span. Their ratio is the
     * steady-state completion rate, free of the pipeline fill at the
     * start and of the requests the window cuts off at the end.
     */
    std::size_t window_gaps = 0;
    double window_span_s = 0.0;
    /** Longest time from a round's last send to its last completion. */
    double drain_s = 0.0;
    double client_cpu_s = 0.0;
    /** Daemon counter deltas (batches, completed, failed) and the
     *  largest batch the daemon has executed so far. */
    serve::WireStats daemon;

    void
    Merge(const PhaseOutcome &round)
    {
        tallies.resize(round.tallies.size());
        for (std::size_t s = 0; s < tallies.size(); ++s) {
            tallies[s].sent += round.tallies[s].sent;
            tallies[s].ok += round.tallies[s].ok;
            tallies[s].failed += round.tallies[s].failed;
            Append(tallies[s].latency_ms, round.tallies[s].latency_ms);
            Append(tallies[s].lag_ms, round.tallies[s].lag_ms);
        }
        for (int t = 0; t < 2; ++t) {
            Append(by_trace[t], round.by_trace[t]);
        }
        Append(client.submit_ms, round.client.submit_ms);
        Append(client.poll_ms, round.client.poll_ms);
        Append(client.done_ms, round.client.done_ms);
        Append(client.polls, round.client.polls);
        window_gaps += round.window_gaps;
        window_span_s += round.window_span_s;
        drain_s = std::max(drain_s, round.drain_s);
        client_cpu_s += round.client_cpu_s;
        daemon.batches_executed += round.daemon.batches_executed;
        daemon.requests_completed += round.daemon.requests_completed;
        daemon.requests_failed += round.daemon.requests_failed;
        daemon.max_batch_observed = round.daemon.max_batch_observed;
    }
};

struct Stream {
    const StreamSpec *spec;
    std::vector<Conn *> conns;
};

/** The single-threaded event loop over every connection. */
class LoadGen
{
  public:
    LoadGen(std::vector<Stream> streams, SpanLog &spans, Totals &totals,
            pid_t daemon)
        : streams_(std::move(streams)), spans_(spans), totals_(totals),
          daemon_(daemon)
    {
        for (Stream &s : streams_) {
            conns_.insert(conns_.end(), s.conns.begin(), s.conns.end());
        }
    }

    long threads_peak() const { return threads_peak_; }

    PhaseOutcome
    Run(double seconds, const std::vector<StreamPlan> &plans,
        TraceMode trace)
    {
        PhaseOutcome out;
        out.tallies.resize(streams_.size());
        const double cpu0 = CpuSelfSeconds();
        const auto start = Clock::now();
        const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
        std::vector<std::size_t> next_due(streams_.size(), 0);
        std::vector<std::size_t> round_robin(streams_.size(), 0);
        const auto due_at = [&](std::size_t s, std::size_t k) {
            return start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   plans[s].due[k]));
        };
        Clock::time_point last_send = start, last_done = start;
        Window window;
        // Open-loop sends go out between every two polls, so a due
        // request waits behind at most one round trip.
        const auto send_due = [&] {
            bool sent = false;
            for (std::size_t s = 0; s < streams_.size(); ++s) {
                const std::vector<Conn *> &conns = streams_[s].conns;
                while (plans[s].open && next_due[s] < plans[s].due.size() &&
                       due_at(s, next_due[s]) <= Clock::now()) {
                    Conn &c = *conns[round_robin[s]++ % conns.size()];
                    Send(c, s, due_at(s, next_due[s]++), trace, out);
                    last_send = Clock::now();
                    sent = true;
                }
            }
            return sent;
        };
        for (;;) {
            const bool sending = Clock::now() < end;
            bool progress = send_due();
            for (std::size_t s = 0; s < streams_.size() && sending; ++s) {
                const StreamPlan &plan = plans[s];
                const std::vector<Conn *> &conns = streams_[s].conns;
                const std::size_t n =
                    plan.open ? 0 : std::min(plan.conn_limit, conns.size());
                for (std::size_t k = 0; k < n; ++k) {
                    // Bounded: a failed submit leaves no request
                    // outstanding.
                    for (std::size_t d = conns[k]->outstanding.size();
                         d < plan.depth; ++d) {
                        Send(*conns[k], s, std::nullopt, trace, out);
                        last_send = Clock::now();
                    }
                }
            }
            bool outstanding = false;
            for (Conn *c : conns_) {
                if (!c->outstanding.empty() &&
                    PollFront(*c, end, window, out)) {
                    progress = true;
                    last_done = Clock::now();
                }
                progress = send_due() || progress;
                outstanding = outstanding || !c->outstanding.empty();
            }
            Clock::time_point wake = Clock::now() +
                                     std::chrono::microseconds(100);
            bool scheduled = false;
            for (std::size_t s = 0; s < streams_.size(); ++s) {
                if (plans[s].open && next_due[s] < plans[s].due.size()) {
                    scheduled = true;
                    wake = std::min(wake, due_at(s, next_due[s]));
                }
            }
            if (!sending && !scheduled && !outstanding) {
                break;
            }
            if (!progress) {
                SampleThreads();
                std::this_thread::sleep_until(wake);
            }
        }
        if (window.done >= 2) {
            out.window_gaps = window.done - 1;
            out.window_span_s = Ms(window.last - window.first) / 1e3;
        }
        out.drain_s = std::max(0.0, Ms(last_done - last_send) / 1e3);
        out.client_cpu_s = CpuSelfSeconds() - cpu0;
        SampleThreads();
        return out;
    }

  private:
    /** Successful completions inside the current phase window. */
    struct Window {
        std::size_t done = 0;
        Clock::time_point first, last;
    };

    void
    Send(Conn &c, std::size_t s, std::optional<Clock::time_point> due,
         TraceMode trace, PhaseOutcome &out)
    {
        const RequestClass &cls = *streams_[s].spec->cls;
        const bool measured = streams_[s].spec->measured;
        const u64 seq = next_seq_++;
        const std::size_t input = c.next_input++ % kPoolSize;
        const bool traced =
            trace == TraceMode::kAll ||
            (trace == TraceMode::kAlternate && seq % 2 == 1);
        Tally &tally = out.tallies[s];
        const auto t0 = Clock::now();
        Result<u64> id =
            c.client->SubmitGraph(c.inputs[input], cls.ops, cls.outputs);
        const auto t1 = Clock::now();
        ++tally.sent;
        ++totals_.attempted;
        if (due) {
            tally.lag_ms.push_back(Ms(t0 - *due));
        }
        if (traced) {
            spans_.Record("submit", seq, static_cast<u32>(c.index), t0, t1);
            if (measured) {
                out.client.submit_ms.push_back(Ms(t1 - t0));
            }
        }
        const Clock::time_point start = due ? *due : t0;
        if (!id.ok()) {
            Fail(id.status());
            SettleRequest(id.status(), {}, start, tally);
            return;
        }
        c.outstanding.push_back({seq, *id, input, s, start, traced, 0});
    }

    /** Poll the connection's oldest request; true when it settled. */
    bool
    PollFront(Conn &c, Clock::time_point end, Window &window,
              PhaseOutcome &out)
    {
        Conn::Outstanding &o = c.outstanding.front();
        const bool measured = streams_[o.stream].spec->measured;
        const auto lane = static_cast<u32>(c.index);
        const auto t0 = Clock::now();
        Result<serve::Client::Outcome> outcome = c.client->Poll(o.id);
        const auto t1 = Clock::now();
        ++o.polls;
        const bool pending = outcome.ok() && !outcome->done;
        if (o.traced) {
            spans_.Record(pending ? "poll" : "done", o.seq, lane, t0, t1);
            if (measured) {
                (pending ? out.client.poll_ms : out.client.done_ms)
                    .push_back(Ms(t1 - t0));
            }
        }
        if (pending) {
            return false;
        }
        Tally &tally = out.tallies[o.stream];
        const bool ok =
            SettleRequest(outcome, c.expected[o.input], o.start, tally);
        const auto settled = Clock::now();
        if (!ok) {
            Fail(outcome.ok() ? Status(ErrorCode::kInternal,
                                       "reply differs from the reference")
                              : outcome.status());
        } else if (settled <= end) {
            window.first = window.done++ == 0 ? settled : window.first;
            window.last = settled;
        }
        if (o.traced) {
            spans_.Record("request", o.seq, lane, o.start, settled);
            if (measured) {
                out.client.polls.push_back(static_cast<double>(o.polls));
            }
        }
        if (measured) {
            out.by_trace[o.traced ? 1 : 0].push_back(tally.latency_ms.back());
        }
        c.outstanding.pop_front();
        return true;
    }

    void
    Fail(const Status &status)
    {
        if (++totals_.failed <= 5) {
            std::fprintf(stderr, "hentt_e2e: request failed: %s\n",
                         status.ToString().c_str());
        }
    }

    void
    SampleThreads()
    {
        const auto now = Clock::now();
        if (now - last_sample_ < std::chrono::milliseconds(50)) {
            return;
        }
        last_sample_ = now;
        threads_peak_ =
            std::max(threads_peak_, ProcStatusField(daemon_, "Threads:"));
    }

    std::vector<Stream> streams_;
    std::vector<Conn *> conns_;
    SpanLog &spans_;
    Totals &totals_;
    pid_t daemon_;
    u64 next_seq_ = 1;
    long threads_peak_ = 0;
    Clock::time_point last_sample_{};
};

/** Connect to the daemon, retrying until its socket accepts. */
Result<std::unique_ptr<serve::Client>>
ConnectWhenReady(const std::string &socket, DaemonProcess &daemon)
{
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    for (;;) {
        Result<std::unique_ptr<serve::Client>> client =
            serve::Client::Connect(socket);
        if (client.ok() || daemon.Exited() || Clock::now() > deadline) {
            return client;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** The timed set-up: spawn the daemon, wait for its socket, and give
 *  every connection a session with keys. */
Status
SetUp(const RunConfig &config,
      const std::vector<const RequestClass *> &conn_class,
      const std::string &socket, const std::string &log,
      DaemonProcess &daemon, std::vector<std::unique_ptr<Conn>> &conns)
{
    ::unlink(socket.c_str());
    Status spawned = daemon.Spawn(config.daemon, socket, log, config.lanes);
    if (!spawned.ok()) {
        return spawned;
    }
    for (std::size_t i = 0; i < conn_class.size(); ++i) {
        auto conn = std::make_unique<Conn>();
        conn->index = i;
        conn->cls = conn_class[i];
        Result<std::unique_ptr<serve::Client>> client =
            i == 0 ? ConnectWhenReady(socket, daemon)
                   : serve::Client::Connect(socket);
        if (!client.ok()) {
            return client.status();
        }
        conn->client = std::move(*client);
        Result<u64> session = conn->client->CreateSession(conn->cls->params);
        if (!session.ok()) {
            return session.status();
        }
        conn->scheme = std::make_unique<he::BgvScheme>(
            conn->client->context(), DeriveSeed(config.seed, 100 + i));
        conn->sk = std::make_unique<he::SecretKey>(conn->scheme->KeyGen());
        if (conn->cls->keys) {
            conn->rk = std::make_unique<he::RelinKey>(
                conn->scheme->MakeRelinKey(*conn->sk));
            Status loaded = conn->client->LoadKeys(*conn->rk);
            if (!loaded.ok()) {
                return loaded;
            }
        }
        conns.push_back(std::move(conn));
    }
    return Status::Ok();
}

/** Ask the daemon to shut down and wait for it to exit. */
void
StopDaemon(std::vector<std::unique_ptr<Conn>> &conns, DaemonProcess &daemon)
{
    if (!conns.empty()) {
        (void)conns.front()->client->Shutdown();
    }
    if (!daemon.Reap(std::chrono::seconds(10))) {
        std::fprintf(stderr,
                     "hentt_e2e: daemon ignored Shutdown; killed\n");
    }
}

/** Encrypt every pool pair and compute its reference outputs, each
 *  checked once against the plaintext oracle. */
Status
BuildPools(const RunConfig &config,
           const std::vector<std::unique_ptr<Conn>> &conns)
{
    std::vector<const RequestClass *> classes;
    std::vector<std::vector<PlainPair>> plain;
    std::vector<std::vector<he::Plaintext>> oracle;
    for (const std::unique_ptr<Conn> &conn : conns) {
        auto it = std::find(classes.begin(), classes.end(), conn->cls);
        const std::size_t k = static_cast<std::size_t>(it - classes.begin());
        if (it == classes.end()) {
            classes.push_back(conn->cls);
            plain.push_back(
                MakePlainPool(*conn->cls, DeriveSeed(config.seed, 200 + k)));
            oracle.emplace_back();
            for (const PlainPair &pair : plain.back()) {
                oracle.back().push_back(PlainEvaluate(*conn->cls, pair));
            }
        }
        he::BgvScheme &scheme = *conn->scheme;
        const he::SecretKey &sk = *conn->sk;
        for (std::size_t i = 0; i < kPoolSize; ++i) {
            conn->inputs.push_back({scheme.Encrypt(sk, plain[k][i].a),
                                    scheme.Encrypt(sk, plain[k][i].b)});
            conn->expected.push_back(EvaluateLocal(
                scheme, conn->rk.get(), *conn->cls, conn->inputs.back()));
            if (scheme.Decrypt(sk, conn->expected.back().front()) !=
                oracle[k][i]) {
                return Status(ErrorCode::kInternal,
                              std::string("in-process ") + conn->cls->name +
                                  " reference does not decrypt to the "
                                  "schoolbook oracle");
            }
        }
    }
    return Status::Ok();
}

serve::WireStats
DaemonStats(Conn &conn)
{
    Result<serve::WireStats> stats = conn.client->Stats();
    return stats.ok() ? *stats : serve::WireStats{};
}

/** Per-phase load and coalescer counters. */
void
AddPhaseCounters(const std::string &phase, const PhaseOutcome &out,
                 Report &report)
{
    Tally all;
    for (const Tally &t : out.tallies) {
        all.sent += t.sent;
        all.ok += t.ok;
        all.failed += t.failed;
    }
    report.Add("loadgen." + phase + ".sent", all.sent, "count");
    report.Add("loadgen." + phase + ".ok", all.ok, "count");
    report.Add("loadgen." + phase + ".failed", all.failed, "count");
    const auto batches = static_cast<double>(out.daemon.batches_executed);
    const auto settled = static_cast<double>(
        out.daemon.requests_completed + out.daemon.requests_failed);
    report.Add("coalescer." + phase + ".batches", batches, "count");
    report.Add("coalescer." + phase + ".mean_batch",
               batches > 0 ? settled / batches : 0.0, "1");
    report.Add("coalescer." + phase + ".max_batch",
               static_cast<double>(out.daemon.max_batch_observed), "count");
    report.Add("coalescer." + phase + ".failed",
               static_cast<double>(out.daemon.requests_failed), "count");
}

}  // namespace

bool
SameCiphertexts(const std::vector<he::Ciphertext> &got,
                const std::vector<he::Ciphertext> &want)
{
    if (got.size() != want.size()) {
        return false;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        const std::vector<RnsPoly> &g = got[i].parts, &w = want[i].parts;
        if (g.size() != w.size()) {
            return false;
        }
        for (std::size_t p = 0; p < g.size(); ++p) {
            if (g[p].prime_count() != w[p].prime_count() ||
                g[p].degree() != w[p].degree() ||
                g[p].domain() != w[p].domain() ||
                !std::equal(g[p].flat().begin(), g[p].flat().end(),
                            w[p].flat().begin())) {
                return false;
            }
        }
    }
    return true;
}

bool
SettleRequest(const Result<serve::Client::Outcome> &outcome,
              const std::vector<he::Ciphertext> &expected,
              Clock::time_point start, Tally &tally)
{
    const bool ok = outcome.ok() && outcome->done &&
                    SameCiphertexts(outcome->outputs, expected);
    if (ok) {
        ++tally.ok;
        tally.latency_ms.push_back(Ms(Clock::now() - start));
    } else {
        ++tally.failed;
        tally.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
    return ok;
}

Status
RunLoad(const RunConfig &config, Report &report, SpanLog &spans,
        Totals &totals, std::vector<std::unique_ptr<Conn>> &conns)
{
    const Workload &w = *config.workload;
    const std::string socket =
        config.out_dir + "/d" + std::to_string(::getpid()) + ".sock";
    const std::string log = config.out_dir + "/daemon-" + w.name + ".log";

    // Connections: fixed-count streams take theirs from the end, the
    // stream with conns == 0 takes the rest.
    const std::size_t c_total = config.connections;
    std::vector<const RequestClass *> conn_class(c_total, nullptr);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(
        w.streams.size());
    std::size_t shared_end = c_total;
    for (std::size_t s = 0; s < w.streams.size(); ++s) {
        if (w.streams[s].conns > 0) {
            shared_end -= w.streams[s].conns;
            ranges[s] = {shared_end, shared_end + w.streams[s].conns};
        }
    }
    for (std::size_t s = 0; s < w.streams.size(); ++s) {
        if (w.streams[s].conns == 0) {
            ranges[s] = {0, shared_end};
        }
        for (std::size_t i = ranges[s].first; i < ranges[s].second; ++i) {
            conn_class[i] = w.streams[s].cls;
        }
    }

    // Set-up, repeated; the median is setup_s and the last is kept.
    DaemonProcess daemon;
    std::vector<double> setup_s;
    const int setups = config.smoke ? 1 : 3;
    for (int rep = 0; rep < setups; ++rep) {
        if (rep > 0) {
            StopDaemon(conns, daemon);
            conns.clear();
        }
        const auto t0 = Clock::now();
        Status ready = SetUp(config, conn_class, socket, log, daemon, conns);
        if (!ready.ok()) {
            return ready.WithFrame("set-up");
        }
        setup_s.push_back(Ms(Clock::now() - t0) / 1e3);
    }
    Status pools = BuildPools(config, conns);
    if (!pools.ok()) {
        StopDaemon(conns, daemon);
        return pools;
    }

    std::vector<Stream> streams;
    for (std::size_t s = 0; s < w.streams.size(); ++s) {
        Stream stream{&w.streams[s], {}};
        for (std::size_t i = ranges[s].first; i < ranges[s].second; ++i) {
            stream.conns.push_back(conns[i].get());
        }
        streams.push_back(std::move(stream));
    }
    LoadGen gen(std::move(streams), spans, totals, daemon.pid());
    const std::size_t n_streams = w.streams.size();
    const int rounds = config.smoke ? 1 : kRounds;
    const double lone_s = config.seconds * w.lone_share / rounds;
    const double open_s = config.seconds * w.open_share / rounds;
    const double closed_s = config.seconds * w.closed_share / rounds;

    std::vector<StreamPlan> closed(n_streams);
    for (std::size_t s = 0; s < n_streams; ++s) {
        closed[s].depth = w.streams[s].depth;
    }
    // Lone: one connection of the measured stream with one request
    // outstanding; other streams keep one outstanding per connection.
    std::vector<StreamPlan> lone(n_streams);
    for (std::size_t s = 0; s < n_streams; ++s) {
        lone[s].depth = 1;
        if (w.streams[s].measured) {
            lone[s].conn_limit = 1;
        }
    }

    gen.Run(config.smoke ? kWarmupSeconds / 10 : kWarmupSeconds, closed,
            TraceMode::kOff);
    // Memory after set-up and warm-up: sessions, keys, engine state and
    // the request path's working set at full closed-loop depth. Growth
    // past this point is rare and follows the allocator's timing, so
    // it is reported separately (daemon.rss_peak_mb).
    const long warm_hwm_kb = ProcStatusField(daemon.pid(), "VmHWM:");
    Conn &control = *conns.front();
    const auto run_round = [&](PhaseOutcome &phase, double seconds,
                               const std::vector<StreamPlan> &plans,
                               TraceMode trace) {
        const serve::WireStats before = DaemonStats(control);
        PhaseOutcome round = gen.Run(seconds, plans, trace);
        const serve::WireStats after = DaemonStats(control);
        round.daemon.batches_executed =
            after.batches_executed - before.batches_executed;
        round.daemon.requests_completed =
            after.requests_completed - before.requests_completed;
        round.daemon.requests_failed =
            after.requests_failed - before.requests_failed;
        round.daemon.max_batch_observed = after.max_batch_observed;
        phase.Merge(round);
    };
    const TraceMode traced =
        config.trace ? TraceMode::kAll : TraceMode::kOff;
    PhaseOutcome lone_out, open_out, closed_out;
    double daemon_cpu_s = 0.0;
    for (int r = 0; r < rounds; ++r) {
        run_round(lone_out, lone_s, lone,
                  config.trace ? TraceMode::kAlternate : TraceMode::kOff);
        std::vector<StreamPlan> open(n_streams);
        for (std::size_t s = 0; s < n_streams; ++s) {
            open[s].open = true;
            open[s].due = ArrivalSchedule(
                w.streams[s].open_rps, open_s,
                DeriveSeed(config.seed, 300 + 10 * r + s));
        }
        run_round(open_out, open_s, open, traced);
        const double cpu0 = ProcCpuSeconds(daemon.pid());
        run_round(closed_out, closed_s, closed, traced);
        daemon_cpu_s += ProcCpuSeconds(daemon.pid()) - cpu0;
    }
    const long hwm_kb = ProcStatusField(daemon.pid(), "VmHWM:");
    StopDaemon(conns, daemon);

    // End-to-end metrics.
    // Untraced lone requests: all of them, or every other in a traced
    // run.
    const std::vector<double> &lone_ms = lone_out.by_trace[0];
    std::vector<double> open_ms = open_out.by_trace[0];
    Append(open_ms, open_out.by_trace[1]);
    std::size_t closed_ok = 0;
    std::vector<double> lag_ms;
    for (std::size_t s = 0; s < n_streams; ++s) {
        closed_ok += closed_out.tallies[s].ok;
        const std::vector<double> &l = open_out.tallies[s].lag_ms;
        lag_ms.insert(lag_ms.end(), l.begin(), l.end());
    }
    const double p50 = Median(open_ms);
    const double tail = Percentile(open_ms, w.tail_pct);
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("lone_p50_ms", Median(lone_ms), "ms");
    report.Add("lone_p50_ms.samples", lone_ms.size(), "count");
    report.Add("p50_ms", p50, "ms");
    report.Add("p50_ms.samples", open_ms.size(), "count");
    report.Add("tail_ms", tail, "ms");
    report.Add("tail_ms.percentile", w.tail_pct, "%");
    report.Add("tail_ms.beyond", SamplesBeyond(open_ms.size(), w.tail_pct),
               "count");
    report.Add("throughput_rps",
               static_cast<double>(closed_out.window_gaps) /
                   closed_out.window_span_s,
               "req/s");
    report.Add("rss_mb", static_cast<double>(warm_hwm_kb) / 1024.0, "MB");

    // Load-side per-layer metrics.
    const double lag_p50 = Median(lag_ms);
    report.Add("loadgen.lag_p50_ms", lag_p50, "ms");
    report.Add("loadgen.lag_p99_ms", Percentile(lag_ms, 99.0), "ms");
    report.Add("loadgen.open.drain_s", open_out.drain_s, "s");
    AddPhaseCounters("lone", lone_out, report);
    AddPhaseCounters("open", open_out, report);
    AddPhaseCounters("closed", closed_out, report);
    report.Add("daemon.cpu_ms_per_req",
               closed_ok > 0 ? daemon_cpu_s * 1e3 / closed_ok : 0.0, "ms");
    report.Add("daemon.threads_peak", gen.threads_peak(), "count");
    report.Add("daemon.rss_peak_mb", static_cast<double>(hwm_kb) / 1024.0,
               "MB");
    if (config.trace) {
        const ClientSpans &c = lone_out.client;
        report.Add("client.submit_ms", Median(c.submit_ms), "ms");
        report.Add("client.poll_ms", Median(c.poll_ms), "ms");
        report.Add("client.done_ms", Median(c.done_ms), "ms");
        double polls = 0.0;
        for (const double p : c.polls) {
            polls += p;
        }
        report.Add("client.polls_per_req",
                   c.polls.empty() ? 0.0 : polls / c.polls.size(), "1");
        std::size_t lone_settled = 0;
        for (const Tally &t : lone_out.tallies) {
            lone_settled += t.ok + t.failed;
        }
        report.Add("client.cpu_ms_per_req",
                   lone_out.client_cpu_s * 1e3 /
                       static_cast<double>(std::max<std::size_t>(
                           lone_settled, 1)),
                   "ms");
        const double untraced = Median(lone_out.by_trace[0]);
        report.Add("trace.overhead_pct",
                   (Median(lone_out.by_trace[1]) - untraced) / untraced *
                       100.0,
                   "%");
    }

    // Validity guards: a generator that runs late as a rule, or a
    // backlog that outlives the phase, measures the generator, not the
    // daemon. (The lag tail is reported, not gated: one blocking client
    // thread queues a due send behind the submit or reply decode in
    // progress, which close arrivals always hit.)
    if (!config.smoke) {
        char why[160];
        if (lag_p50 > 0.1 * p50) {
            std::snprintf(why, sizeof(why),
                          "generator lag p50 %.3f ms exceeds 10%% of "
                          "p50_ms %.3f ms",
                          lag_p50, p50);
            totals.guard_failures.push_back(why);
        }
        if (open_out.drain_s > 2.0 * tail / 1e3 + 1.0) {
            std::snprintf(why, sizeof(why),
                          "open-phase backlog took %.3f s to drain "
                          "(limit 2 x tail_ms + 1 s)",
                          open_out.drain_s);
            totals.guard_failures.push_back(why);
        }
    }
    return Status::Ok();
}

}  // namespace hentt::e2e
