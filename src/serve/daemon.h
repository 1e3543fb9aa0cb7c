/**
 * @file
 * hentt-daemon — the long-lived multi-client HE evaluation server.
 *
 * One unix-domain socket listener; one thread and one Session per
 * accepted connection; one Coalescer turning all connections' traffic
 * into shared HeOpGraph wavefronts. The per-connection thread only
 * parses frames, validates payloads against its session, and
 * enqueues/polls — every HE kernel runs on the coalescer worker, so a
 * slow client never holds a compute lock.
 *
 * Error contract: any failure while serving a parseable frame —
 * malformed payload, validation failure, injected fault, evaluation
 * error — is answered with a kError frame carrying the full Status
 * (code + message + provenance) and the connection stays up. Only an
 * unparseable *stream* (bad framing bytes: resync is impossible) is
 * answered with a final kError and a close, and a clean peer
 * disconnect tears the session down (its queued requests and
 * undelivered results are dropped — no orphans).
 *
 * Shutdown: a kShutdown frame (or Stop()) stops the listener, wakes
 * Wait(), shuts every live connection down, joins all threads, stops
 * the coalescer, and unlinks the socket.
 */

#ifndef HENTT_SERVE_DAEMON_H
#define HENTT_SERVE_DAEMON_H

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "serve/coalescer.h"
#include "serve/session.h"

namespace hentt::serve {

/** Daemon knobs. */
struct DaemonConfig {
    /** Filesystem path of the AF_UNIX listening socket. */
    std::string socket_path;
    /** Admission-control settings handed to the Coalescer. */
    BatchConfig batch;
};

/** The server (see file comment). */
class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind + listen + start the coalescer and accept loop. */
    [[nodiscard]] Status Start() HENTT_EXCLUDES(mutex_);

    /** Ask the daemon to stop (non-blocking; kShutdown calls this). */
    void RequestStop() HENTT_EXCLUDES(mutex_);

    /**
     * Block until a stop is requested, then tear everything down:
     * close the listener and every live connection, join all threads,
     * stop the coalescer, unlink the socket. The CLI main's body.
     */
    void Wait() HENTT_EXCLUDES(mutex_);

    /** RequestStop() + Wait() — the test harness's one-call stop. */
    void Stop()
    {
        RequestStop();
        Wait();
    }

    const std::string &socket_path() const
    {
        return config_.socket_path;
    }

    /** Live counters: coalescer batching stats overlaid with the
     *  session registry's counts. */
    WireStats Stats() const;

    SessionManager &sessions() { return sessions_; }
    Coalescer &coalescer() { return coalescer_; }

  private:
    void AcceptLoop() HENTT_EXCLUDES(mutex_);
    void ServeConnection(int fd) HENTT_EXCLUDES(mutex_);

    /** Per-connection mutable state. */
    struct ConnState {
        std::shared_ptr<Session> session;
        /** kShutdown was served: call RequestStop() *after* the kOk
         *  reply is written. Stopping first races Wait()'s
         *  connection shutdown against our own reply write. */
        bool stop_after_reply = false;
    };

    /**
     * Serve one parseable request frame: returns the reply frame.
     * Never throws — every failure becomes a kError reply. Sets
     * @p close_after for frames that end the connection (kShutdown).
     */
    Frame HandleFrame(ConnState &conn, const Frame &request,
                      bool &close_after);

    DaemonConfig config_;
    std::shared_ptr<he::ScratchArena> arena_;
    SessionManager sessions_;
    Coalescer coalescer_;

    mutable Mutex mutex_;
    CondVar cv_stop_;
    bool running_ HENTT_GUARDED_BY(mutex_) = false;
    bool stop_requested_ HENTT_GUARDED_BY(mutex_) = false;
    int listen_fd_ HENTT_GUARDED_BY(mutex_) = -1;
    /** Live connection threads, keyed by their fd (Wait() shuts each
     *  fd down to wake its ReadFrame). A finishing connection moves
     *  its own handle to done_threads_; AcceptLoop reaps that list on
     *  every accept, so a long-lived daemon never accumulates unjoined
     *  handles (Wait() joins whatever is left of both at shutdown). */
    std::map<int, std::thread> conn_threads_ HENTT_GUARDED_BY(mutex_);
    std::vector<std::thread> done_threads_ HENTT_GUARDED_BY(mutex_);

    std::thread accept_thread_;
};

}  // namespace hentt::serve

#endif  // HENTT_SERVE_DAEMON_H
