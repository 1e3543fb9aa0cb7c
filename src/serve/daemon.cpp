/** @file Daemon implementation (see daemon.h). */

#include "serve/daemon.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/failpoint.h"
#include "serve/serde.h"

namespace hentt::serve {

namespace {

Frame
ErrorFrame(const Status &status)
{
    Frame frame;
    frame.type = FrameType::kError;
    frame.payload = EncodeStatus(status);
    return frame;
}

Frame
MakeFrame(FrameType type, std::vector<u8> payload = {})
{
    Frame frame;
    frame.type = type;
    frame.payload = std::move(payload);
    return frame;
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      arena_(std::make_shared<he::ScratchArena>()),
      sessions_(arena_),
      coalescer_(config_.batch, arena_)
{
}

Daemon::~Daemon()
{
    Stop();
}

Status
Daemon::Start()
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socket_path.empty() ||
        config_.socket_path.size() >= sizeof(addr.sun_path)) {
        return Status(ErrorCode::kInvalidArgument,
                      "socket path empty or longer than " +
                          std::to_string(sizeof(addr.sun_path) - 1) +
                          " bytes: " + config_.socket_path)
            .WithFrame("Daemon::Start");
    }
    {
        MutexLock lock(mutex_);
        if (running_) {
            return Status(ErrorCode::kFailedPrecondition,
                          "daemon already running")
                .WithFrame("Daemon::Start");
        }
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        return Status(ErrorCode::kUnavailable,
                      std::string("socket() failed: ") +
                          std::strerror(errno))
            .WithFrame("Daemon::Start");
    }
    std::memcpy(addr.sun_path, config_.socket_path.c_str(),
                config_.socket_path.size() + 1);
    ::unlink(config_.socket_path.c_str());  // stale socket from a
                                            // previous run
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 128) != 0) {
        const Status status =
            Status(ErrorCode::kUnavailable,
                   std::string("bind/listen failed on ") +
                       config_.socket_path + ": " +
                       std::strerror(errno))
                .WithFrame("Daemon::Start");
        ::close(fd);
        return status;
    }
    coalescer_.Start();
    {
        MutexLock lock(mutex_);
        running_ = true;
        stop_requested_ = false;
        listen_fd_ = fd;
    }
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return Status::Ok();
}

void
Daemon::RequestStop()
{
    int fd = -1;
    {
        MutexLock lock(mutex_);
        if (!running_ || stop_requested_) {
            return;
        }
        stop_requested_ = true;
        fd = listen_fd_;
    }
    if (fd >= 0) {
        // Unblocks accept(); the accept loop sees stop_requested_.
        ::shutdown(fd, SHUT_RDWR);
    }
    cv_stop_.notify_all();
}

void
Daemon::Wait()
{
    {
        MutexLock lock(mutex_);
        if (!running_) {
            return;
        }
        while (!stop_requested_) {
            cv_stop_.wait(mutex_);
        }
    }
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    // Wake every connection thread blocked in ReadFrame, then join —
    // the still-live ones and any finished ones AcceptLoop has not
    // reaped yet.
    std::vector<std::thread> threads;
    {
        MutexLock lock(mutex_);
        for (auto &[fd, thread] : conn_threads_) {
            ::shutdown(fd, SHUT_RDWR);
            threads.push_back(std::move(thread));
        }
        conn_threads_.clear();
        for (std::thread &thread : done_threads_) {
            threads.push_back(std::move(thread));
        }
        done_threads_.clear();
    }
    for (std::thread &thread : threads) {
        if (thread.joinable()) {
            thread.join();
        }
    }
    coalescer_.Stop();
    {
        MutexLock lock(mutex_);
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        running_ = false;
    }
    ::unlink(config_.socket_path.c_str());
}

WireStats
Daemon::Stats() const
{
    WireStats stats = coalescer_.StatsSnapshot();
    stats.sessions_created = sessions_.CreatedCount();
    stats.sessions_active = sessions_.ActiveCount();
    return stats;
}

void
Daemon::AcceptLoop()
{
    for (;;) {
        int listen_fd = -1;
        {
            MutexLock lock(mutex_);
            if (stop_requested_) {
                return;
            }
            listen_fd = listen_fd_;
        }
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            const int err = errno;
            {
                MutexLock lock(mutex_);
                if (stop_requested_) {
                    return;  // listener shut down by RequestStop()
                }
            }
            if (err == EINTR || err == ECONNABORTED) {
                // Interrupted, or the peer gave up while queued —
                // nothing wrong with the listener.
                continue;
            }
            if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
                err == ENOMEM) {
                // Resource exhaustion under a connection burst is
                // transient: back off briefly (lets connections close
                // and fds free) instead of silently never accepting
                // again while the daemon looks alive.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            // The listener itself is broken: exit the loop.
            return;
        }
        std::vector<std::thread> finished;
        {
            MutexLock lock(mutex_);
            if (stop_requested_) {
                ::close(fd);
                return;  // Wait() joins the remaining threads
            }
            conn_threads_.emplace(
                fd, std::thread([this, fd] { ServeConnection(fd); }));
            finished.swap(done_threads_);
        }
        // Reap connections that ended since the last accept (their
        // threads are exiting or already gone — join is immediate).
        for (std::thread &thread : finished) {
            if (thread.joinable()) {
                thread.join();
            }
        }
    }
}

void
Daemon::ServeConnection(int fd)
{
    ConnState conn;
    if (DaemonHandshake(fd).ok()) {
        for (;;) {
            Result<Frame> request = ReadFrame(fd);
            if (!request.ok()) {
                if (request.status().code() ==
                    ErrorCode::kInvalidArgument) {
                    // Unparseable framing: report, then close (the
                    // stream cannot be resynchronised).
                    (void)WriteFrame(fd, ErrorFrame(request.status()));
                }
                break;
            }
            bool close_after = false;
            const Frame reply =
                HandleFrame(conn, *request, close_after);
            const bool wrote = WriteFrame(fd, reply).ok();
            if (conn.stop_after_reply) {
                // Reply first, stop second: the shutdown client gets
                // its kOk before teardown can touch this socket.
                RequestStop();
            }
            if (!wrote || close_after) {
                break;
            }
        }
    }
    // Teardown: the session and everything it owns dies with the
    // connection — queued requests, unpolled results, the registry
    // entry. This is the no-orphaned-sessions guarantee the e2e suite
    // asserts.
    if (conn.session != nullptr) {
        coalescer_.DropSessionRequests(conn.session->id);
        sessions_.Close(conn.session->id);
        conn.session.reset();
    }
    {
        MutexLock lock(mutex_);
        // Hand our own (still-running) handle to the reap list;
        // AcceptLoop or Wait() joins it after we return. Absent when
        // Wait() already claimed it for the shutdown join.
        auto it = conn_threads_.find(fd);
        if (it != conn_threads_.end()) {
            done_threads_.push_back(std::move(it->second));
            conn_threads_.erase(it);
        }
    }
    ::close(fd);
}

Frame
Daemon::HandleFrame(ConnState &conn, const Frame &request,
                    bool &close_after)
{
    close_after = false;
    try {
        // The chaos leg arms this site: an injected fault anywhere in
        // request handling must reach the client as a kError frame
        // with provenance, with the daemon and connection surviving.
        HENTT_FAILPOINT(fp::kServeRequest);

        switch (request.type) {
          case FrameType::kPing:
            return MakeFrame(FrameType::kPong);

          case FrameType::kGetStats:
            return MakeFrame(FrameType::kStatsReply,
                             EncodeStats(Stats()));

          case FrameType::kShutdown:
            // Deferred: ServeConnection calls RequestStop() once the
            // kOk reply is on the wire. Stopping here would let
            // Wait() shut this very connection down mid-reply.
            conn.stop_after_reply = true;
            close_after = true;
            return MakeFrame(FrameType::kOk);

          case FrameType::kCreateSession: {
            if (conn.session != nullptr) {
                return ErrorFrame(
                    Status(ErrorCode::kFailedPrecondition,
                           "connection already owns session " +
                               std::to_string(conn.session->id))
                        .WithFrame("Daemon::CreateSession"));
            }
            Result<WireParams> wp = DecodeParams(request.payload);
            if (!wp.ok()) {
                return ErrorFrame(wp.status());
            }
            Result<he::HeParams> params = ParamsFromWire(*wp);
            if (!params.ok()) {
                return ErrorFrame(params.status());
            }
            Result<std::shared_ptr<Session>> session =
                sessions_.Create(*params);
            if (!session.ok()) {
                return ErrorFrame(session.status());
            }
            conn.session = *session;
            return MakeFrame(FrameType::kSessionCreated,
                             EncodeU64Payload(conn.session->id));
          }

          case FrameType::kLoadKeys: {
            if (conn.session == nullptr) {
                return ErrorFrame(
                    Status(ErrorCode::kFailedPrecondition,
                           "LoadKeys before CreateSession")
                        .WithFrame("Daemon::LoadKeys"));
            }
            Result<WireRelinKey> wrk =
                DecodeRelinKey(request.payload);
            if (!wrk.ok()) {
                return ErrorFrame(wrk.status());
            }
            Result<he::RelinKey> rk =
                RelinKeyFromWire(*conn.session->ctx, *wrk);
            if (!rk.ok()) {
                return ErrorFrame(rk.status());
            }
            // Swapped under the session's key mutex; requests already
            // submitted keep executing against the version they
            // pinned at submit time.
            conn.session->SetRelinKey(
                std::make_shared<const he::RelinKey>(
                    std::move(*rk)));
            return MakeFrame(FrameType::kOk);
          }

          case FrameType::kSubmitGraph: {
            if (conn.session == nullptr) {
                return ErrorFrame(
                    Status(ErrorCode::kFailedPrecondition,
                           "SubmitGraph before CreateSession")
                        .WithFrame("Daemon::SubmitGraph"));
            }
            Result<WireProgram> program =
                DecodeProgram(request.payload);
            if (!program.ok()) {
                return ErrorFrame(program.status());
            }
            std::vector<he::Ciphertext> inputs;
            inputs.reserve(program->inputs.size());
            for (const WireCiphertext &wct : program->inputs) {
                Result<he::Ciphertext> ct =
                    CiphertextFromWire(*conn.session->ctx, wct);
                if (!ct.ok()) {
                    return ErrorFrame(ct.status().WithFrame(
                        "Daemon::SubmitGraph"));
                }
                inputs.push_back(std::move(*ct));
            }
            Result<u64> id = coalescer_.Submit(
                conn.session, std::move(inputs),
                std::move(program->ops),
                std::move(program->outputs));
            if (!id.ok()) {
                return ErrorFrame(id.status());
            }
            return MakeFrame(FrameType::kSubmitted,
                             EncodeU64Payload(*id));
          }

          case FrameType::kPoll: {
            if (conn.session == nullptr) {
                return ErrorFrame(
                    Status(ErrorCode::kFailedPrecondition,
                           "Poll before CreateSession")
                        .WithFrame("Daemon::Poll"));
            }
            Result<u64> id = DecodeU64Payload(request.payload);
            if (!id.ok()) {
                return ErrorFrame(id.status());
            }
            // Scoped to the calling session: foreign ids read as
            // unknown and never consume another client's result.
            PollResult result =
                coalescer_.Poll(*id, conn.session->id);
            if (!result.done) {
                return MakeFrame(FrameType::kPending);
            }
            if (!result.status.ok()) {
                return ErrorFrame(result.status);
            }
            std::vector<WireCiphertext> wcts;
            wcts.reserve(result.outputs.size());
            for (const he::Ciphertext &ct : result.outputs) {
                wcts.push_back(ToWire(ct));
            }
            return MakeFrame(FrameType::kDone,
                             EncodeCiphertextList(wcts));
          }

          case FrameType::kCloseSession: {
            if (conn.session != nullptr) {
                coalescer_.DropSessionRequests(conn.session->id);
                sessions_.Close(conn.session->id);
                conn.session.reset();
            }
            return MakeFrame(FrameType::kOk);
          }

          default:
            return ErrorFrame(
                Status(ErrorCode::kInvalidArgument,
                       std::string("unexpected frame type ") +
                           FrameTypeName(request.type) +
                           " from a client")
                    .WithFrame("Daemon::HandleFrame"));
        }
    } catch (...) {
        // The last line of containment: no failure in request
        // handling — injected or real — may drop the connection.
        return ErrorFrame(CurrentExceptionToStatus().WithFrame(
            "Daemon::HandleFrame(" +
            std::string(FrameTypeName(request.type)) + ")"));
    }
}

}  // namespace hentt::serve
