/**
 * @file
 * hentt-client — the thin blocking client library for hentt-daemon.
 *
 * One Client owns one connected unix-domain socket and (after
 * CreateSession) one local HeContext mirroring the daemon's session
 * parameters — prime generation is deterministic, so client and daemon
 * independently derive identical RNS bases and the wire only ever
 * carries residue words, never moduli.
 *
 * Every method is a blocking request/reply round trip. Failures come
 * back as Status, never exceptions: transport failures (dead daemon,
 * framing corruption) keep their local provenance; daemon-side
 * failures arrive as kError frames and are reassembled into the
 * daemon's own Status — code, message, and provenance chain — so a
 * client sees *where inside the daemon* a request died.
 *
 * One Client serves one thread; open one Client per concurrent caller
 * (the daemon handles any number of connections).
 */

#ifndef HENTT_SERVE_CLIENT_H
#define HENTT_SERVE_CLIENT_H

#include <memory>
#include <string>
#include <vector>

#include "he/bgv.h"
#include "serve/wire.h"

namespace hentt::serve {

/** Blocking daemon connection (see file comment). */
class Client
{
  public:
    /** Connect + handshake. */
    [[nodiscard]] static Result<std::unique_ptr<Client>>
    Connect(const std::string &socket_path);

    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Version both sides agreed on during the handshake. */
    u32 protocol_version() const { return protocol_version_; }

    /**
     * Create the connection's session on the daemon and build the
     * matching local context. Returns the daemon-assigned session id.
     */
    [[nodiscard]] Result<u64> CreateSession(const he::HeParams &params);

    /** Upload relinearization keys into the session. */
    [[nodiscard]] Status LoadKeys(const he::RelinKey &rk);

    /**
     * Submit a program (slot semantics as WireProgram: inputs first,
     * then one slot per op). Returns the request id — evaluation is
     * asynchronous; Poll or AwaitDone collects it.
     */
    [[nodiscard]] Result<u64>
    SubmitGraph(const std::vector<he::Ciphertext> &inputs,
                const std::vector<WireProgram::Op> &ops,
                const std::vector<u32> &outputs);

    /** One Poll round trip's outcome. */
    struct Outcome {
        bool done = false;  ///< false: still queued/executing
        std::vector<he::Ciphertext> outputs;
    };

    /** Non-blocking (daemon-side) result check. A finished request is
     *  consumed. Evaluation failures surface as the error Status. */
    [[nodiscard]] Result<Outcome> Poll(u64 request_id);

    /** Poll until the request settles; returns its outputs. */
    [[nodiscard]] Result<std::vector<he::Ciphertext>>
    AwaitDone(u64 request_id);

    /** Liveness round trip. */
    [[nodiscard]] Status Ping();

    /** Fetch the daemon's counters. */
    [[nodiscard]] Result<WireStats> Stats();

    /** Release the session (daemon side); the connection stays up. */
    [[nodiscard]] Status CloseSession();

    /** Ask the daemon to stop; the daemon closes the connection after
     *  acknowledging. */
    [[nodiscard]] Status Shutdown();

    /** Local mirror context; null before CreateSession succeeds. */
    const std::shared_ptr<const he::HeContext> &context() const
    {
        return ctx_;
    }

  private:
    Client(int fd, u32 protocol_version);

    /** Send one request frame, read one reply. A kError reply is
     *  reassembled into the daemon's Status and returned as the
     *  error; a reply of neither @p expect nor @p also_expect is a
     *  kInternal error framed with @p caller; anything else is handed
     *  back for dispatch. kError (never handed back) as @p also_expect
     *  means no second type. */
    [[nodiscard]] Result<Frame>
    RoundTrip(FrameType type, std::vector<u8> payload, const char *caller,
              FrameType expect, FrameType also_expect = FrameType::kError);

    int fd_ = -1;
    u32 protocol_version_ = 0;
    std::shared_ptr<const he::HeContext> ctx_;
};

}  // namespace hentt::serve

#endif  // HENTT_SERVE_CLIENT_H
