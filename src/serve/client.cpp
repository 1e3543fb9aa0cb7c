/** @file Client implementation (see client.h). */

#include "serve/client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/serde.h"

namespace hentt::serve {

Client::Client(int fd, u32 protocol_version)
    : fd_(fd), protocol_version_(protocol_version)
{
}

Client::~Client()
{
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

Result<std::unique_ptr<Client>>
Client::Connect(const std::string &socket_path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.empty() ||
        socket_path.size() >= sizeof(addr.sun_path)) {
        return Status(ErrorCode::kInvalidArgument,
                      "socket path empty or too long: " + socket_path)
            .WithFrame("Client::Connect");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        return Status(ErrorCode::kUnavailable,
                      std::string("socket() failed: ") +
                          std::strerror(errno))
            .WithFrame("Client::Connect");
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const Status status =
            Status(ErrorCode::kUnavailable,
                   "connect(" + socket_path +
                       ") failed: " + std::strerror(errno))
                .WithFrame("Client::Connect");
        ::close(fd);
        return status;
    }
    Result<u32> version = ClientHandshake(fd);
    if (!version.ok()) {
        ::close(fd);
        return version.status().WithFrame("Client::Connect");
    }
    return std::unique_ptr<Client>(new Client(fd, *version));
}

Result<Frame>
Client::RoundTrip(FrameType type, std::vector<u8> payload,
                  const char *caller, FrameType expect,
                  FrameType also_expect)
{
    Frame request;
    request.type = type;
    request.payload = std::move(payload);
    Status sent = WriteFrame(fd_, request);
    if (!sent.ok()) {
        return sent.WithFrame("Client::RoundTrip");
    }
    Result<Frame> reply = ReadFrame(fd_);
    if (!reply.ok()) {
        return reply.status().WithFrame("Client::RoundTrip");
    }
    if (reply->type == FrameType::kError) {
        Result<WireStatus> ws = DecodeStatus(reply->payload);
        if (!ws.ok()) {
            return ws.status().WithFrame("Client::RoundTrip");
        }
        return WireStatusToStatus(*ws);
    }
    if (reply->type != expect && reply->type != also_expect) {
        std::string expected = FrameTypeName(expect);
        if (also_expect != FrameType::kError) {
            expected += std::string("/") + FrameTypeName(also_expect);
        }
        return Status(ErrorCode::kInternal,
                      "expected " + expected + ", got " +
                          FrameTypeName(reply->type))
            .WithFrame(caller);
    }
    return reply;
}

Result<u64>
Client::CreateSession(const he::HeParams &params)
{
    Result<Frame> reply =
        RoundTrip(FrameType::kCreateSession, EncodeParams(ToWire(params)),
                  "Client::CreateSession", FrameType::kSessionCreated);
    if (!reply.ok()) {
        return reply.status();
    }
    Result<u64> id = DecodeU64Payload(reply->payload);
    if (!id.ok()) {
        return id.status().WithFrame("Client::CreateSession");
    }
    // The daemon accepted the parameters, so the local mirror build
    // can only fail on resource exhaustion.
    try {
        ctx_ = std::make_shared<const he::HeContext>(params);
    } catch (...) {
        return CurrentExceptionToStatus().WithFrame(
            "Client::CreateSession");
    }
    return *id;
}

Status
Client::LoadKeys(const he::RelinKey &rk)
{
    return RoundTrip(FrameType::kLoadKeys, EncodeRelinKey(ToWire(rk)),
                     "Client::LoadKeys", FrameType::kOk)
        .status();
}

Result<u64>
Client::SubmitGraph(const std::vector<he::Ciphertext> &inputs,
                    const std::vector<WireProgram::Op> &ops,
                    const std::vector<u32> &outputs)
{
    WireProgram program;
    program.inputs.reserve(inputs.size());
    for (const he::Ciphertext &ct : inputs) {
        program.inputs.push_back(ToWire(ct));
    }
    program.ops = ops;
    program.outputs = outputs;
    Result<Frame> reply =
        RoundTrip(FrameType::kSubmitGraph, EncodeProgram(program),
                  "Client::SubmitGraph", FrameType::kSubmitted);
    if (!reply.ok()) {
        return reply.status();
    }
    Result<u64> id = DecodeU64Payload(reply->payload);
    if (!id.ok()) {
        return id.status().WithFrame("Client::SubmitGraph");
    }
    return *id;
}

Result<Client::Outcome>
Client::Poll(u64 request_id)
{
    Result<Frame> reply =
        RoundTrip(FrameType::kPoll, EncodeU64Payload(request_id),
                  "Client::Poll", FrameType::kDone, FrameType::kPending);
    if (!reply.ok()) {
        return reply.status();
    }
    Outcome outcome;
    if (reply->type == FrameType::kPending) {
        return outcome;
    }
    if (ctx_ == nullptr) {
        return Status(ErrorCode::kFailedPrecondition,
                      "poll result before CreateSession built the "
                      "local context")
            .WithFrame("Client::Poll");
    }
    Result<std::vector<WireCiphertext>> wcts =
        DecodeCiphertextList(reply->payload);
    if (!wcts.ok()) {
        return wcts.status().WithFrame("Client::Poll");
    }
    outcome.done = true;
    outcome.outputs.reserve(wcts->size());
    for (const WireCiphertext &wct : *wcts) {
        Result<he::Ciphertext> ct = CiphertextFromWire(*ctx_, wct);
        if (!ct.ok()) {
            return ct.status().WithFrame("Client::Poll");
        }
        outcome.outputs.push_back(std::move(*ct));
    }
    return outcome;
}

Result<std::vector<he::Ciphertext>>
Client::AwaitDone(u64 request_id)
{
    for (;;) {
        Result<Outcome> outcome = Poll(request_id);
        if (!outcome.ok()) {
            return outcome.status().WithFrame("Client::AwaitDone");
        }
        if (outcome->done) {
            return std::move(outcome->outputs);
        }
        // The daemon has no notification channel (polling keeps the
        // protocol stateless between frames); a short sleep bounds the
        // busy-wait. It adds up to 200 us to a request the coalescer
        // starts at once (a blocking wait frame would remove it).
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

Status
Client::Ping()
{
    return RoundTrip(FrameType::kPing, {}, "Client::Ping", FrameType::kPong)
        .status();
}

Result<WireStats>
Client::Stats()
{
    Result<Frame> reply = RoundTrip(FrameType::kGetStats, {},
                                    "Client::Stats", FrameType::kStatsReply);
    if (!reply.ok()) {
        return reply.status();
    }
    Result<WireStats> stats = DecodeStats(reply->payload);
    if (!stats.ok()) {
        return stats.status().WithFrame("Client::Stats");
    }
    return stats;
}

Status
Client::CloseSession()
{
    Result<Frame> reply = RoundTrip(FrameType::kCloseSession, {},
                                    "Client::CloseSession", FrameType::kOk);
    if (reply.ok()) {
        ctx_.reset();
    }
    return reply.status();
}

Status
Client::Shutdown()
{
    return RoundTrip(FrameType::kShutdown, {}, "Client::Shutdown",
                     FrameType::kOk)
        .status();
}

}  // namespace hentt::serve
