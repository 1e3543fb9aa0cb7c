/** @file Wire codec + frame I/O implementation (see wire.h). */

#include "serve/wire.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace hentt::serve {

namespace {

/** True for the type values the enum actually names. */
bool
IsKnownFrameType(u8 type)
{
    return type >= static_cast<u8>(FrameType::kCreateSession) &&
           type <= static_cast<u8>(FrameType::kStatsReply);
}

}  // namespace

void
RaiseDecode(const std::string &message)
{
    ThrowStatus(Status(ErrorCode::kInvalidArgument, message)
                    .WithFrame("serve::Reader"));
}

const char *
FrameTypeName(FrameType type)
{
    switch (type) {
      case FrameType::kCreateSession:
        return "CreateSession";
      case FrameType::kSessionCreated:
        return "SessionCreated";
      case FrameType::kLoadKeys:
        return "LoadKeys";
      case FrameType::kOk:
        return "Ok";
      case FrameType::kSubmitGraph:
        return "SubmitGraph";
      case FrameType::kSubmitted:
        return "Submitted";
      case FrameType::kPoll:
        return "Poll";
      case FrameType::kPending:
        return "Pending";
      case FrameType::kDone:
        return "Done";
      case FrameType::kError:
        return "Error";
      case FrameType::kCloseSession:
        return "CloseSession";
      case FrameType::kShutdown:
        return "Shutdown";
      case FrameType::kPing:
        return "Ping";
      case FrameType::kPong:
        return "Pong";
      case FrameType::kGetStats:
        return "GetStats";
      case FrameType::kStatsReply:
        return "StatsReply";
    }
    return "Unknown";
}

// ---------------------------------------------------------------------
// Writer / Reader primitives.
// ---------------------------------------------------------------------

void
Writer::U32(u32 v)
{
    for (int i = 0; i < 4; ++i) {
        out_.push_back(static_cast<u8>(v >> (8 * i)));
    }
}

void
Writer::U64(u64 v)
{
    for (int i = 0; i < 8; ++i) {
        out_.push_back(static_cast<u8>(v >> (8 * i)));
    }
}

void
Writer::Str(const std::string &s)
{
    U32(static_cast<u32>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
}

void
Writer::Words(std::span<const u64> words)
{
    // Byte view of the rows (the header asserts a little-endian host).
    const u8 *bytes = reinterpret_cast<const u8 *>(words.data());
    out_.insert(out_.end(), bytes, bytes + words.size_bytes());
}

void
Reader::Need(std::size_t bytes) const
{
    if (bytes > data_.size() - pos_) {
        RaiseDecode("truncated payload: need " + std::to_string(bytes) +
                    " bytes at offset " + std::to_string(pos_) +
                    ", have " + std::to_string(data_.size() - pos_));
    }
}

u8
Reader::U8()
{
    Need(1);
    return data_[pos_++];
}

u32
Reader::U32()
{
    Need(4);
    u32 v = 0;
    for (int i = 0; i < 4; ++i) {
        v |= static_cast<u32>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
}

u64
Reader::U64()
{
    Need(8);
    u64 v = 0;
    for (int i = 0; i < 8; ++i) {
        v |= static_cast<u64>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
}

std::string
Reader::Str(std::size_t max_bytes)
{
    const u32 len = U32();
    if (len > max_bytes) {
        RaiseDecode("string length " + std::to_string(len) +
                    " exceeds cap " + std::to_string(max_bytes));
    }
    Need(len);
    std::string s(reinterpret_cast<const char *>(data_.data() + pos_),
                  len);
    pos_ += len;
    return s;
}

void
Reader::Words(std::span<u64> out)
{
    Need(out.size_bytes());
    if (!out.empty()) {
        std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
    }
    pos_ += out.size_bytes();
}

void
Reader::ExpectEnd() const
{
    if (pos_ != data_.size()) {
        RaiseDecode("trailing bytes: " +
                    std::to_string(data_.size() - pos_) +
                    " unconsumed after a complete message");
    }
}

// ---------------------------------------------------------------------
// Message codecs.
// ---------------------------------------------------------------------

void
PutPolyHeader(Writer &w, const PolyHeader &header)
{
    w.U64(header.degree);
    w.U32(header.prime_count);
    w.U8(header.domain);
    w.U8(header.lazy);
    w.U64(header.words);
}

PolyHeader
GetPolyHeader(Reader &r)
{
    PolyHeader header;
    header.degree = r.U64();
    header.prime_count = r.U32();
    header.domain = r.U8();
    header.lazy = r.U8();
    if (header.degree > kMaxDegree ||
        header.prime_count > kMaxPrimeCount || header.domain > 1 ||
        header.lazy > 1) {
        RaiseDecode("poly header out of range: degree " +
                    std::to_string(header.degree) + ", primes " +
                    std::to_string(header.prime_count));
    }
    header.words = r.U64();
    // Both factors are capped above, so the product cannot wrap.
    const u64 expect = header.degree * header.prime_count;
    if (header.words != expect) {
        RaiseDecode("poly words " + std::to_string(header.words) +
                    " do not match shape " + std::to_string(expect));
    }
    if (header.words > r.remaining() / sizeof(u64)) {
        RaiseDecode("truncated payload: poly of " +
                    std::to_string(header.words) + " words, " +
                    std::to_string(r.remaining()) + " bytes left");
    }
    return header;
}

WirePoly
GetPoly(Reader &r)
{
    const PolyHeader header = GetPolyHeader(r);
    WirePoly poly{header.degree, header.prime_count, header.domain,
                  header.lazy, std::vector<u64>(header.words)};
    r.Words(poly.words);
    return poly;
}

namespace {

void
PutParams(Writer &w, const WireParams &p)
{
    w.U64(p.degree);
    w.U64(p.prime_count);
    w.U32(p.prime_bits);
    w.U64(p.plain_modulus);
    w.U64(p.noise_stddev_bits);
}

WireParams
GetParams(Reader &r)
{
    WireParams p;
    p.degree = r.U64();
    p.prime_count = r.U64();
    p.prime_bits = r.U32();
    p.plain_modulus = r.U64();
    p.noise_stddev_bits = r.U64();
    if (p.degree > kMaxDegree || p.prime_count > kMaxPrimeCount) {
        RaiseDecode("params out of range: degree " +
                    std::to_string(p.degree) + ", primes " +
                    std::to_string(p.prime_count));
    }
    return p;
}

void
PutPoly(Writer &w, const WirePoly &poly)
{
    PutPolyHeader(w, {poly.degree, poly.prime_count, poly.domain,
                      poly.lazy, poly.words.size()});
    w.Words(poly.words);
}

}  // namespace

std::vector<u8>
EncodeParams(const WireParams &params)
{
    std::vector<u8> out;
    Writer w(out);
    PutParams(w, params);
    return out;
}

Result<WireParams>
DecodeParams(std::span<const u8> payload)
{
    return DecodeGuard<WireParams>("serve::DecodeParams", [&] {
        Reader r(payload);
        WireParams p = GetParams(r);
        r.ExpectEnd();
        return p;
    });
}

std::vector<u8>
EncodePoly(const WirePoly &poly)
{
    std::vector<u8> out;
    out.reserve(PolyBytes(poly.words.size()));
    Writer w(out);
    PutPoly(w, poly);
    return out;
}

Result<WirePoly>
DecodePoly(std::span<const u8> payload)
{
    return DecodeGuard<WirePoly>("serve::DecodePoly", [&] {
        Reader r(payload);
        WirePoly poly = GetPoly(r);
        r.ExpectEnd();
        return poly;
    });
}

std::vector<u8>
EncodeRelinKey(const WireRelinKey &rk)
{
    std::size_t bytes = 4;
    for (const WireRelinKey::Level &level : rk.levels) {
        bytes += 4;
        for (const std::vector<WirePoly> *polys : {&level.b, &level.a}) {
            for (const WirePoly &poly : *polys) {
                bytes += PolyBytes(poly.words.size());
            }
        }
    }
    std::vector<u8> out;
    out.reserve(bytes);
    Writer w(out);
    w.U32(static_cast<u32>(rk.levels.size()));
    for (const WireRelinKey::Level &level : rk.levels) {
        w.U32(static_cast<u32>(level.b.size()));
        for (const WirePoly &poly : level.b) {
            PutPoly(w, poly);
        }
        for (const WirePoly &poly : level.a) {
            PutPoly(w, poly);
        }
    }
    return out;
}

Result<WireRelinKey>
DecodeRelinKey(std::span<const u8> payload)
{
    return DecodeGuard<WireRelinKey>("serve::DecodeRelinKey", [&] {
        Reader r(payload);
        const u32 level_count = r.U32();
        if (level_count > kMaxPrimeCount) {
            RaiseDecode("relin key level count " +
                        std::to_string(level_count) + " exceeds cap " +
                        std::to_string(kMaxPrimeCount));
        }
        WireRelinKey rk;
        rk.levels.resize(level_count);
        for (WireRelinKey::Level &level : rk.levels) {
            const u32 digits = r.U32();
            if (digits > kMaxPrimeCount) {
                RaiseDecode("relin key digit count " +
                            std::to_string(digits) + " exceeds cap " +
                            std::to_string(kMaxPrimeCount));
            }
            level.b.reserve(digits);
            level.a.reserve(digits);
            for (u32 i = 0; i < digits; ++i) {
                level.b.push_back(GetPoly(r));
            }
            for (u32 i = 0; i < digits; ++i) {
                level.a.push_back(GetPoly(r));
            }
        }
        r.ExpectEnd();
        return rk;
    });
}

std::vector<u8>
EncodeStatus(const Status &status)
{
    std::vector<u8> out;
    Writer w(out);
    w.U8(static_cast<u8>(status.code()));
    w.Str(status.message());
    const std::vector<std::string> &frames = status.frames();
    w.U32(static_cast<u32>(frames.size()));
    for (const std::string &frame : frames) {
        w.Str(frame);
    }
    return out;
}

Result<WireStatus>
DecodeStatus(std::span<const u8> payload)
{
    return DecodeGuard<WireStatus>("serve::DecodeStatus", [&] {
        Reader r(payload);
        WireStatus ws;
        ws.code = r.U8();
        if (ws.code > static_cast<u8>(ErrorCode::kUnknown)) {
            RaiseDecode("unknown error code " + std::to_string(ws.code));
        }
        ws.message = r.Str();
        const u32 frame_count = r.U32();
        if (frame_count > kMaxStatusFrames) {
            RaiseDecode("status frame count " +
                        std::to_string(frame_count) + " exceeds cap");
        }
        ws.frames.reserve(frame_count);
        for (u32 i = 0; i < frame_count; ++i) {
            ws.frames.push_back(r.Str());
        }
        r.ExpectEnd();
        return ws;
    });
}

Status
WireStatusToStatus(const WireStatus &ws)
{
    ErrorCode code = static_cast<ErrorCode>(ws.code);
    if (code == ErrorCode::kOk) {
        code = ErrorCode::kInternal;
    }
    Status status(code, ws.message);
    for (const std::string &frame : ws.frames) {
        status = status.WithFrame(frame);
    }
    return status;
}

std::vector<u8>
EncodeStats(const WireStats &stats)
{
    std::vector<u8> out;
    Writer w(out);
    w.U64(stats.sessions_created);
    w.U64(stats.sessions_active);
    w.U64(stats.requests_submitted);
    w.U64(stats.requests_completed);
    w.U64(stats.requests_failed);
    w.U64(stats.batches_executed);
    w.U64(stats.coalesced_requests);
    w.U64(stats.max_batch_observed);
    return out;
}

Result<WireStats>
DecodeStats(std::span<const u8> payload)
{
    return DecodeGuard<WireStats>("serve::DecodeStats", [&] {
        Reader r(payload);
        WireStats s;
        s.sessions_created = r.U64();
        s.sessions_active = r.U64();
        s.requests_submitted = r.U64();
        s.requests_completed = r.U64();
        s.requests_failed = r.U64();
        s.batches_executed = r.U64();
        s.coalesced_requests = r.U64();
        s.max_batch_observed = r.U64();
        r.ExpectEnd();
        return s;
    });
}

std::vector<u8>
EncodeU64Payload(u64 value)
{
    std::vector<u8> out;
    Writer w(out);
    w.U64(value);
    return out;
}

Result<u64>
DecodeU64Payload(std::span<const u8> payload)
{
    return DecodeGuard<u64>("serve::DecodeU64Payload", [&] {
        Reader r(payload);
        const u64 value = r.U64();
        r.ExpectEnd();
        return value;
    });
}

// ---------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------

namespace {

inline constexpr std::size_t kFrameHeaderBytes = 6;

/** [u32 payload_len][u8 version][u8 type] of @p frame. */
std::array<u8, kFrameHeaderBytes>
FrameHeader(const Frame &frame)
{
    const u32 len = static_cast<u32>(frame.payload.size());
    return {static_cast<u8>(len), static_cast<u8>(len >> 8),
            static_cast<u8>(len >> 16), static_cast<u8>(len >> 24),
            frame.version, static_cast<u8>(frame.type)};
}

/** Validate a frame header ([u32 len][u8 version][u8 type]) — the one
 *  check both frame readers share — and return its payload length.
 *  kInvalidArgument on an oversized payload, an unsupported version
 *  or an unknown type, so neither reader allocates for a bad frame. */
Result<std::size_t>
CheckFrameHeader(std::span<const u8> header)
{
    u32 len = 0;
    for (int i = 0; i < 4; ++i) {
        len |= static_cast<u32>(header[i]) << (8 * i);
    }
    if (len > kMaxFramePayload) {
        return Status(ErrorCode::kInvalidArgument,
                      "frame payload of " + std::to_string(len) +
                          " bytes exceeds the " +
                          std::to_string(kMaxFramePayload) + " cap");
    }
    const u8 version = header[4];
    if (version < kMinProtocolVersion || version > kProtocolVersion) {
        return Status(ErrorCode::kInvalidArgument,
                      "unsupported protocol version " +
                          std::to_string(version) + " (this build "
                          "speaks " +
                          std::to_string(kMinProtocolVersion) + ".." +
                          std::to_string(kProtocolVersion) + ")");
    }
    if (!IsKnownFrameType(header[5])) {
        return Status(ErrorCode::kInvalidArgument,
                      "unknown frame type " + std::to_string(header[5]));
    }
    return static_cast<std::size_t>(len);
}

}  // namespace

std::vector<u8>
EncodeFrame(const Frame &frame)
{
    const std::array<u8, kFrameHeaderBytes> header = FrameHeader(frame);
    std::vector<u8> out(kFrameHeaderBytes + frame.payload.size());
    std::copy(header.begin(), header.end(), out.begin());
    std::copy(frame.payload.begin(), frame.payload.end(),
              out.begin() + kFrameHeaderBytes);
    return out;
}

Result<Frame>
DecodeFrameFromBuffer(std::span<const u8> data, std::size_t &consumed)
{
    consumed = 0;
    if (data.size() < kFrameHeaderBytes) {
        return Status(ErrorCode::kUnavailable, "frame header in flight");
    }
    Result<std::size_t> len = CheckFrameHeader(data);
    if (!len.ok()) {
        return len.status().WithFrame("serve::DecodeFrameFromBuffer");
    }
    if (data.size() < kFrameHeaderBytes + *len) {
        return Status(ErrorCode::kUnavailable, "frame payload in flight");
    }
    Frame frame;
    frame.version = data[4];
    frame.type = static_cast<FrameType>(data[5]);
    frame.payload.assign(data.begin() + kFrameHeaderBytes,
                         data.begin() + kFrameHeaderBytes + *len);
    consumed = kFrameHeaderBytes + *len;
    return frame;
}

// ---------------------------------------------------------------------
// Blocking fd I/O.
// ---------------------------------------------------------------------

namespace {

/** Send every byte @p iov describes (EINTR-safe, consuming @p iov as
 *  it goes). MSG_NOSIGNAL: a peer that vanished mid-reply must surface
 *  as an EPIPE Status on this connection, not a process-wide SIGPIPE
 *  (default action: kill the daemon) — which is why this is sendmsg
 *  and not writev, which takes no flags. */
Status
SendAll(int fd, std::span<iovec> iov, const char *where)
{
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = iov.size();
    std::size_t left = 0;
    for (const iovec &part : iov) {
        left += part.iov_len;
    }
    while (left > 0) {
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return Status(ErrorCode::kUnavailable,
                          std::string("write failed: ") +
                              std::strerror(errno))
                .WithFrame(where);
        }
        left -= static_cast<std::size_t>(n);
        // Skip what was sent: whole iovecs, then into a partial one.
        std::size_t sent = static_cast<std::size_t>(n);
        while (sent > 0 && sent >= msg.msg_iov->iov_len) {
            sent -= msg.msg_iov->iov_len;
            ++msg.msg_iov;
            --msg.msg_iovlen;
        }
        if (sent > 0) {
            msg.msg_iov->iov_base =
                static_cast<u8 *>(msg.msg_iov->iov_base) + sent;
            msg.msg_iov->iov_len -= sent;
        }
    }
    return Status::Ok();
}

}  // namespace

Status
WriteAll(int fd, std::span<const u8> data)
{
    iovec iov{const_cast<u8 *>(data.data()), data.size()};
    return SendAll(fd, {&iov, 1}, "serve::WriteAll");
}

Status
ReadAll(int fd, std::span<u8> data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::read(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return Status(ErrorCode::kUnavailable,
                          std::string("read failed: ") +
                              std::strerror(errno))
                .WithFrame("serve::ReadAll");
        }
        if (n == 0) {
            return Status(ErrorCode::kUnavailable,
                          off == 0 ? "peer closed the connection"
                                   : "peer closed mid-message")
                .WithFrame("serve::ReadAll");
        }
        off += static_cast<std::size_t>(n);
    }
    return Status::Ok();
}

Status
WriteFrame(int fd, const Frame &frame)
{
    if (frame.payload.size() > kMaxFramePayload) {
        return Status(ErrorCode::kInvalidArgument,
                      "refusing to send a frame of " +
                          std::to_string(frame.payload.size()) +
                          " bytes (cap " +
                          std::to_string(kMaxFramePayload) + ")")
            .WithFrame("serve::WriteFrame");
    }
    // Header and payload leave in one call without being copied into
    // one buffer first.
    std::array<u8, kFrameHeaderBytes> header = FrameHeader(frame);
    iovec iov[2] = {
        {header.data(), header.size()},
        {const_cast<u8 *>(frame.payload.data()), frame.payload.size()}};
    return SendAll(fd, iov, "serve::WriteFrame");
}

Result<Frame>
ReadFrame(int fd)
{
    u8 header[kFrameHeaderBytes];
    Status status = ReadAll(fd, header);
    if (!status.ok()) {
        return status.WithFrame("serve::ReadFrame");
    }
    Result<std::size_t> len = CheckFrameHeader(header);
    if (!len.ok()) {
        return len.status().WithFrame("serve::ReadFrame");
    }
    Frame frame;
    frame.version = header[4];
    frame.type = static_cast<FrameType>(header[5]);
    frame.payload.resize(*len);
    status = ReadAll(fd, frame.payload);
    if (!status.ok()) {
        return status.WithFrame("serve::ReadFrame");
    }
    return frame;
}

// ---------------------------------------------------------------------
// Handshake.
// ---------------------------------------------------------------------

namespace {

std::vector<u8>
HelloBytes(u64 magic, u32 version)
{
    std::vector<u8> out;
    Writer w(out);
    w.U64(magic);
    w.U32(version);
    return out;
}

Result<u32>
ReadHello(int fd, u64 expect_magic, const char *who)
{
    u8 bytes[12];
    Status status = ReadAll(fd, bytes);
    if (!status.ok()) {
        return status.WithFrame(who);
    }
    Reader r(bytes);
    const u64 magic = r.U64();
    const u32 version = r.U32();
    if (magic != expect_magic) {
        return Status(ErrorCode::kInvalidArgument,
                      "bad handshake magic: peer is not a hentt " +
                          std::string(expect_magic == kClientMagic
                                          ? "client"
                                          : "daemon"))
            .WithFrame(who);
    }
    return version;
}

Result<u32>
Negotiate(u32 theirs, const char *who)
{
    const u32 version = std::min(theirs, kProtocolVersion);
    if (version < kMinProtocolVersion) {
        return Status(ErrorCode::kInvalidArgument,
                      "peer protocol version " + std::to_string(theirs) +
                          " is below the minimum " +
                          std::to_string(kMinProtocolVersion))
            .WithFrame(who);
    }
    return version;
}

}  // namespace

Result<u32>
ClientHandshake(int fd)
{
    Status status =
        WriteAll(fd, HelloBytes(kClientMagic, kProtocolVersion));
    if (!status.ok()) {
        return status.WithFrame("serve::ClientHandshake");
    }
    Result<u32> theirs =
        ReadHello(fd, kDaemonMagic, "serve::ClientHandshake");
    if (!theirs.ok()) {
        return theirs.status();
    }
    return Negotiate(*theirs, "serve::ClientHandshake");
}

Result<u32>
DaemonHandshake(int fd)
{
    Result<u32> theirs =
        ReadHello(fd, kClientMagic, "serve::DaemonHandshake");
    if (!theirs.ok()) {
        return theirs.status();
    }
    Status status =
        WriteAll(fd, HelloBytes(kDaemonMagic, kProtocolVersion));
    if (!status.ok()) {
        return status.WithFrame("serve::DaemonHandshake");
    }
    return Negotiate(*theirs, "serve::DaemonHandshake");
}

}  // namespace hentt::serve
