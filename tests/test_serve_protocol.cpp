/**
 * @file
 * Property-based tests of the serving wire codec (serve/wire.h).
 *
 * The codec's contract: any byte string either decodes into a valid
 * message or fails with kInvalidArgument (incomplete frame buffers:
 * kUnavailable) — never a crash, never an over-read, never a foreign
 * exception. The properties drive it from both sides: round-trip every
 * message and frame type through encode→decode and compare; then
 * attack every encoder's output with truncation, bit flips, bad
 * lengths, bad versions, and raw random bytes, asserting the failure
 * taxonomy holds case by case.
 *
 * Extended-depth runs (the pbt-extended CI leg) scale every property
 * through HENTT_PBT_CASES=xN like the other property suites.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "pbt.h"
#include "serve/wire.h"

namespace hentt::serve {
namespace {

// ------------------------------------------------------------ generators

WirePoly
RandomPoly(Xoshiro256 &rng)
{
    WirePoly poly;
    poly.degree = 1 + rng.NextBelow(16);
    poly.prime_count = 1 + static_cast<u32>(rng.NextBelow(4));
    poly.domain = static_cast<u8>(rng.NextBelow(2));
    poly.lazy = poly.domain == 1 ? static_cast<u8>(rng.NextBelow(2))
                                 : u8{0};
    poly.words.resize(poly.degree * poly.prime_count);
    for (u64 &w : poly.words) {
        w = rng.Next();
    }
    return poly;
}

WireCiphertext
RandomCiphertext(Xoshiro256 &rng)
{
    WireCiphertext ct;
    const std::size_t parts = 2 + rng.NextBelow(2);
    for (std::size_t i = 0; i < parts; ++i) {
        ct.parts.push_back(RandomPoly(rng));
    }
    return ct;
}

std::string
RandomString(Xoshiro256 &rng, std::size_t max_len)
{
    std::string s(rng.NextBelow(max_len + 1), '\0');
    for (char &c : s) {
        c = static_cast<char>('a' + rng.NextBelow(26));
    }
    return s;
}

bool
SamePoly(const WirePoly &x, const WirePoly &y)
{
    return x.degree == y.degree && x.prime_count == y.prime_count &&
           x.domain == y.domain && x.lazy == y.lazy &&
           x.words == y.words;
}

bool
SameCiphertext(const WireCiphertext &x, const WireCiphertext &y)
{
    if (x.parts.size() != y.parts.size()) {
        return false;
    }
    for (std::size_t i = 0; i < x.parts.size(); ++i) {
        if (!SamePoly(x.parts[i], y.parts[i])) {
            return false;
        }
    }
    return true;
}

// ----------------------------------------------------- message round trips

HENTT_PBT_PROP(ServeProtocol, ParamsRoundTrip, 200,
               (hentt::Xoshiro256 &rng, hentt::u64))
{
    WireParams params;
    params.degree = rng.NextBelow(kMaxDegree + 1);
    params.prime_count = rng.NextBelow(kMaxPrimeCount + 1);
    params.prime_bits = static_cast<u32>(rng.Next());
    params.plain_modulus = rng.Next();
    params.noise_stddev_bits = rng.Next();
    Result<WireParams> out = DecodeParams(EncodeParams(params));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->degree, params.degree);
    EXPECT_EQ(out->prime_count, params.prime_count);
    EXPECT_EQ(out->prime_bits, params.prime_bits);
    EXPECT_EQ(out->plain_modulus, params.plain_modulus);
    EXPECT_EQ(out->noise_stddev_bits, params.noise_stddev_bits);
}

HENTT_PBT_PROP(ServeProtocol, PolyRoundTrip, 200,
               (hentt::Xoshiro256 &rng, hentt::u64))
{
    const WirePoly poly = RandomPoly(rng);
    Result<WirePoly> out = DecodePoly(EncodePoly(poly));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(SamePoly(*out, poly));
}

HENTT_PBT_PROP(ServeProtocol, CiphertextRoundTrip, 100,
               (hentt::Xoshiro256 &rng, hentt::u64))
{
    const WireCiphertext ct = RandomCiphertext(rng);
    Result<WireCiphertext> out = DecodeCiphertext(EncodeCiphertext(ct));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(SameCiphertext(*out, ct));
}

HENTT_PBT_PROP(ServeProtocol, RelinKeyRoundTrip, 50,
               (hentt::Xoshiro256 &rng, hentt::u64))
{
    WireRelinKey rk;
    const std::size_t levels = 1 + rng.NextBelow(3);
    for (std::size_t l = 1; l <= levels; ++l) {
        WireRelinKey::Level level;
        for (std::size_t d = 0; d < l; ++d) {
            level.b.push_back(RandomPoly(rng));
            level.a.push_back(RandomPoly(rng));
        }
        rk.levels.push_back(std::move(level));
    }
    Result<WireRelinKey> out = DecodeRelinKey(EncodeRelinKey(rk));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->levels.size(), rk.levels.size());
    for (std::size_t l = 0; l < rk.levels.size(); ++l) {
        ASSERT_EQ(out->levels[l].b.size(), rk.levels[l].b.size());
        ASSERT_EQ(out->levels[l].a.size(), rk.levels[l].a.size());
        for (std::size_t d = 0; d < rk.levels[l].b.size(); ++d) {
            EXPECT_TRUE(
                SamePoly(out->levels[l].b[d], rk.levels[l].b[d]));
            EXPECT_TRUE(
                SamePoly(out->levels[l].a[d], rk.levels[l].a[d]));
        }
    }
}

HENTT_PBT_PROP(ServeProtocol, ProgramRoundTrip, 200,
               (hentt::Xoshiro256 &rng, hentt::u64))
{
    WireProgram program;
    const std::size_t inputs = 1 + rng.NextBelow(3);
    for (std::size_t i = 0; i < inputs; ++i) {
        program.inputs.push_back(RandomCiphertext(rng));
    }
    const std::size_t op_count = rng.NextBelow(6);
    for (std::size_t i = 0; i < op_count; ++i) {
        WireProgram::Op op;
        op.op = static_cast<WireOp>(rng.NextBelow(6));
        // Valid slot references only: earlier slots.
        const u32 limit = static_cast<u32>(inputs + i);
        op.a = static_cast<u32>(rng.NextBelow(limit));
        op.b = static_cast<u32>(rng.NextBelow(limit));
        program.ops.push_back(op);
    }
    const u32 slots = static_cast<u32>(inputs + op_count);
    program.outputs.push_back(static_cast<u32>(rng.NextBelow(slots)));
    Result<WireProgram> out = DecodeProgram(EncodeProgram(program));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->inputs.size(), program.inputs.size());
    ASSERT_EQ(out->ops.size(), program.ops.size());
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        EXPECT_EQ(out->ops[i].op, program.ops[i].op);
        EXPECT_EQ(out->ops[i].a, program.ops[i].a);
        EXPECT_EQ(out->ops[i].b, program.ops[i].b);
    }
    EXPECT_EQ(out->outputs, program.outputs);
}

HENTT_PBT_PROP(ServeProtocol, StatusRoundTrip, 200,
               (hentt::Xoshiro256 &rng, hentt::u64))
{
    // A Status with random code, message, and provenance chain must
    // cross the wire intact — that is the error contract the daemon
    // relies on (the client sees the daemon's own provenance).
    const ErrorCode code = static_cast<ErrorCode>(
        1 + rng.NextBelow(static_cast<u64>(ErrorCode::kUnknown)));
    Status status(code, RandomString(rng, 40));
    const std::size_t frames = rng.NextBelow(4);
    for (std::size_t i = 0; i < frames; ++i) {
        status = status.WithFrame(RandomString(rng, 20));
    }
    Result<WireStatus> ws = DecodeStatus(EncodeStatus(status));
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    const Status back = WireStatusToStatus(*ws);
    EXPECT_EQ(back.code(), status.code());
    EXPECT_EQ(back.message(), status.message());
    EXPECT_EQ(back.frames(), status.frames());
}

HENTT_PBT_PROP(ServeProtocol, StatsRoundTrip, 100,
               (hentt::Xoshiro256 &rng, hentt::u64))
{
    WireStats stats;
    stats.sessions_created = rng.Next();
    stats.sessions_active = rng.Next();
    stats.requests_submitted = rng.Next();
    stats.requests_completed = rng.Next();
    stats.requests_failed = rng.Next();
    stats.batches_executed = rng.Next();
    stats.coalesced_requests = rng.Next();
    stats.max_batch_observed = rng.Next();
    Result<WireStats> out = DecodeStats(EncodeStats(stats));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->sessions_created, stats.sessions_created);
    EXPECT_EQ(out->sessions_active, stats.sessions_active);
    EXPECT_EQ(out->requests_submitted, stats.requests_submitted);
    EXPECT_EQ(out->requests_completed, stats.requests_completed);
    EXPECT_EQ(out->requests_failed, stats.requests_failed);
    EXPECT_EQ(out->batches_executed, stats.batches_executed);
    EXPECT_EQ(out->coalesced_requests, stats.coalesced_requests);
    EXPECT_EQ(out->max_batch_observed, stats.max_batch_observed);
}

// ------------------------------------------------------- frame round trips

HENTT_PBT_PROP(ServeProtocol, FrameRoundTripEveryType, 200,
               (hentt::Xoshiro256 &rng, hentt::u64 case_index))
{
    // Cycle through every known frame type with a random payload; the
    // frame codec is payload-agnostic, so any bytes must survive.
    Frame frame;
    frame.type = static_cast<FrameType>(
        1 + case_index % static_cast<u64>(FrameType::kStatsReply));
    frame.payload.resize(rng.NextBelow(64));
    for (u8 &b : frame.payload) {
        b = static_cast<u8>(rng.Next());
    }
    const std::vector<u8> bytes = EncodeFrame(frame);
    std::size_t consumed = 0;
    Result<Frame> out = DecodeFrameFromBuffer(bytes, consumed);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(out->version, frame.version);
    EXPECT_EQ(out->type, frame.type);
    EXPECT_EQ(out->payload, frame.payload);
}

HENTT_PBT_PROP(ServeProtocol, TruncatedFrameIsIncompleteNotFatal, 200,
               (hentt::Xoshiro256 &rng, hentt::u64))
{
    Frame frame;
    frame.type = FrameType::kPing;
    frame.payload.resize(1 + rng.NextBelow(64));
    for (u8 &b : frame.payload) {
        b = static_cast<u8>(rng.Next());
    }
    const std::vector<u8> bytes = EncodeFrame(frame);
    // Every strict prefix is "still in flight": kUnavailable, so a
    // stream reader waits for the rest instead of dropping the peer.
    const std::size_t cut = rng.NextBelow(bytes.size());
    const std::vector<u8> prefix(bytes.begin(), bytes.begin() + cut);
    std::size_t consumed = 0;
    Result<Frame> out = DecodeFrameFromBuffer(prefix, consumed);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), ErrorCode::kUnavailable);
}

TEST(ServeProtocol, OversizedFrameLengthRejected)
{
    // Header claiming a payload over the cap: must be invalid, not an
    // attempted 4 GiB allocation.
    std::vector<u8> bytes(6, 0);
    const u32 len = static_cast<u32>(kMaxFramePayload) + 1;
    bytes[0] = static_cast<u8>(len);
    bytes[1] = static_cast<u8>(len >> 8);
    bytes[2] = static_cast<u8>(len >> 16);
    bytes[3] = static_cast<u8>(len >> 24);
    bytes[4] = kProtocolVersion;
    bytes[5] = static_cast<u8>(FrameType::kPing);
    std::size_t consumed = 0;
    Result<Frame> out = DecodeFrameFromBuffer(bytes, consumed);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ServeProtocol, WrongVersionRejected)
{
    Frame frame;
    frame.type = FrameType::kPing;
    std::vector<u8> bytes = EncodeFrame(frame);
    bytes[4] = kProtocolVersion + 1;  // above what this build speaks
    std::size_t consumed = 0;
    Result<Frame> out = DecodeFrameFromBuffer(bytes, consumed);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), ErrorCode::kInvalidArgument);

    bytes[4] = 0;  // below the minimum
    Result<Frame> below = DecodeFrameFromBuffer(bytes, consumed);
    ASSERT_FALSE(below.ok());
    EXPECT_EQ(below.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ServeProtocol, UnknownFrameTypeRejected)
{
    Frame frame;
    frame.type = FrameType::kPing;
    std::vector<u8> bytes = EncodeFrame(frame);
    bytes[5] = 0;  // no frame type 0
    std::size_t consumed = 0;
    Result<Frame> zero = DecodeFrameFromBuffer(bytes, consumed);
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.status().code(), ErrorCode::kInvalidArgument);

    bytes[5] = static_cast<u8>(FrameType::kStatsReply) + 1;
    Result<Frame> high = DecodeFrameFromBuffer(bytes, consumed);
    ASSERT_FALSE(high.ok());
    EXPECT_EQ(high.status().code(), ErrorCode::kInvalidArgument);
}

// ------------------------------------------------------- frames over an fd

/** A connected AF_UNIX stream pair, closed on scope exit. */
class SocketPair
{
  public:
    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    }
    ~SocketPair()
    {
        CloseWriter();
        ::close(fds_[1]);
    }
    SocketPair(const SocketPair &) = delete;
    SocketPair &operator=(const SocketPair &) = delete;

    int writer() const { return fds_[0]; }
    int reader() const { return fds_[1]; }
    void CloseWriter()
    {
        if (fds_[0] >= 0) {
            ::close(fds_[0]);
            fds_[0] = -1;
        }
    }

  private:
    int fds_[2] = {-1, -1};
};

TEST(ServeProtocol, MultiMegabyteFrameCrossesAnFd)
{
    // Larger than any socket buffer, so WriteFrame blocks until the
    // concurrent reader drains it and ReadFrame sees partial reads.
    SocketPair pair;
    Frame frame;
    frame.type = FrameType::kDone;
    frame.payload.resize(4u << 20);
    Xoshiro256 rng(7);
    for (u8 &b : frame.payload) {
        b = static_cast<u8>(rng.Next());
    }
    Status sent;
    std::thread writer([&] { sent = WriteFrame(pair.writer(), frame); });
    Result<Frame> got = ReadFrame(pair.reader());
    writer.join();
    ASSERT_TRUE(sent.ok()) << sent.ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->type, frame.type);
    EXPECT_EQ(got->version, frame.version);
    EXPECT_TRUE(got->payload == frame.payload);
}

TEST(ServeProtocol, ZeroLengthFrameCrossesAnFd)
{
    SocketPair pair;
    Frame frame;
    frame.type = FrameType::kPing;
    ASSERT_TRUE(WriteFrame(pair.writer(), frame).ok());
    Result<Frame> got = ReadFrame(pair.reader());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->type, FrameType::kPing);
    EXPECT_TRUE(got->payload.empty());
}

TEST(ServeProtocol, OverCapLengthRejectedFromTheHeaderAlone)
{
    // Only the 6 header bytes arrive, then the peer closes. A reader
    // that sized and read a payload first would report the close
    // (kUnavailable); the header check must answer kInvalidArgument.
    SocketPair pair;
    const u32 len = static_cast<u32>(kMaxFramePayload) + 1;
    const u8 header[6] = {static_cast<u8>(len),
                          static_cast<u8>(len >> 8),
                          static_cast<u8>(len >> 16),
                          static_cast<u8>(len >> 24),
                          static_cast<u8>(kProtocolVersion),
                          static_cast<u8>(FrameType::kPing)};
    ASSERT_TRUE(WriteAll(pair.writer(), header).ok());
    pair.CloseWriter();
    Result<Frame> got = ReadFrame(pair.reader());
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kInvalidArgument)
        << got.status().ToString();
}

// ------------------------------------------------------ adversarial bytes

HENTT_PBT_PROP(ServeProtocol, TruncatedPayloadsFailCleanly, 300,
               (hentt::Xoshiro256 &rng, hentt::u64 case_index))
{
    // Build one valid payload of each kind, cut it anywhere, and
    // require a clean kInvalidArgument from every decoder.
    std::vector<u8> payload;
    switch (case_index % 5) {
      case 0: {
        WireParams params;
        params.degree = 64;
        params.prime_count = 3;
        params.prime_bits = 50;
        params.plain_modulus = 257;
        payload = EncodeParams(params);
        break;
      }
      case 1:
        payload = EncodePoly(RandomPoly(rng));
        break;
      case 2:
        payload = EncodeCiphertext(RandomCiphertext(rng));
        break;
      case 3: {
        payload = EncodeStatus(
            Status(ErrorCode::kInternal, "boom").WithFrame("inner"));
        break;
      }
      default:
        payload = EncodeStats(WireStats{});
        break;
    }
    ASSERT_FALSE(payload.empty());
    const std::size_t cut = rng.NextBelow(payload.size());
    const std::vector<u8> prefix(payload.begin(),
                                 payload.begin() + cut);

    const auto check = [](const auto &result) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(),
                  ErrorCode::kInvalidArgument)
            << result.status().ToString();
    };
    switch (case_index % 5) {
      case 0:
        check(DecodeParams(prefix));
        break;
      case 1:
        check(DecodePoly(prefix));
        break;
      case 2:
        check(DecodeCiphertext(prefix));
        break;
      case 3:
        check(DecodeStatus(prefix));
        break;
      default:
        check(DecodeStats(prefix));
        break;
    }
}

HENTT_PBT_PROP(ServeProtocol, RandomBytesNeverCrashDecoders, 500,
               (hentt::Xoshiro256 &rng, hentt::u64 case_index))
{
    // Fully random payload bytes: every decoder must return ok or
    // kInvalidArgument — no crash, no foreign exception, no over-read
    // (ASan on the CI sanitizer leg turns an over-read into a failure
    // here).
    std::vector<u8> bytes(rng.NextBelow(128));
    for (u8 &b : bytes) {
        b = static_cast<u8>(rng.Next());
    }
    const auto check = [](const auto &result) {
        if (!result.ok()) {
            EXPECT_EQ(result.status().code(),
                      ErrorCode::kInvalidArgument)
                << result.status().ToString();
        }
    };
    switch (case_index % 8) {
      case 0:
        check(DecodeParams(bytes));
        break;
      case 1:
        check(DecodePoly(bytes));
        break;
      case 2:
        check(DecodeCiphertext(bytes));
        break;
      case 3:
        check(DecodeRelinKey(bytes));
        break;
      case 4:
        check(DecodeProgram(bytes));
        break;
      case 5:
        check(DecodeStatus(bytes));
        break;
      case 6:
        check(DecodeStats(bytes));
        break;
      default:
        check(DecodeCiphertextList(bytes));
        break;
    }
}

HENTT_PBT_PROP(ServeProtocol, MutatedProgramNeverCrashes, 300,
               (hentt::Xoshiro256 &rng, hentt::u64))
{
    // Structure-aware attack: take a valid program encoding and flip
    // bytes. The decoder may accept (the flip hit payload words) or
    // reject with kInvalidArgument (it hit a length, an opcode, or a
    // slot reference) — nothing else.
    WireProgram program;
    program.inputs.push_back(RandomCiphertext(rng));
    program.ops.push_back({WireOp::kMul, 0, 0});
    program.ops.push_back({WireOp::kRelin, 1, 0});
    program.outputs.push_back(2);
    std::vector<u8> bytes = EncodeProgram(program);
    const std::size_t flips = 1 + rng.NextBelow(4);
    for (std::size_t i = 0; i < flips; ++i) {
        bytes[rng.NextBelow(bytes.size())] ^=
            static_cast<u8>(1 + rng.NextBelow(255));
    }
    Result<WireProgram> out = DecodeProgram(bytes);
    if (!out.ok()) {
        EXPECT_EQ(out.status().code(), ErrorCode::kInvalidArgument)
            << out.status().ToString();
    }
}

TEST(ServeProtocol, ProgramRejectsForwardSlotReferences)
{
    // An op referencing its own or a later slot breaks the DAG
    // contract and must be rejected at decode time.
    WireProgram program;
    Xoshiro256 rng(3);
    program.inputs.push_back(RandomCiphertext(rng));
    program.ops.push_back({WireOp::kAdd, 1, 0});  // slot 1 = itself
    program.outputs.push_back(1);
    Result<WireProgram> out = DecodeProgram(EncodeProgram(program));
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), ErrorCode::kInvalidArgument);
}

TEST(ServeProtocol, TrailingGarbageRejected)
{
    std::vector<u8> payload = EncodeU64Payload(42);
    payload.push_back(0);
    Result<u64> out = DecodeU64Payload(payload);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace hentt::serve
