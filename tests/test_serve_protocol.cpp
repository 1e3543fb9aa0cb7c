/**
 * @file
 * Property-based tests of the serving wire codec (serve/wire.h) and
 * the ciphertext codecs (serve/serde.h).
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
 * The ciphertext codecs over he::Ciphertext, which the request path
 * uses, must write the bytes of the same codecs over the Wire* structs
 * and decode them back against a small HE context; the adversarial
 * properties feed them the same attacks. An allocation failure inside
 * a decode against a context must escape as itself, not as a
 * malformed payload.
 *
 * Extended-depth runs (the pbt-extended CI leg) scale every property
 * through HENTT_PBT_CASES=xN like the other property suites.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "pbt.h"
#include "serve/serde.h"
#include "serve/wire.h"

// Allocation-failure injection: while g_fail_alloc_in is nonzero, the
// operator new call on this thread that counts it down to zero throws.
namespace {
thread_local std::size_t g_fail_alloc_in = 0;
}  // namespace

void *
operator new(std::size_t size)
{
    if (g_fail_alloc_in != 0 && --g_fail_alloc_in == 0) {
        throw std::bad_alloc();
    }
    if (void *p = std::malloc(size == 0 ? 1 : size)) {
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

/** The context the direct codec decodes against: N=16, 3 primes. */
const he::HeContext &
TestContext()
{
    static const std::shared_ptr<const he::HeContext> ctx = [] {
        he::HeParams params;
        params.degree = 16;
        params.prime_count = 3;
        params.prime_bits = 50;
        params.plain_modulus = 257;
        return std::make_shared<const he::HeContext>(params);
    }();
    return *ctx;
}

/** A poly valid for TestContext() at @p prime_count limbs: residues
 *  below p, or below 4p on a lazy evaluation-domain poly. */
WirePoly
RandomValidPoly(Xoshiro256 &rng, u32 prime_count)
{
    const he::HeContext &ctx = TestContext();
    WirePoly poly;
    poly.degree = ctx.degree();
    poly.prime_count = prime_count;
    poly.domain = static_cast<u8>(rng.NextBelow(2));
    poly.lazy = poly.domain == 1 ? static_cast<u8>(rng.NextBelow(2))
                                 : u8{0};
    const RnsBasis &basis = ctx.level_context(prime_count)->basis();
    for (u32 l = 0; l < prime_count; ++l) {
        const u64 bound = (poly.lazy != 0 ? 4 : 1) * basis.prime(l);
        for (u64 i = 0; i < poly.degree; ++i) {
            poly.words.push_back(rng.NextBelow(bound));
        }
    }
    return poly;
}

/** A 2- or 3-part ciphertext valid for TestContext(), all parts at one
 *  random level. */
WireCiphertext
RandomValidCiphertext(Xoshiro256 &rng)
{
    const u32 level = 1 + static_cast<u32>(rng.NextBelow(3));
    WireCiphertext ct;
    const std::size_t parts = 2 + rng.NextBelow(2);
    for (std::size_t i = 0; i < parts; ++i) {
        ct.parts.push_back(RandomValidPoly(rng, level));
    }
    return ct;
}

he::Ciphertext
ToCiphertext(const WireCiphertext &wct)
{
    Result<he::Ciphertext> ct = CiphertextFromWire(TestContext(), wct);
    EXPECT_TRUE(ct.ok()) << ct.status().ToString();
    return ct.ok() ? std::move(*ct) : he::Ciphertext{};
}

/** Random ops over @p inputs input slots, each referencing only
 *  earlier slots, and one output slot. */
void
RandomOps(Xoshiro256 &rng, std::size_t inputs,
          std::vector<WireProgram::Op> &ops, std::vector<u32> &outputs)
{
    const std::size_t op_count = rng.NextBelow(6);
    for (std::size_t i = 0; i < op_count; ++i) {
        WireProgram::Op op;
        op.op = static_cast<WireOp>(rng.NextBelow(6));
        const u32 limit = static_cast<u32>(inputs + i);
        op.a = static_cast<u32>(rng.NextBelow(limit));
        op.b = static_cast<u32>(rng.NextBelow(limit));
        ops.push_back(op);
    }
    outputs.push_back(
        static_cast<u32>(rng.NextBelow(inputs + op_count)));
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
    RandomOps(rng, inputs, program.ops, program.outputs);
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

HENTT_PBT_PROP(ServeProtocol, DirectCodecWritesTheWireCodecsBytes, 100,
               (hentt::Xoshiro256 &rng, hentt::u64))
{
    // The request path's codec must be a faster route to the same
    // bytes: its encoders against the Wire* encoders over ToWire, its
    // decoders against the values encoded.
    std::vector<he::Ciphertext> cts;
    WireProgram program;
    const std::size_t inputs = 1 + rng.NextBelow(3);
    for (std::size_t i = 0; i < inputs; ++i) {
        cts.push_back(ToCiphertext(RandomValidCiphertext(rng)));
        program.inputs.push_back(ToWire(cts.back()));
    }
    RandomOps(rng, inputs, program.ops, program.outputs);

    const std::vector<u8> bytes =
        EncodeProgram(cts, program.ops, program.outputs);
    EXPECT_EQ(bytes, EncodeProgram(program));
    Result<DecodedProgram> back = DecodeProgram(TestContext(), bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back->inputs.size(), cts.size());
    for (std::size_t i = 0; i < cts.size(); ++i) {
        EXPECT_TRUE(
            SameCiphertext(ToWire(back->inputs[i]), program.inputs[i]));
    }
    ASSERT_EQ(back->ops.size(), program.ops.size());
    for (std::size_t i = 0; i < program.ops.size(); ++i) {
        EXPECT_EQ(back->ops[i].op, program.ops[i].op);
        EXPECT_EQ(back->ops[i].a, program.ops[i].a);
        EXPECT_EQ(back->ops[i].b, program.ops[i].b);
    }
    EXPECT_EQ(back->outputs, program.outputs);

    const std::vector<u8> list = EncodeCiphertextList(cts);
    EXPECT_EQ(list, EncodeCiphertextList(program.inputs));
    Result<std::vector<he::Ciphertext>> list_back =
        DecodeCiphertextList(TestContext(), list);
    ASSERT_TRUE(list_back.ok()) << list_back.status().ToString();
    ASSERT_EQ(list_back->size(), cts.size());
    for (std::size_t i = 0; i < cts.size(); ++i) {
        EXPECT_TRUE(
            SameCiphertext(ToWire((*list_back)[i]), program.inputs[i]));
    }
}

HENTT_PBT_PROP(ServeProtocol, DirectDecodersRejectOutOfContractPolys, 200,
               (hentt::Xoshiro256 &rng, hentt::u64 case_index))
{
    // Well-formed bytes carrying a value the kernels must never see:
    // both direct decoders, and CiphertextFromWire, answer
    // kInvalidArgument for each.
    WireCiphertext wct = RandomValidCiphertext(rng);
    WirePoly &part = wct.parts[rng.NextBelow(wct.parts.size())];
    switch (case_index % 4) {
      case 0: {
        // A residue at or past its bound: p, or 4p on a lazy row.
        const u32 limb = static_cast<u32>(rng.NextBelow(part.prime_count));
        const u64 p = TestContext().level_context(3)->basis().prime(limb);
        const u64 bound = part.lazy != 0 ? 4 * p : p;
        part.words[limb * part.degree + rng.NextBelow(part.degree)] =
            bound + rng.NextBelow(p);
        break;
      }
      case 1:
        part.domain = 0;
        part.lazy = 1;
        break;
      case 2:
        // Another level for one part only.
        part = RandomValidPoly(rng, 1 + (part.prime_count % 3));
        break;
      default:
        part.degree = rng.NextBelow(2) == 0 ? 8 : 32;
        part.words.resize(part.degree * part.prime_count);
        break;
    }
    const auto rejected = [](const auto &result) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument)
            << result.status().ToString();
    };
    WireProgram program;
    program.inputs.push_back(wct);
    program.ops.push_back({WireOp::kAdd, 0, 0});
    program.outputs.push_back(1);
    rejected(DecodeProgram(TestContext(), EncodeProgram(program)));
    rejected(DecodeCiphertextList(TestContext(),
                                  EncodeCiphertextList({wct})));
    rejected(CiphertextFromWire(TestContext(), wct));
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
        CloseReader();
    }
    SocketPair(const SocketPair &) = delete;
    SocketPair &operator=(const SocketPair &) = delete;

    int writer() const { return fds_[0]; }
    int reader() const { return fds_[1]; }
    void CloseWriter() { Close(0); }
    void CloseReader() { Close(1); }

  private:
    void Close(int end)
    {
        if (fds_[end] >= 0) {
            ::close(fds_[end]);
            fds_[end] = -1;
        }
    }

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

TEST(ServeProtocol, WriteToAVanishedPeerReturnsUnavailable)
{
    // With the default SIGPIPE action a write that raised SIGPIPE would
    // kill this process; WriteFrame must answer a Status instead (the
    // daemon's connection threads rely on it).
    std::signal(SIGPIPE, SIG_DFL);
    SocketPair pair;
    pair.CloseReader();
    Frame frame;
    frame.type = FrameType::kDone;
    frame.payload.assign(4u << 20, 0x5a);
    const Status sent = WriteFrame(pair.writer(), frame);
    ASSERT_FALSE(sent.ok());
    EXPECT_EQ(sent.code(), ErrorCode::kUnavailable) << sent.ToString();
}

TEST(ServeProtocol, AllocationFailureInAContextDecodeKeepsItsCode)
{
    // Decoding against a context allocates the rows it fills. Failing
    // each of its allocations in turn must throw std::bad_alloc out of
    // the decoder (the daemon answers kResourceExhausted), never return
    // kInvalidArgument as if the payload were malformed.
    Xoshiro256 rng(27);
    const WireCiphertext wct = RandomValidCiphertext(rng);
    const std::vector<he::Ciphertext> cts = {ToCiphertext(wct)};
    const std::vector<u8> program =
        EncodeProgram(cts, {{WireOp::kAdd, 0, 0}}, {1});
    const std::vector<u8> list = EncodeCiphertextList(cts);
    const std::vector<std::function<Status()>> decoders = {
        [&] { return DecodeProgram(TestContext(), program).status(); },
        [&] { return DecodeCiphertextList(TestContext(), list).status(); },
        [&] { return CiphertextFromWire(TestContext(), wct).status(); },
    };
    for (std::size_t d = 0; d < decoders.size(); ++d) {
        std::size_t failed = 0;
        for (std::size_t nth = 1;; ++nth) {
            Status status;
            bool threw = false;
            g_fail_alloc_in = nth;
            try {
                status = decoders[d]();
            } catch (const std::bad_alloc &) {
                threw = true;
            }
            const bool fired = g_fail_alloc_in == 0;
            g_fail_alloc_in = 0;
            EXPECT_TRUE(status.ok())
                << "decoder " << d << ", allocation " << nth << ": "
                << status.ToString();
            EXPECT_EQ(threw, fired) << "decoder " << d << ", allocation "
                                    << nth;
            if (!fired) {
                break;
            }
            ++failed;
        }
        EXPECT_GT(failed, 0u) << "decoder " << d << " never allocated";
    }
}

// ------------------------------------------------------ adversarial bytes

HENTT_PBT_PROP(ServeProtocol, TruncatedPayloadsFailCleanly, 420,
               (hentt::Xoshiro256 &rng, hentt::u64 case_index))
{
    // Build one valid payload of each kind, cut it anywhere, and
    // require a clean kInvalidArgument from every decoder.
    std::vector<u8> payload;
    std::vector<he::Ciphertext> cts;
    switch (case_index % 7) {
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
      case 4:
        payload = EncodeStats(WireStats{});
        break;
      case 5:
        cts.push_back(ToCiphertext(RandomValidCiphertext(rng)));
        payload = EncodeProgram(cts, {{WireOp::kMul, 0, 0}}, {1});
        break;
      default:
        cts.push_back(ToCiphertext(RandomValidCiphertext(rng)));
        payload = EncodeCiphertextList(cts);
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
    switch (case_index % 7) {
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
      case 4:
        check(DecodeStats(prefix));
        break;
      case 5:
        check(DecodeProgram(TestContext(), prefix));
        break;
      default:
        check(DecodeCiphertextList(TestContext(), prefix));
        break;
    }
}

HENTT_PBT_PROP(ServeProtocol, RandomBytesNeverCrashDecoders, 625,
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
    switch (case_index % 10) {
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
      case 7:
        check(DecodeCiphertextList(bytes));
        break;
      case 8:
        check(DecodeProgram(TestContext(), bytes));
        break;
      default:
        check(DecodeCiphertextList(TestContext(), bytes));
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
    // The direct decoder takes the same bytes, and a mutated program
    // valid for its context, whose flips also reach residues, levels
    // and lazy flags.
    const auto check = [](const auto &result) {
        if (!result.ok()) {
            EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument)
                << result.status().ToString();
        }
    };
    check(DecodeProgram(TestContext(), bytes));
    program.inputs = {RandomValidCiphertext(rng)};
    bytes = EncodeProgram(program);
    for (std::size_t i = 0; i < flips; ++i) {
        bytes[rng.NextBelow(bytes.size())] ^=
            static_cast<u8>(1 + rng.NextBelow(255));
    }
    check(DecodeProgram(bytes));
    check(DecodeProgram(TestContext(), bytes));
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
