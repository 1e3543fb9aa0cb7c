/**
 * @file
 * The hentt serving wire protocol: versioned, length-prefixed binary
 * frames over a byte stream (in practice a unix-domain socket).
 *
 * Modeled on the Nix daemon/worker protocol: a raw magic + version
 * handshake first (both sides learn the negotiated version before any
 * frame flows), then length-prefixed frames each tagged with the
 * protocol version and a frame type. Every reply the daemon can send —
 * including every failure — is a frame; a malformed request earns a
 * kError frame carrying the full Status (code, message, provenance
 * chain), never a dropped connection.
 *
 * Layering: this file is the *codec* — pure bytes-to-structs and back,
 * no sockets, no HE context. Message payloads decode into
 * self-contained Wire* structs (plain integers and word vectors), so
 * the codec is property-testable in isolation: any byte string either
 * decodes cleanly or fails with kInvalidArgument, with every read
 * bounds-checked (no over-read, no crash). serve/serde.h converts
 * Wire* structs to real HE types against a context; serve/wire_io.h
 * (below in this header) moves frames over file descriptors.
 */

#ifndef HENTT_SERVE_WIRE_H
#define HENTT_SERVE_WIRE_H

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/int128.h"
#include "common/status.h"

namespace hentt::serve {

// ---------------------------------------------------------------------
// Protocol constants.
// ---------------------------------------------------------------------

/** Client-hello magic ("hentt!cl" LE) opening the handshake. */
inline constexpr u64 kClientMagic = 0x6c632174746e6568ull;
/** Daemon-hello magic ("hentt!sv" LE) answering it. */
inline constexpr u64 kDaemonMagic = 0x76732174746e6568ull;

/** Highest protocol version this build speaks. */
inline constexpr u32 kProtocolVersion = 1;
/** Lowest protocol version this build still accepts. */
inline constexpr u32 kMinProtocolVersion = 1;

/** Hard cap on one frame's payload (a full 512-session ciphertext
 *  batch at bench parameters fits with two orders of magnitude to
 *  spare; anything larger is a protocol error, not a request). */
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

/** Decode-time sanity caps (each violation is kInvalidArgument). */
inline constexpr std::size_t kMaxDegree = 1u << 20;
inline constexpr std::size_t kMaxPrimeCount = 64;
inline constexpr std::size_t kMaxCiphertextParts = 8;
inline constexpr std::size_t kMaxProgramOps = 1u << 20;
inline constexpr std::size_t kMaxStringBytes = 64u << 10;
inline constexpr std::size_t kMaxStatusFrames = 256;

/** Frame types. Requests flow client→daemon, replies daemon→client. */
enum class FrameType : u8 {
    kCreateSession = 1,   ///< HeParams → kSessionCreated | kError
    kSessionCreated = 2,  ///< session id
    kLoadKeys = 3,        ///< WireRelinKey → kOk | kError
    kOk = 4,              ///< empty success reply
    kSubmitGraph = 5,     ///< WireProgram → kSubmitted | kError
    kSubmitted = 6,       ///< request id (evaluation is async)
    kPoll = 7,            ///< request id → kPending | kDone | kError
    kPending = 8,         ///< request still queued/executing
    kDone = 9,            ///< program outputs (ciphertexts)
    kError = 10,          ///< WireStatus: code + message + provenance
    kCloseSession = 11,   ///< → kOk (releases session state)
    kShutdown = 12,       ///< → kOk, then the daemon stops
    kPing = 13,           ///< → kPong (liveness)
    kPong = 14,
    kGetStats = 15,       ///< → kStatsReply
    kStatsReply = 16,     ///< WireStats
};

/** Display name ("CreateSession", "Error", ...). */
const char *FrameTypeName(FrameType type);

/** One protocol frame: version + type + opaque payload bytes. */
struct Frame {
    u8 version = kProtocolVersion;
    FrameType type = FrameType::kError;
    std::vector<u8> payload;
};

// ---------------------------------------------------------------------
// Wire message structs — self-contained (no HE context needed).
// ---------------------------------------------------------------------

/** HeParams on the wire (CreateSession payload). noise_stddev travels
 *  by bit pattern so client and daemon agree exactly. */
struct WireParams {
    u64 degree = 0;
    u64 prime_count = 0;
    u32 prime_bits = 0;
    u64 plain_modulus = 0;
    u64 noise_stddev_bits = 0;
};

/** One RNS polynomial: shape + domain tag + limb-major words. */
struct WirePoly {
    u64 degree = 0;
    u32 prime_count = 0;
    u8 domain = 0;  ///< 0 coefficient, 1 evaluation
    u8 lazy = 0;
    std::vector<u64> words;  ///< prime_count x degree, limb-major
};

/** Ciphertext: 2 or 3 parts (degree 1 or 2). */
struct WireCiphertext {
    std::vector<WirePoly> parts;
};

/** Relinearization key: per level, the b and a digit polynomials. */
struct WireRelinKey {
    struct Level {
        std::vector<WirePoly> b;
        std::vector<WirePoly> a;
    };
    std::vector<Level> levels;
};

/** Program opcodes (slot-machine form of the HeOpGraph ops). */
enum class WireOp : u8 {
    kAdd = 0,
    kSub = 1,
    kMul = 2,
    kRelin = 3,
    kModSwitch = 4,
    kRelinModSwitch = 5,
};

/**
 * An evaluation request: input ciphertexts, ops over slots, and which
 * slots to return. Slot s < inputs.size() names an input; slot
 * inputs.size() + k names op k's result. Ops may only reference
 * earlier slots (a DAG by construction).
 */
struct WireProgram {
    struct Op {
        WireOp op;
        u32 a = 0;
        u32 b = 0;  ///< ignored by single-operand ops
    };
    std::vector<WireCiphertext> inputs;
    std::vector<Op> ops;
    std::vector<u32> outputs;  ///< slot indices to send back in kDone
};

/** Status on the wire (kError payload): code + message + provenance. */
struct WireStatus {
    u8 code = 0;  ///< ErrorCode as integer
    std::string message;
    std::vector<std::string> frames;  ///< innermost first
};

/** Daemon counters (kStatsReply payload). The batching observability
 *  hook: tests assert coalescing happened from these. */
struct WireStats {
    u64 sessions_created = 0;
    u64 sessions_active = 0;
    u64 requests_submitted = 0;
    u64 requests_completed = 0;
    u64 requests_failed = 0;
    u64 batches_executed = 0;
    u64 coalesced_requests = 0;  ///< requests that shared a batch
    u64 max_batch_observed = 0;  ///< largest requests-per-batch yet
};

// ---------------------------------------------------------------------
// Bounds-checked primitive codec.
// ---------------------------------------------------------------------

/**
 * Little-endian appender for payload construction. Append-only; the
 * buffer is the caller's (so one reply reuses one allocation).
 */
class Writer
{
  public:
    explicit Writer(std::vector<u8> &out) : out_(out) {}

    void U8(u8 v) { out_.push_back(v); }
    void U32(u32 v);
    void U64(u64 v);
    void Str(const std::string &s);         ///< u32 length + bytes
    void Words(std::span<const u64> words); ///< u64 count + words

  private:
    std::vector<u8> &out_;
};

/**
 * Bounds-checked little-endian cursor over a payload. Every read past
 * the end throws kInvalidArgument (via the Status exception bridge) —
 * decoders built on it can never over-read a malformed frame. The
 * frame-level Decode* helpers below catch and return Result instead.
 */
class Reader
{
  public:
    explicit Reader(std::span<const u8> data) : data_(data) {}

    u8 U8();
    u32 U32();
    u64 U64();
    std::string Str(std::size_t max_bytes = kMaxStringBytes);
    std::vector<u64> Words(std::size_t max_words);

    std::size_t remaining() const { return data_.size() - pos_; }

    /** Throws kInvalidArgument unless the payload was fully consumed —
     *  trailing garbage means a mis-framed or corrupt message. */
    void ExpectEnd() const;

  private:
    void Need(std::size_t bytes) const;

    std::span<const u8> data_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Message codecs. Encode* builds a payload; Decode* parses one and
// returns kInvalidArgument on any malformation (truncation, trailing
// bytes, out-of-range shape) — never throws, never over-reads.
// ---------------------------------------------------------------------

std::vector<u8> EncodeParams(const WireParams &params);
[[nodiscard]] Result<WireParams>
DecodeParams(std::span<const u8> payload);

std::vector<u8> EncodePoly(const WirePoly &poly);
[[nodiscard]] Result<WirePoly> DecodePoly(std::span<const u8> payload);

std::vector<u8> EncodeCiphertext(const WireCiphertext &ct);
[[nodiscard]] Result<WireCiphertext>
DecodeCiphertext(std::span<const u8> payload);

std::vector<u8> EncodeRelinKey(const WireRelinKey &rk);
[[nodiscard]] Result<WireRelinKey>
DecodeRelinKey(std::span<const u8> payload);

std::vector<u8> EncodeProgram(const WireProgram &program);
[[nodiscard]] Result<WireProgram>
DecodeProgram(std::span<const u8> payload);

std::vector<u8> EncodeStatus(const Status &status);
[[nodiscard]] Result<WireStatus>
DecodeStatus(std::span<const u8> payload);

std::vector<u8> EncodeStats(const WireStats &stats);
[[nodiscard]] Result<WireStats>
DecodeStats(std::span<const u8> payload);

std::vector<u8> EncodeU64Payload(u64 value);
[[nodiscard]] Result<u64> DecodeU64Payload(std::span<const u8> payload);

/** kDone payload: the requested output ciphertexts in order. */
std::vector<u8>
EncodeCiphertextList(const std::vector<WireCiphertext> &cts);
[[nodiscard]] Result<std::vector<WireCiphertext>>
DecodeCiphertextList(std::span<const u8> payload);

/** Reassemble a WireStatus into a Status (kOk code maps to an
 *  kInternal error — an Error frame must carry an error). */
Status WireStatusToStatus(const WireStatus &ws);

// ---------------------------------------------------------------------
// Frame codec over byte buffers (testable without sockets).
// ---------------------------------------------------------------------

/** Serialize a frame: [u32 payload_len][u8 version][u8 type][payload]. */
std::vector<u8> EncodeFrame(const Frame &frame);

/**
 * Parse one frame from the front of @p data. On success sets
 * @p consumed to the bytes eaten. An incomplete buffer (header or
 * payload still in flight) returns kUnavailable — the stream reader
 * waits for more bytes; a structurally invalid one (oversized payload,
 * unknown type, unsupported version) returns kInvalidArgument.
 */
[[nodiscard]] Result<Frame>
DecodeFrameFromBuffer(std::span<const u8> data, std::size_t &consumed);

// ---------------------------------------------------------------------
// Blocking frame / handshake I/O over file descriptors.
// ---------------------------------------------------------------------

/** Write all of @p data to @p fd (EINTR-safe). kUnavailable on a
 *  closed/failed peer. */
[[nodiscard]] Status WriteAll(int fd, std::span<const u8> data);

/** Read exactly @p data.size() bytes (EINTR-safe). kUnavailable on
 *  EOF or error. */
[[nodiscard]] Status ReadAll(int fd, std::span<u8> data);

/** Write one frame. */
[[nodiscard]] Status WriteFrame(int fd, const Frame &frame);

/**
 * Read one frame. kUnavailable when the peer closed cleanly between
 * frames; kInvalidArgument on malformed framing (the caller should
 * report and close).
 */
[[nodiscard]] Result<Frame> ReadFrame(int fd);

/**
 * Client half of the handshake on a fresh connection: send magic +
 * our version, read the daemon's magic + version. Returns the
 * negotiated (min) version, or kInvalidArgument on a magic/version
 * mismatch, kUnavailable on a dead peer.
 */
[[nodiscard]] Result<u32> ClientHandshake(int fd);

/** Daemon half: read the client hello, answer ours. */
[[nodiscard]] Result<u32> DaemonHandshake(int fd);

}  // namespace hentt::serve

#endif  // HENTT_SERVE_WIRE_H
