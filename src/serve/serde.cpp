/** @file The ciphertext codecs and Wire ↔ HE conversions (see serde.h). */

#include "serve/serde.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "he/batch_access.h"

namespace hentt::serve {

namespace {

Status
Invalid(const std::string &message, const char *where)
{
    return Status(ErrorCode::kInvalidArgument, message).WithFrame(where);
}

/** Throw kInvalidArgument for a value the session must not take. */
[[noreturn]] void
Reject(const std::string &message)
{
    ThrowStatus(Status(ErrorCode::kInvalidArgument, message));
}

/**
 * Run a decode against a session context. A malformed payload or a
 * rejected value (kInvalidArgument, from the Reader or Reject) comes
 * back framed with @p what; anything else, such as an allocation
 * failure for the rows, propagates with its own code.
 */
template <typename T, typename Fn>
Result<T>
ContextDecode(const char *what, Fn &&body)
{
    try {
        return body();
    } catch (const InvalidArgumentError &e) {
        return e.status().WithFrame(what);
    }
}

PolyHeader
HeaderOf(const RnsPoly &poly)
{
    return {poly.degree(), static_cast<u32>(poly.prime_count()),
            poly.domain() == RnsPoly::Domain::kEvaluation ? u8{1} : u8{0},
            poly.lazy() ? u8{1} : u8{0}, poly.flat().size()};
}

PolyHeader
HeaderOf(const WirePoly &wp)
{
    return {wp.degree, wp.prime_count, wp.domain, wp.lazy,
            wp.words.size()};
}

std::span<const u64>
WordsOf(const RnsPoly &poly)
{
    return poly.flat();
}

std::span<const u64>
WordsOf(const WirePoly &wp)
{
    return wp.words;
}

// ---------------------------------------------------------------------
// Format rules of ciphertexts, programs and lists.
// ---------------------------------------------------------------------

/** A ciphertext's part count, in [1, kMaxCiphertextParts]. */
u32
GetPartCount(Reader &r)
{
    const u32 count = r.U32();
    if (count == 0 || count > kMaxCiphertextParts) {
        RaiseDecode("ciphertext part count " + std::to_string(count) +
                    " outside [1, " +
                    std::to_string(kMaxCiphertextParts) + "]");
    }
    return count;
}

/** A program's ops and output slots: everything after its inputs. */
void
PutProgramTail(Writer &w, const std::vector<WireProgram::Op> &ops,
               const std::vector<u32> &outputs)
{
    w.U32(static_cast<u32>(ops.size()));
    for (const WireProgram::Op &op : ops) {
        w.U8(static_cast<u8>(op.op));
        w.U32(op.a);
        w.U32(op.b);
    }
    w.U32(static_cast<u32>(outputs.size()));
    for (const u32 slot : outputs) {
        w.U32(slot);
    }
}

/** Read a program tail after @p input_count inputs, checking opcodes
 *  and that every slot reference points at an input or an earlier op
 *  (a DAG by construction, so the evaluator never sees a forward
 *  edge). */
void
GetProgramTail(Reader &r, u32 input_count,
               std::vector<WireProgram::Op> &ops, std::vector<u32> &outputs)
{
    const u32 op_count = r.U32();
    if (op_count > kMaxProgramOps) {
        RaiseDecode("program op count " + std::to_string(op_count) +
                    " exceeds cap");
    }
    ops.reserve(op_count);
    for (u32 i = 0; i < op_count; ++i) {
        WireProgram::Op op;
        const u8 code = r.U8();
        if (code > static_cast<u8>(WireOp::kRelinModSwitch)) {
            RaiseDecode("unknown program opcode " + std::to_string(code));
        }
        op.op = static_cast<WireOp>(code);
        op.a = r.U32();
        op.b = r.U32();
        const u32 slot_limit = input_count + i;
        const bool two_operand = op.op == WireOp::kAdd ||
                                 op.op == WireOp::kSub ||
                                 op.op == WireOp::kMul;
        if (op.a >= slot_limit || (two_operand && op.b >= slot_limit)) {
            RaiseDecode("program op " + std::to_string(i) +
                        " references a slot >= " +
                        std::to_string(slot_limit));
        }
        ops.push_back(op);
    }
    const u32 output_count = r.U32();
    if (output_count > kMaxProgramOps) {
        RaiseDecode("program output count " +
                    std::to_string(output_count) + " exceeds cap");
    }
    outputs.reserve(output_count);
    const u32 slot_limit = input_count + op_count;
    for (u32 i = 0; i < output_count; ++i) {
        const u32 slot = r.U32();
        if (slot >= slot_limit) {
            RaiseDecode("program output slot " + std::to_string(slot) +
                        " >= " + std::to_string(slot_limit));
        }
        outputs.push_back(slot);
    }
}

// ---------------------------------------------------------------------
// Context rules: what a session can take.
// ---------------------------------------------------------------------

/**
 * Materialise one polynomial of @p header at the level of @p ctx its
 * prime count selects: check its shape against the session, let
 * @p fill write the rows, then check every residue against its prime's
 * range ([0, p), or [0, 4p) for lazy evaluation rows) and tag the
 * domain. Throws kInvalidArgument.
 */
template <typename Fill>
RnsPoly
MakePoly(const he::HeContext &ctx, const PolyHeader &header, Fill &&fill)
{
    if (header.degree != ctx.degree()) {
        Reject("poly degree " + std::to_string(header.degree) +
               " does not match the session's " +
               std::to_string(ctx.degree()));
    }
    if (header.prime_count == 0 ||
        header.prime_count > ctx.params().prime_count) {
        Reject("poly prime count " + std::to_string(header.prime_count) +
               " outside the session's chain [1, " +
               std::to_string(ctx.params().prime_count) + "]");
    }
    if (header.lazy != 0 && header.domain != 1) {
        Reject("lazy flag on a coefficient-domain poly");
    }
    std::shared_ptr<const RnsNttContext> level =
        ctx.level_context(header.prime_count);
    const std::size_t degree = level->degree();
    if (header.words != degree * header.prime_count) {
        Reject("poly word count " + std::to_string(header.words) +
               " does not match shape");
    }
    RnsPoly poly(level);
    fill(poly.flat());
    // Residues outside the range the kernels assume would silently
    // corrupt modular arithmetic downstream.
    const RnsBasis &basis = level->basis();
    for (std::size_t l = 0; l < header.prime_count; ++l) {
        const u64 p = basis.prime(l);
        const u64 bound = header.lazy != 0 ? 4 * p : p;
        const std::span<const u64> row = std::as_const(poly).row(l);
        for (std::size_t i = 0; i < degree; ++i) {
            if (row[i] >= bound) {
                Reject("residue " + std::to_string(row[i]) +
                       " at limb " + std::to_string(l) + ", coeff " +
                       std::to_string(i) + " is outside [0, " +
                       std::to_string(bound) + ")");
            }
        }
    }
    if (header.domain == 1) {
        he::detail::RnsPolyBatchAccess::MarkEvaluation(poly,
                                                       header.lazy != 0);
    }
    return poly;
}

RnsPoly
MakePoly(const he::HeContext &ctx, const WirePoly &wp)
{
    return MakePoly(ctx, HeaderOf(wp), [&](std::span<u64> rows) {
        std::copy(wp.words.begin(), wp.words.end(), rows.begin());
    });
}

/** The ciphertext rules on top of the poly ones: 2 or 3 parts (degree
 *  1 or 2), all at the level of the first. */
void
CheckPartCount(std::size_t parts)
{
    if (parts < 2 || parts > 3) {
        Reject("ciphertext with " + std::to_string(parts) +
               " parts (expected 2 or 3)");
    }
}

void
CheckSameLevel(u32 first_prime_count, u32 prime_count)
{
    if (prime_count != first_prime_count) {
        Reject("ciphertext parts at different levels");
    }
}

WireCiphertext
GetCiphertext(Reader &r)
{
    const u32 parts = GetPartCount(r);
    WireCiphertext ct;
    ct.parts.reserve(parts);
    for (u32 i = 0; i < parts; ++i) {
        ct.parts.push_back(GetPoly(r));
    }
    return ct;
}

/** A ciphertext read straight into RnsPoly rows of @p ctx. */
he::Ciphertext
GetCiphertext(Reader &r, const he::HeContext &ctx)
{
    const u32 parts = GetPartCount(r);
    CheckPartCount(parts);
    he::Ciphertext ct;
    ct.parts.reserve(parts);
    u32 first_prime_count = 0;
    for (u32 i = 0; i < parts; ++i) {
        const PolyHeader header = GetPolyHeader(r);
        if (i == 0) {
            first_prime_count = header.prime_count;
        }
        CheckSameLevel(first_prime_count, header.prime_count);
        ct.parts.push_back(MakePoly(
            ctx, header, [&](std::span<u64> rows) { r.Words(rows); }));
    }
    return ct;
}

// ---------------------------------------------------------------------
// The codecs, once for both ciphertext types (Ct is he::Ciphertext or
// WireCiphertext; a ciphertext reader is passed in as @p get).
// ---------------------------------------------------------------------

template <typename Ct>
std::size_t
CiphertextBytes(const Ct &ct)
{
    std::size_t bytes = 4;
    for (const auto &part : ct.parts) {
        bytes += PolyBytes(HeaderOf(part).words);
    }
    return bytes;
}

template <typename Ct>
void
PutCiphertext(Writer &w, const Ct &ct)
{
    w.U32(static_cast<u32>(ct.parts.size()));
    for (const auto &part : ct.parts) {
        PutPolyHeader(w, HeaderOf(part));
        w.Words(WordsOf(part));
    }
}

/** [u32 count][each of @p cts], in a buffer reserved for exactly that
 *  and @p tail_bytes more. */
template <typename Ct>
std::vector<u8>
PutCiphertexts(const std::vector<Ct> &cts, std::size_t tail_bytes)
{
    std::size_t bytes = 4 + tail_bytes;
    for (const Ct &ct : cts) {
        bytes += CiphertextBytes(ct);
    }
    std::vector<u8> out;
    out.reserve(bytes);
    Writer w(out);
    w.U32(static_cast<u32>(cts.size()));
    for (const Ct &ct : cts) {
        PutCiphertext(w, ct);
    }
    return out;
}

template <typename Ct>
std::vector<u8>
PutProgram(const std::vector<Ct> &inputs,
           const std::vector<WireProgram::Op> &ops,
           const std::vector<u32> &outputs)
{
    // The tail: two u32 counts, 9 bytes per op ([u8 op][u32 a][u32 b])
    // and 4 per output slot.
    std::vector<u8> out =
        PutCiphertexts(inputs, 8 + 9 * ops.size() + 4 * outputs.size());
    Writer w(out);
    PutProgramTail(w, ops, outputs);
    return out;
}

/** [u32 count, at most kMaxProgramOps][ciphertexts], each read by
 *  @p get. */
template <typename Get>
auto
GetCiphertexts(Reader &r, const char *what, Get &&get)
{
    const u32 count = r.U32();
    if (count > kMaxProgramOps) {
        RaiseDecode(std::string(what) + " count " +
                    std::to_string(count) + " exceeds cap");
    }
    std::vector<decltype(get(r))> cts;
    cts.reserve(count);
    for (u32 i = 0; i < count; ++i) {
        cts.push_back(get(r));
    }
    return cts;
}

template <typename Program, typename Get>
Program
GetProgram(std::span<const u8> payload, Get &&get)
{
    Reader r(payload);
    Program program;
    program.inputs = GetCiphertexts(r, "program input", get);
    GetProgramTail(r, static_cast<u32>(program.inputs.size()),
                   program.ops, program.outputs);
    r.ExpectEnd();
    return program;
}

template <typename Get>
auto
GetCiphertextList(std::span<const u8> payload, Get &&get)
{
    Reader r(payload);
    auto cts = GetCiphertexts(r, "ciphertext list", get);
    r.ExpectEnd();
    return cts;
}

}  // namespace

std::vector<u8>
EncodeProgram(const std::vector<he::Ciphertext> &inputs,
              const std::vector<WireProgram::Op> &ops,
              const std::vector<u32> &outputs)
{
    return PutProgram(inputs, ops, outputs);
}

Result<DecodedProgram>
DecodeProgram(const he::HeContext &ctx, std::span<const u8> payload)
{
    return ContextDecode<DecodedProgram>("serve::DecodeProgram", [&] {
        return GetProgram<DecodedProgram>(
            payload, [&](Reader &r) { return GetCiphertext(r, ctx); });
    });
}

std::vector<u8>
EncodeCiphertextList(const std::vector<he::Ciphertext> &cts)
{
    return PutCiphertexts(cts, 0);
}

Result<std::vector<he::Ciphertext>>
DecodeCiphertextList(const he::HeContext &ctx, std::span<const u8> payload)
{
    return ContextDecode<std::vector<he::Ciphertext>>(
        "serve::DecodeCiphertextList", [&] {
            return GetCiphertextList(
                payload, [&](Reader &r) { return GetCiphertext(r, ctx); });
        });
}

std::vector<u8>
EncodeCiphertext(const WireCiphertext &ct)
{
    std::vector<u8> out;
    out.reserve(CiphertextBytes(ct));
    Writer w(out);
    PutCiphertext(w, ct);
    return out;
}

Result<WireCiphertext>
DecodeCiphertext(std::span<const u8> payload)
{
    return DecodeGuard<WireCiphertext>("serve::DecodeCiphertext", [&] {
        Reader r(payload);
        WireCiphertext ct = GetCiphertext(r);
        r.ExpectEnd();
        return ct;
    });
}

std::vector<u8>
EncodeProgram(const WireProgram &program)
{
    return PutProgram(program.inputs, program.ops, program.outputs);
}

Result<WireProgram>
DecodeProgram(std::span<const u8> payload)
{
    return DecodeGuard<WireProgram>("serve::DecodeProgram", [&] {
        return GetProgram<WireProgram>(
            payload, [](Reader &r) { return GetCiphertext(r); });
    });
}

std::vector<u8>
EncodeCiphertextList(const std::vector<WireCiphertext> &cts)
{
    return PutCiphertexts(cts, 0);
}

Result<std::vector<WireCiphertext>>
DecodeCiphertextList(std::span<const u8> payload)
{
    return DecodeGuard<std::vector<WireCiphertext>>(
        "serve::DecodeCiphertextList", [&] {
            return GetCiphertextList(
                payload, [](Reader &r) { return GetCiphertext(r); });
        });
}

WireParams
ToWire(const he::HeParams &params)
{
    WireParams wp;
    wp.degree = params.degree;
    wp.prime_count = params.prime_count;
    wp.prime_bits = params.prime_bits;
    wp.plain_modulus = params.plain_modulus;
    static_assert(sizeof(params.noise_stddev) == sizeof(u64));
    std::memcpy(&wp.noise_stddev_bits, &params.noise_stddev,
                sizeof(u64));
    return wp;
}

Result<he::HeParams>
ParamsFromWire(const WireParams &wp)
{
    he::HeParams params;
    params.degree = static_cast<std::size_t>(wp.degree);
    params.prime_count = static_cast<std::size_t>(wp.prime_count);
    params.prime_bits = wp.prime_bits;
    params.plain_modulus = wp.plain_modulus;
    std::memcpy(&params.noise_stddev, &wp.noise_stddev_bits,
                sizeof(u64));
    try {
        params.Validate();
    } catch (...) {
        return CurrentExceptionToStatus().WithFrame(
            "serve::ParamsFromWire");
    }
    return params;
}

WirePoly
ToWire(const RnsPoly &poly)
{
    const PolyHeader header = HeaderOf(poly);
    const std::span<const u64> flat = poly.flat();
    return {header.degree, header.prime_count, header.domain, header.lazy,
            std::vector<u64>(flat.begin(), flat.end())};
}

Result<RnsPoly>
PolyFromWire(const he::HeContext &ctx, const WirePoly &wp)
{
    return ContextDecode<RnsPoly>("serve::PolyFromWire",
                                  [&] { return MakePoly(ctx, wp); });
}

WireCiphertext
ToWire(const he::Ciphertext &ct)
{
    WireCiphertext wct;
    wct.parts.reserve(ct.parts.size());
    for (const RnsPoly &part : ct.parts) {
        wct.parts.push_back(ToWire(part));
    }
    return wct;
}

Result<he::Ciphertext>
CiphertextFromWire(const he::HeContext &ctx, const WireCiphertext &wct)
{
    return ContextDecode<he::Ciphertext>("serve::CiphertextFromWire", [&] {
        CheckPartCount(wct.parts.size());
        he::Ciphertext ct;
        ct.parts.reserve(wct.parts.size());
        for (const WirePoly &wp : wct.parts) {
            CheckSameLevel(wct.parts[0].prime_count, wp.prime_count);
            ct.parts.push_back(MakePoly(ctx, wp));
        }
        return ct;
    });
}

WireRelinKey
ToWire(const he::RelinKey &rk)
{
    WireRelinKey wrk;
    wrk.levels.reserve(rk.levels.size());
    for (const he::RelinKey::LevelKeys &level : rk.levels) {
        WireRelinKey::Level wl;
        wl.b.reserve(level.b.size());
        wl.a.reserve(level.a.size());
        for (const RnsPoly &poly : level.b) {
            wl.b.push_back(ToWire(poly));
        }
        for (const RnsPoly &poly : level.a) {
            wl.a.push_back(ToWire(poly));
        }
        wrk.levels.push_back(std::move(wl));
    }
    return wrk;
}

Result<he::RelinKey>
RelinKeyFromWire(const he::HeContext &ctx, const WireRelinKey &wrk)
{
    const std::size_t chain = ctx.params().prime_count;
    if (wrk.levels.size() != chain) {
        return Invalid("relin key with " +
                           std::to_string(wrk.levels.size()) +
                           " levels (the session's chain has " +
                           std::to_string(chain) + ")",
                       "serve::RelinKeyFromWire");
    }
    he::RelinKey rk;
    rk.levels.resize(chain);
    for (std::size_t level = 1; level <= chain; ++level) {
        const WireRelinKey::Level &wl = wrk.levels[level - 1];
        if (wl.b.size() != level || wl.a.size() != level) {
            return Invalid("relin key level " + std::to_string(level) +
                               " holds " + std::to_string(wl.b.size()) +
                               "/" + std::to_string(wl.a.size()) +
                               " digit pairs (expected " +
                               std::to_string(level) + ")",
                           "serve::RelinKeyFromWire");
        }
        he::RelinKey::LevelKeys &lk = rk.levels[level - 1];
        lk.b.reserve(level);
        lk.a.reserve(level);
        for (const std::vector<WirePoly> *src : {&wl.b, &wl.a}) {
            std::vector<RnsPoly> &dst = src == &wl.b ? lk.b : lk.a;
            for (const WirePoly &wp : *src) {
                // Keys are stored (and travel) in the evaluation
                // domain at their level's width — see RelinKey.
                if (wp.prime_count != level || wp.domain != 1) {
                    return Invalid(
                        "relin key digit at level " +
                            std::to_string(level) +
                            " is not an evaluation-domain poly of " +
                            std::to_string(level) + " limbs",
                        "serve::RelinKeyFromWire");
                }
                Result<RnsPoly> poly = PolyFromWire(ctx, wp);
                if (!poly.ok()) {
                    return poly.status().WithFrame(
                        "serve::RelinKeyFromWire");
                }
                dst.push_back(std::move(*poly));
            }
        }
    }
    return rk;
}

}  // namespace hentt::serve
