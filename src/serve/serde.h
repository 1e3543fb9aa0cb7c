/**
 * @file
 * HE types on the wire: the ciphertext codecs, and conversions that
 * validate wire values against a session context.
 *
 * Ciphertexts travel in programs (kSubmitGraph) and ciphertext lists
 * (kDone). Each codec below is written once, as a template over the
 * ciphertext type, and instantiated twice with the same bytes:
 *
 *   - over he::Ciphertext, which the request path uses: encoded
 *     straight from RnsPoly rows and decoded straight into rows of the
 *     session's level contexts, each row one memcpy;
 *   - over the self-contained Wire* structs, which need no context:
 *     the format's test oracle, and what the e2e benchmark's replay
 *     drives.
 *
 * Decoding against a context makes the same checks as PolyFromWire and
 * CiphertextFromWire, through the same helper. Validation failures —
 * shape mismatch against the session parameters, residues outside a
 * prime's range, a key with the wrong level structure — come back as
 * kInvalidArgument Status, so a hostile or buggy client can never push
 * an out-of-contract value into the kernels. Anything else thrown while
 * decoding against a context (an allocation failure) is not a
 * malformed payload: it propagates with its own code.
 *
 * Deserialized evaluation-domain polynomials (relin keys travel in the
 * evaluation domain, matching keygen) are relabeled through the
 * RnsPolyBatchAccess seam — the only way to tag a domain without
 * running a transform.
 */

#ifndef HENTT_SERVE_SERDE_H
#define HENTT_SERVE_SERDE_H

#include <memory>
#include <span>
#include <vector>

#include "he/bgv.h"
#include "serve/wire.h"

namespace hentt::serve {

// ---------------------------------------------------------------------
// Ciphertext codecs over he::Ciphertext, against a session context.
// ---------------------------------------------------------------------

/** kSubmitGraph payload encoded from @p inputs' rows. */
std::vector<u8> EncodeProgram(const std::vector<he::Ciphertext> &inputs,
                              const std::vector<WireProgram::Op> &ops,
                              const std::vector<u32> &outputs);

/** A kSubmitGraph payload decoded against a session context. */
struct DecodedProgram {
    std::vector<he::Ciphertext> inputs;
    std::vector<WireProgram::Op> ops;
    std::vector<u32> outputs;
};

/** kSubmitGraph payload decoded straight into RnsPoly rows of @p ctx's
 *  level contexts. kInvalidArgument on a malformed payload or a value
 *  CiphertextFromWire would reject. */
[[nodiscard]] Result<DecodedProgram>
DecodeProgram(const he::HeContext &ctx, std::span<const u8> payload);

/** kDone payload encoded from @p cts' rows. */
std::vector<u8>
EncodeCiphertextList(const std::vector<he::Ciphertext> &cts);

/** kDone payload decoded straight into RnsPoly rows of @p ctx. */
[[nodiscard]] Result<std::vector<he::Ciphertext>>
DecodeCiphertextList(const he::HeContext &ctx,
                     std::span<const u8> payload);

// ---------------------------------------------------------------------
// The same codecs over the Wire* structs (no context). Decode* returns
// kInvalidArgument on any malformation and never throws.
// ---------------------------------------------------------------------

std::vector<u8> EncodeCiphertext(const WireCiphertext &ct);
[[nodiscard]] Result<WireCiphertext>
DecodeCiphertext(std::span<const u8> payload);

std::vector<u8> EncodeProgram(const WireProgram &program);
[[nodiscard]] Result<WireProgram>
DecodeProgram(std::span<const u8> payload);

std::vector<u8>
EncodeCiphertextList(const std::vector<WireCiphertext> &cts);
[[nodiscard]] Result<std::vector<WireCiphertext>>
DecodeCiphertextList(std::span<const u8> payload);

// ---------------------------------------------------------------------
// Wire* ↔ HE conversions.
// ---------------------------------------------------------------------

/** HeParams → wire form (noise_stddev by bit pattern). */
WireParams ToWire(const he::HeParams &params);

/** Wire form → HeParams; kInvalidArgument when HeParams::Validate
 *  rejects the combination. */
[[nodiscard]] Result<he::HeParams> ParamsFromWire(const WireParams &wp);

/** RnsPoly → wire form (shape + domain tag + limb-major words). */
WirePoly ToWire(const RnsPoly &poly);

/**
 * Wire form → RnsPoly at the level of @p ctx the poly's prime_count
 * selects. Checks shape against the context and every residue against
 * its prime's range ([0, p), or [0, 4p) for lazy evaluation rows).
 */
[[nodiscard]] Result<RnsPoly>
PolyFromWire(const he::HeContext &ctx, const WirePoly &wp);

/** Ciphertext → wire form. */
WireCiphertext ToWire(const he::Ciphertext &ct);

/** Wire form → Ciphertext (2 or 3 parts, uniform level). */
[[nodiscard]] Result<he::Ciphertext>
CiphertextFromWire(const he::HeContext &ctx, const WireCiphertext &wct);

/** RelinKey → wire form. */
WireRelinKey ToWire(const he::RelinKey &rk);

/**
 * Wire form → RelinKey. Requires exactly the level structure keygen
 * produces for @p ctx's parameters: one level set per chain level,
 * level L holding L evaluation-domain (b, a) digit pairs.
 */
[[nodiscard]] Result<he::RelinKey>
RelinKeyFromWire(const he::HeContext &ctx, const WireRelinKey &wrk);

}  // namespace hentt::serve

#endif  // HENTT_SERVE_SERDE_H
