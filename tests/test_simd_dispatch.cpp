/**
 * Dispatch-layer diagnostics: the availability introspection
 * (AvailabilityReason / DescribeAvailability), the ForceBackend error
 * contract (the message must say WHY the backend is out and list every
 * alternative), and DescribeKernelTable — the per-slot map that makes
 * borrowed-slot fallbacks visible. The AVX-512 no-borrowed-slots
 * acceptance criterion is pinned here as a test, not just prose.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "simd/simd_backend.h"

namespace hentt {
namespace {

/** DescribeKernelTable lines as (slot, tu) pairs. */
std::vector<std::pair<std::string, std::string>>
ParseTable(simd::Backend backend)
{
    std::vector<std::pair<std::string, std::string>> rows;
    std::istringstream in(simd::DescribeKernelTable(backend));
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t arrow = line.find(" -> ");
        EXPECT_NE(arrow, std::string::npos) << line;
        rows.emplace_back(line.substr(0, arrow), line.substr(arrow + 4));
    }
    return rows;
}

TEST(SimdDispatchDiag, EveryBackendHasANameAndAReason)
{
    for (const simd::Backend b : simd::kAllBackends) {
        EXPECT_STRNE(simd::BackendName(b), "unknown");
        const std::string reason = simd::AvailabilityReason(b);
        EXPECT_FALSE(reason.empty());
        if (simd::BackendAvailable(b)) {
            EXPECT_EQ(reason, "available") << simd::BackendName(b);
        } else {
            // The reason must distinguish compiled-out from CPUID.
            EXPECT_TRUE(reason.find("not compiled in") !=
                            std::string::npos ||
                        reason.find("CPU lacks") != std::string::npos)
                << simd::BackendName(b) << ": " << reason;
        }
    }
    EXPECT_TRUE(simd::BackendAvailable(simd::Backend::kScalar));
}

TEST(SimdDispatchDiag, DescribeAvailabilityListsEveryBackend)
{
    const std::string listing = simd::DescribeAvailability();
    for (const simd::Backend b : simd::kAllBackends) {
        EXPECT_NE(listing.find(std::string(simd::BackendName(b)) + ": "),
                  std::string::npos)
            << listing;
    }
}

TEST(SimdDispatchDiag, ForceBackendErrorNamesReasonAndAlternatives)
{
    for (const simd::Backend b : simd::kAllBackends) {
        if (simd::BackendAvailable(b)) {
            continue;
        }
        try {
            simd::ForceBackend(b);
            FAIL() << "ForceBackend(" << simd::BackendName(b)
                   << ") should have thrown";
        } catch (const std::invalid_argument &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(simd::BackendName(b)), std::string::npos)
                << msg;
            EXPECT_NE(msg.find(simd::AvailabilityReason(b)),
                      std::string::npos)
                << msg;
            // The full availability listing rides along, so the user
            // sees what they CAN request.
            EXPECT_NE(msg.find("scalar: available"), std::string::npos)
                << msg;
        }
    }
}

TEST(SimdDispatchDiag, KernelTableHasSixteenNamedSlots)
{
    for (const simd::Backend b : simd::kAllBackends) {
        const auto rows = ParseTable(b);
        ASSERT_EQ(rows.size(), 16u) << simd::BackendName(b);
        EXPECT_EQ(rows.front().first, "fwd_butterfly_rows");
        EXPECT_EQ(rows.back().first, "divide_round_rows");
        for (const auto &[slot, tu] : rows) {
            EXPECT_NE(tu, "unknown")
                << simd::BackendName(b) << " " << slot;
            // One table per ISA: an available backend's slot is its
            // own or borrowed from the scalar reference, nothing else.
            if (simd::BackendAvailable(b)) {
                EXPECT_TRUE(tu == simd::BackendName(b) || tu == "scalar")
                    << simd::BackendName(b) << " " << slot << " -> " << tu;
            }
        }
    }
}

TEST(SimdDispatchDiag, ScalarTableResolvesEverySlotToScalar)
{
    for (const auto &[slot, tu] : ParseTable(simd::Backend::kScalar)) {
        EXPECT_EQ(tu, "scalar") << slot;
    }
}

TEST(SimdDispatchDiag, Avx2TableShowsItsBorrowedBarrettFamily)
{
    if (!simd::BackendAvailable(simd::Backend::kAvx2)) {
        GTEST_SKIP() << "AVX2 backend unavailable on this host";
    }
    for (const auto &[slot, tu] : ParseTable(simd::Backend::kAvx2)) {
        // Production AVX2 verdict (PR 4): Shoup family native, Barrett
        // family + divide_round borrowed from the scalar reference —
        // and the map must SHOW the borrowing.
        if (slot == "mul_barrett_rows" || slot == "mul_acc_barrett_rows" ||
            slot == "reduce_barrett_rows" || slot == "tensor_rows" ||
            slot == "divide_round_rows") {
            EXPECT_EQ(tu, "scalar") << slot;
        } else {
            EXPECT_EQ(tu, "avx2") << slot;
        }
    }
}

TEST(SimdDispatchDiag, Avx512TableHasNoBorrowedSlots)
{
    if (!simd::BackendAvailable(simd::Backend::kAvx512)) {
        GTEST_SKIP() << "AVX-512 backend unavailable on this host";
    }
    // The tentpole acceptance criterion: all 16 slots native.
    for (const auto &[slot, tu] : ParseTable(simd::Backend::kAvx512)) {
        EXPECT_EQ(tu, "avx512") << slot;
    }
}

TEST(SimdDispatchDiag, NeonTableMirrorsTheAvx2Verdict)
{
    if (!simd::BackendAvailable(simd::Backend::kNeon)) {
        GTEST_SKIP() << "NEON backend unavailable on this host";
    }
    for (const auto &[slot, tu] : ParseTable(simd::Backend::kNeon)) {
        if (slot == "mul_barrett_rows" || slot == "mul_acc_barrett_rows" ||
            slot == "reduce_barrett_rows" || slot == "tensor_rows" ||
            slot == "divide_round_rows") {
            EXPECT_EQ(tu, "scalar") << slot;
        } else {
            EXPECT_EQ(tu, "neon") << slot;
        }
    }
}

}  // namespace
}  // namespace hentt
