/**
 * @file
 * Backend resolution: compile-time availability x runtime CPUID x the
 * HENTT_SIMD environment override x ForceBackend(). The active table is
 * a single atomic pointer, so every kernel call site pays one acquire
 * load — nothing per element.
 *
 * Auto-selection order: avx512 > avx2 > neon > scalar. The x86 tiers
 * need both the compiled-in TU and the CPUID feature; NEON is
 * mandatory on AArch64, so compiled-in means available. Every
 * available backend is also reachable explicitly, so benches and the
 * parity sweep can exercise each ISA's one table.
 */

#include "simd/simd_internal.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/failpoint.h"

namespace hentt::simd {

namespace {

// __builtin_cpu_supports with x86 feature names only compiles on x86
// targets; every probe is additionally arch-guarded so this TU builds
// unchanged on arm64.

bool
CpuHasAvx2()
{
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

bool
CpuHasAvx512()
{
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
    // The butterfly kernels need F (foundation) and DQ (vpmullq).
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq");
#else
    return false;
#endif
}

/** Best available backend by CPUID: avx512 > avx2 > neon > scalar. */
Backend
BestAvailable()
{
    if (BackendAvailable(Backend::kAvx512)) {
        return Backend::kAvx512;
    }
    if (BackendAvailable(Backend::kAvx2)) {
        return Backend::kAvx2;
    }
    if (BackendAvailable(Backend::kNeon)) {
        return Backend::kNeon;
    }
    return Backend::kScalar;
}

/** HENTT_SIMD value -> Backend; nullopt-style: returns false when the
 *  value names no backend ("auto" included). */
bool
ParseBackendName(const char *name, Backend &out)
{
    for (Backend b : kAllBackends) {
        if (std::strcmp(name, BackendName(b)) == 0) {
            out = b;
            return true;
        }
    }
    return false;
}

/** Environment/CPUID resolution, evaluated once at first use. An
 *  unavailable (or unrecognised) HENTT_SIMD request falls back with a
 *  one-line stderr warning naming every backend's availability — tests
 *  use ForceBackend, which throws instead, so they can never silently
 *  measure the wrong thing. */
Backend
ResolveDefault()
{
    const char *env = std::getenv("HENTT_SIMD");
    if (env == nullptr || std::strcmp(env, "auto") == 0) {
        return BestAvailable();
    }
    Backend requested;
    if (!ParseBackendName(env, requested)) {
        std::fprintf(stderr,
                     "hentt: HENTT_SIMD=%s names no backend; using "
                     "auto. Backends: %s\n",
                     env, DescribeAvailability().c_str());
        return BestAvailable();
    }
    if (!BackendAvailable(requested)) {
        std::fprintf(stderr,
                     "hentt: HENTT_SIMD=%s unavailable (%s); falling "
                     "back to scalar. Backends: %s\n",
                     env, AvailabilityReason(requested),
                     DescribeAvailability().c_str());
        return Backend::kScalar;
    }
    return requested;
}

std::atomic<const Kernels *> g_active{nullptr};
std::atomic<int> g_active_backend{-1};

void
Activate(Backend backend)
{
    // Order matters for concurrent readers: publish the table last so
    // ActiveBackend()/Active() never disagree about an initialised
    // state.
    g_active_backend.store(static_cast<int>(backend),
                           std::memory_order_relaxed);
    g_active.store(&Get(backend), std::memory_order_release);
}

const Kernels *
InitActive()
{
    Activate(ResolveDefault());
    return g_active.load(std::memory_order_acquire);
}

}  // namespace

bool
BackendAvailable(Backend backend)
{
    switch (backend) {
      case Backend::kScalar:
        return true;
      case Backend::kAvx2:
        return internal::Avx2CompiledIn() && CpuHasAvx2();
      case Backend::kAvx512:
        return internal::Avx512CompiledIn() && CpuHasAvx512();
      case Backend::kNeon:
        // AdvSIMD is architecturally mandatory on AArch64: compiled in
        // implies the CPU has it.
        return internal::NeonCompiledIn();
    }
    return false;
}

const Kernels &
Get(Backend backend)
{
    switch (backend) {
      case Backend::kAvx2:
        return internal::Avx2Kernels();
      case Backend::kAvx512:
        return internal::Avx512Kernels();
      case Backend::kNeon:
        return internal::NeonKernels();
      case Backend::kScalar:
        break;
    }
    return internal::ScalarKernels();
}

const Kernels &
Active()
{
    // Fault-injection builds can force the scalar graceful-degradation
    // path for one resolution: the op proceeds on the reference
    // kernels (bit-identical results — every backend computes the same
    // math) instead of failing, modelling a vector unit the serving
    // layer must survive losing. Compiles out entirely otherwise.
    if (HENTT_FAILPOINT_FIRED(fp::kSimdDispatch)) {
        return internal::ScalarKernels();
    }
    const Kernels *table = g_active.load(std::memory_order_acquire);
    return table != nullptr ? *table : *InitActive();
}

Backend
ActiveBackend()
{
    (void)Active();  // force resolution
    return static_cast<Backend>(
        g_active_backend.load(std::memory_order_relaxed));
}

void
ForceBackend(Backend backend)
{
    if (!BackendAvailable(backend)) {
        throw std::invalid_argument(
            std::string("SIMD backend unavailable: ") +
            BackendName(backend) + " (" +
            AvailabilityReason(backend) +
            "). Backends: " + DescribeAvailability());
    }
    Activate(backend);
}

void
ResetBackend()
{
    Activate(ResolveDefault());
}

const char *
BackendName(Backend backend)
{
    switch (backend) {
      case Backend::kScalar:
        return "scalar";
      case Backend::kAvx2:
        return "avx2";
      case Backend::kAvx512:
        return "avx512";
      case Backend::kNeon:
        return "neon";
    }
    return "unknown";
}

const char *
AvailabilityReason(Backend backend)
{
    if (BackendAvailable(backend)) {
        return "available";
    }
    switch (backend) {
      case Backend::kScalar:
        break;  // always available; unreachable
      case Backend::kAvx2:
        return internal::Avx2CompiledIn()
                   ? "CPU lacks avx2"
                   : "not compiled in (build lacks -mavx2)";
      case Backend::kAvx512:
        return internal::Avx512CompiledIn()
                   ? "CPU lacks avx512f/avx512dq"
                   : "not compiled in (build lacks -mavx512f/-mavx512dq)";
      case Backend::kNeon:
        return "not compiled in (not an AArch64 build)";
    }
    return "available";
}

std::string
DescribeAvailability()
{
    std::string out;
    for (Backend b : kAllBackends) {
        if (!out.empty()) {
            out += ", ";
        }
        out += BackendName(b);
        out += ": ";
        out += AvailabilityReason(b);
    }
    return out;
}

std::string
DescribeKernelTable(Backend backend)
{
    // Slot names in Kernels declaration order.
    static constexpr const char *kSlotNames[] = {
        "fwd_butterfly_rows",   "fwd_butterfly_stage",
        "inv_butterfly_rows",   "inv_butterfly_stage",
        "fwd_butterfly_stage4", "inv_butterfly_stage4",
        "mul_shoup_rows",       "mul_barrett_rows",
        "mul_acc_barrett_rows", "reduce_barrett_rows",
        "add_rows",             "sub_rows",
        "fold_lazy_rows",       "fold_rescale_rows",
        "tensor_rows",          "divide_round_rows",
    };
    using SlotPtr = void (*)();
    struct SlotView {
        SlotPtr ptr[16];
    };
    // Function pointers as an inspectable array; the casts are only
    // compared, never called.
    const auto slots = [](const Kernels &t) {
        SlotView v;
        v.ptr[0] = reinterpret_cast<SlotPtr>(t.fwd_butterfly_rows);
        v.ptr[1] = reinterpret_cast<SlotPtr>(t.fwd_butterfly_stage);
        v.ptr[2] = reinterpret_cast<SlotPtr>(t.inv_butterfly_rows);
        v.ptr[3] = reinterpret_cast<SlotPtr>(t.inv_butterfly_stage);
        v.ptr[4] = reinterpret_cast<SlotPtr>(t.fwd_butterfly_stage4);
        v.ptr[5] = reinterpret_cast<SlotPtr>(t.inv_butterfly_stage4);
        v.ptr[6] = reinterpret_cast<SlotPtr>(t.mul_shoup_rows);
        v.ptr[7] = reinterpret_cast<SlotPtr>(t.mul_barrett_rows);
        v.ptr[8] = reinterpret_cast<SlotPtr>(t.mul_acc_barrett_rows);
        v.ptr[9] = reinterpret_cast<SlotPtr>(t.reduce_barrett_rows);
        v.ptr[10] = reinterpret_cast<SlotPtr>(t.add_rows);
        v.ptr[11] = reinterpret_cast<SlotPtr>(t.sub_rows);
        v.ptr[12] = reinterpret_cast<SlotPtr>(t.fold_lazy_rows);
        v.ptr[13] = reinterpret_cast<SlotPtr>(t.fold_rescale_rows);
        v.ptr[14] = reinterpret_cast<SlotPtr>(t.tensor_rows);
        v.ptr[15] = reinterpret_cast<SlotPtr>(t.divide_round_rows);
        return v;
    };
    // Canonical tables, defining TU first: a pointer shared between
    // tables belongs to the table that defines it, so the scalar
    // reference (the ultimate borrow source) is checked before the
    // tables that borrow from it. First match wins; borrowed fallbacks
    // therefore surface under their real TU.
    struct Owner {
        const char *name;
        SlotView view;
    };
    const Owner owners[] = {
        {"scalar", slots(internal::ScalarKernels())},
        {"avx2", slots(internal::Avx2Kernels())},
        {"neon", slots(internal::NeonKernels())},
        {"avx512", slots(internal::Avx512Kernels())},
    };
    const SlotView target = slots(Get(backend));
    std::string out;
    for (std::size_t i = 0; i < 16; ++i) {
        const char *tu = "unknown";
        for (const Owner &o : owners) {
            if (o.view.ptr[i] == target.ptr[i]) {
                tu = o.name;
                break;
            }
        }
        out += kSlotNames[i];
        out += " -> ";
        out += tu;
        out += '\n';
    }
    return out;
}

}  // namespace hentt::simd
