/**
 * google-benchmark micro suite for the modular-multiplication
 * primitives — the CPU analogue of the paper's Fig. 1 comparison
 * (Shoup vs native vs Barrett) — plus per-kernel x per-backend columns
 * for the whole SIMD element-wise family (every Backend member on the
 * same 4096-element sweep; unavailable backends skip with an error
 * label). Each column times the backend's production table
 * (simd::Get), so a borrowed slot measures its scalar source. These
 * columns are the measurement base for the per-backend table verdicts
 * recorded in docs/ARCHITECTURE.md: the AVX2 Barrett-borrows and the
 * AVX-512 all-native flip.
 */

#include <benchmark/benchmark.h>

#include "common/modarith.h"
#include "common/montgomery.h"
#include "common/primegen.h"
#include "common/random.h"
#include "simd/simd_backend.h"

namespace {

using namespace hentt;

constexpr std::size_t kBatch = 4096;

struct Operands {
    Operands()
    {
        p = GenerateNttPrimes(1 << 14, 60, 1)[0];
        Xoshiro256 rng(7);
        for (std::size_t i = 0; i < kBatch; ++i) {
            a[i] = rng.NextBelow(p);
            w[i] = rng.NextBelow(p);
            w_shoup[i] = ShoupPrecompute(w[i], p);
        }
    }

    u64 p;
    u64 a[kBatch], w[kBatch], w_shoup[kBatch];
};

Operands &
Ops()
{
    static Operands ops;
    return ops;
}

void
BM_MulModNative(benchmark::State &state)
{
    auto &ops = Ops();
    for (auto _ : state) {
        u64 acc = 0;
        for (std::size_t i = 0; i < kBatch; ++i) {
            acc ^= MulModNative(ops.a[i], ops.w[i], ops.p);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}

void
BM_MulModShoup(benchmark::State &state)
{
    auto &ops = Ops();
    for (auto _ : state) {
        u64 acc = 0;
        for (std::size_t i = 0; i < kBatch; ++i) {
            acc ^= MulModShoup(ops.a[i], ops.w[i], ops.w_shoup[i], ops.p);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}

void
BM_MulModBarrett(benchmark::State &state)
{
    auto &ops = Ops();
    const BarrettReducer barrett(ops.p);
    for (auto _ : state) {
        u64 acc = 0;
        for (std::size_t i = 0; i < kBatch; ++i) {
            acc ^= barrett.MulMod(ops.a[i], ops.w[i]);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}

void
BM_MulModMontgomery(benchmark::State &state)
{
    auto &ops = Ops();
    const MontgomeryMultiplier mont(ops.p);
    // Pre-convert the twiddle side (as a real NTT would); data side
    // converts on the fly.
    u64 w_mont[kBatch];
    for (std::size_t i = 0; i < kBatch; ++i) {
        w_mont[i] = mont.ToMontgomery(ops.w[i]);
    }
    for (auto _ : state) {
        u64 acc = 0;
        for (std::size_t i = 0; i < kBatch; ++i) {
            acc ^= mont.MulMont(ops.a[i], w_mont[i]);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}

void
BM_ShoupPrecompute(benchmark::State &state)
{
    auto &ops = Ops();
    for (auto _ : state) {
        u64 acc = 0;
        for (std::size_t i = 0; i < kBatch; ++i) {
            acc ^= ShoupPrecompute(ops.w[i], ops.p);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
}

BENCHMARK(BM_MulModNative);
BENCHMARK(BM_MulModShoup);
BENCHMARK(BM_MulModBarrett);
BENCHMARK(BM_MulModMontgomery);
BENCHMARK(BM_ShoupPrecompute);

// ---------------------------------------------------------------------
// SIMD backend row kernels, per kernel x per backend (range(0) indexes
// kAllBackends). These are the loops the NTT and HE layers actually
// run; unavailable backends skip with an error so the column set stays
// stable across hosts.
// ---------------------------------------------------------------------

bool
SelectBackend(benchmark::State &state, simd::Backend &backend)
{
    backend = static_cast<simd::Backend>(state.range(0));
    if (!simd::BackendAvailable(backend)) {
        state.SkipWithError("backend unavailable on this host");
        return false;
    }
    return true;
}

void
BM_SimdMulShoupRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    const simd::Kernels &kernels = simd::Get(backend);
    const u64 s = ops.w[0];
    const u64 s_bar = ops.w_shoup[0];
    u64 dst[kBatch];
    for (auto _ : state) {
        kernels.mul_shoup_rows(dst, ops.a, kBatch, s, s_bar, ops.p);
        benchmark::DoNotOptimize(dst);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel(simd::BackendName(backend));
}

void
BM_SimdMulBarrettRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    // The AVX-512 vector Barrett tree against the scalar mulx loop
    // (the AVX2 column times the borrowed scalar slot; see
    // docs/ARCHITECTURE.md).
    const simd::Kernels &kernels = simd::Get(backend);
    const BarrettReducer red(ops.p);
    const simd::BarrettConsts consts = simd::Consts(red);
    u64 dst[kBatch];
    for (auto _ : state) {
        kernels.mul_barrett_rows(dst, ops.a, ops.w, kBatch, consts);
        benchmark::DoNotOptimize(dst);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel(simd::BackendName(backend));
}

void
BM_SimdFwdButterflyRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    const simd::Kernels &kernels = simd::Get(backend);
    u64 x[kBatch / 2], y[kBatch / 2];
    for (std::size_t i = 0; i < kBatch / 2; ++i) {
        x[i] = ops.a[i];
        y[i] = ops.a[kBatch / 2 + i];
    }
    for (auto _ : state) {
        kernels.fwd_butterfly_rows(x, y, kBatch / 2, ops.w[0],
                                   ops.w_shoup[0], ops.p);
        benchmark::DoNotOptimize(x);
        benchmark::DoNotOptimize(y);
    }
    state.SetItemsProcessed(state.iterations() * (kBatch / 2));
    state.SetLabel(simd::BackendName(backend));
}

void
BM_SimdMulAccBarrettRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    const simd::Kernels &kernels = simd::Get(backend);
    const BarrettReducer red(ops.p);
    const simd::BarrettConsts consts = simd::Consts(red);
    u64 dst[kBatch] = {};
    for (auto _ : state) {
        kernels.mul_acc_barrett_rows(dst, ops.a, ops.w, kBatch, consts);
        benchmark::DoNotOptimize(dst);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel(simd::BackendName(backend));
}

void
BM_SimdReduceBarrettRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    const simd::Kernels &kernels = simd::Get(backend);
    const BarrettReducer red(ops.p);
    const simd::BarrettConsts consts = simd::Consts(red);
    u64 dst[kBatch];
    for (auto _ : state) {
        kernels.reduce_barrett_rows(dst, ops.a, kBatch, consts);
        benchmark::DoNotOptimize(dst);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel(simd::BackendName(backend));
}

void
BM_SimdAddRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    const simd::Kernels &kernels = simd::Get(backend);
    u64 dst[kBatch];
    for (auto _ : state) {
        kernels.add_rows(dst, ops.a, ops.w, kBatch, ops.p, false);
        benchmark::DoNotOptimize(dst);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel(simd::BackendName(backend));
}

void
BM_SimdSubRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    const simd::Kernels &kernels = simd::Get(backend);
    u64 dst[kBatch];
    for (auto _ : state) {
        kernels.sub_rows(dst, ops.a, ops.w, kBatch, ops.p, false);
        benchmark::DoNotOptimize(dst);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel(simd::BackendName(backend));
}

void
BM_SimdFoldLazyRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    const simd::Kernels &kernels = simd::Get(backend);
    u64 x[kBatch];
    for (std::size_t i = 0; i < kBatch; ++i) {
        x[i] = ops.a[i];
    }
    for (auto _ : state) {
        kernels.fold_lazy_rows(x, kBatch, ops.p);
        benchmark::DoNotOptimize(x);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel(simd::BackendName(backend));
}

void
BM_SimdFoldRescaleRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    const simd::Kernels &kernels = simd::Get(backend);
    u64 dst[kBatch] = {};
    for (auto _ : state) {
        kernels.fold_rescale_rows(dst, ops.a, kBatch, ops.p, ops.w[0],
                                  ops.w_shoup[0]);
        benchmark::DoNotOptimize(dst);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel(simd::BackendName(backend));
}

void
BM_SimdTensorRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    const simd::Kernels &kernels = simd::Get(backend);
    const BarrettReducer red(ops.p);
    const simd::BarrettConsts consts = simd::Consts(red);
    u64 c0[kBatch], c1[kBatch], c2[kBatch];
    for (auto _ : state) {
        kernels.tensor_rows(c0, c1, c2, ops.a, ops.w, ops.w, ops.a,
                            kBatch, consts);
        benchmark::DoNotOptimize(c0);
        benchmark::DoNotOptimize(c1);
        benchmark::DoNotOptimize(c2);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel(simd::BackendName(backend));
}

void
BM_SimdDivideRoundRows(benchmark::State &state)
{
    simd::Backend backend;
    if (!SelectBackend(state, backend)) {
        return;
    }
    auto &ops = Ops();
    const simd::Kernels &kernels = simd::Get(backend);
    // Constants as the BGV mod-switch epilogue builds them: drop prime
    // q_k = ops.p, land in a second 55-bit q_i.
    const u64 qi = GenerateNttPrimes(1 << 14, 55, 1)[0];
    const u64 t = 65537;
    const BarrettReducer red(qi);
    simd::DivideRoundConsts c{};
    c.qk = ops.p;
    c.t_inv_qk = InvMod(t % c.qk, c.qk);
    c.t_inv_qk_bar = ShoupPrecompute(c.t_inv_qk, c.qk);
    c.qi = qi;
    c.qk_inv = InvMod(c.qk % qi, qi);
    c.qk_inv_bar = ShoupPrecompute(c.qk_inv, qi);
    c.t_mod_qi = t % qi;
    c.t_mod_qi_bar = ShoupPrecompute(c.t_mod_qi, qi);
    c.mu_lo = red.mu_lo();
    c.mu_hi = red.mu_hi();
    u64 src[kBatch], dst[kBatch];
    for (std::size_t i = 0; i < kBatch; ++i) {
        src[i] = ops.a[i] % qi;
    }
    for (auto _ : state) {
        kernels.divide_round_rows(dst, src, ops.a, kBatch, c);
        benchmark::DoNotOptimize(dst);
    }
    state.SetItemsProcessed(state.iterations() * kBatch);
    state.SetLabel(simd::BackendName(backend));
}

constexpr int kLastBackend = static_cast<int>(simd::kBackendCount) - 1;

BENCHMARK(BM_SimdMulShoupRows)->DenseRange(0, kLastBackend);
BENCHMARK(BM_SimdMulBarrettRows)->DenseRange(0, kLastBackend);
BENCHMARK(BM_SimdMulAccBarrettRows)->DenseRange(0, kLastBackend);
BENCHMARK(BM_SimdReduceBarrettRows)->DenseRange(0, kLastBackend);
BENCHMARK(BM_SimdAddRows)->DenseRange(0, kLastBackend);
BENCHMARK(BM_SimdSubRows)->DenseRange(0, kLastBackend);
BENCHMARK(BM_SimdFoldLazyRows)->DenseRange(0, kLastBackend);
BENCHMARK(BM_SimdFoldRescaleRows)->DenseRange(0, kLastBackend);
BENCHMARK(BM_SimdTensorRows)->DenseRange(0, kLastBackend);
BENCHMARK(BM_SimdDivideRoundRows)->DenseRange(0, kLastBackend);
BENCHMARK(BM_SimdFwdButterflyRows)->DenseRange(0, kLastBackend);

}  // namespace
