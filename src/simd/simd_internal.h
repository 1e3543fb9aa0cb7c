/**
 * @file
 * Backend-registration seam between simd_dispatch.cpp and the kernel
 * translation units: one table per ISA, one translation unit per
 * table. Not part of the public simd API.
 */

#ifndef HENTT_SIMD_SIMD_INTERNAL_H
#define HENTT_SIMD_SIMD_INTERNAL_H

#include "simd/simd_backend.h"

namespace hentt::simd::internal {

/** The scalar reference table (always real). */
const Kernels &ScalarKernels();

/**
 * The AVX2 table. When the build lacks -mavx2 support this returns
 * the scalar table; pair with Avx2CompiledIn()/cpu support before
 * trusting it to be vectorized. The 128-bit Barrett reduction family
 * and divide-and-round borrow the scalar implementation (the 32x32
 * partial-product assembly has not measurably beaten the scalar 64-bit
 * hardware multiply at four lanes — see ARCHITECTURE.md).
 */
const Kernels &Avx2Kernels();

/** Whether simd_avx2.cpp was built with AVX2 enabled. */
bool Avx2CompiledIn();

/**
 * The AVX-512 table (8 x u64 lanes), covering the full 16-slot
 * vocabulary natively. The butterfly family exploits vpmullq +
 * vpminuq + the 32-register file; the element-wise family carries the
 * same vpmullq advantage into the Shoup kernels and flips PR 4's
 * Barrett hybrid decision at 8 lanes (the 512-bit partial-product
 * tree beats the scalar mulx loops — see ARCHITECTURE.md for the
 * per-kernel measurements). No borrowed slots. Returns the scalar
 * table when the build lacks AVX-512 support; gate on
 * Avx512CompiledIn() + CPUID.
 */
const Kernels &Avx512Kernels();

/** Whether simd_avx512.cpp was built with AVX-512F/DQ enabled. */
bool Avx512CompiledIn();

/**
 * The NEON/arm64 table (2 x u64 lanes via uint64x2_t). Vectorizes the
 * butterfly family and the Shoup-style element-wise kernels with the
 * same 32x32 partial-product tree idiom as AVX2 (vmull_u32); the
 * Barrett reduction family and the branchy divide-and-round borrow
 * the scalar reference, mirroring the measured 4-lane AVX2 verdict
 * (no arm64 perf runner yet — provisional, recorded in
 * ARCHITECTURE.md). Returns the scalar table on non-arm64 builds;
 * gate on NeonCompiledIn().
 */
const Kernels &NeonKernels();

/** Whether simd_neon.cpp was built with AdvSIMD enabled (arm64). */
bool NeonCompiledIn();

}  // namespace hentt::simd::internal

#endif  // HENTT_SIMD_SIMD_INTERNAL_H
