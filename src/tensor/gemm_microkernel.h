#ifndef VSAN_TENSOR_GEMM_MICROKERNEL_H_
#define VSAN_TENSOR_GEMM_MICROKERNEL_H_

#include <cmath>
#include <cstdint>
#include <cstring>

// The register-tiled inner kernel of the blocked GEMM (tensor/gemm.cc).
//
// Kept in its own header so the hot loop stays a single, self-contained
// function behind a fixed signature: the blocking/packing code never needs
// to change when the kernel body does, and a hand-written SIMD-intrinsics
// variant can later slot in the same way.
//
// The body uses GNU vector extensions (GCC/Clang) rather than relying on
// the auto-vectorizer: a plain scalar 6x16 tile loop leaves the accumulator
// tile in stack memory and gets sliced into narrow 16-byte vectors (GCC 12,
// verified with -fopt-info-vec), which is slower than the naive kernel it
// replaces.  With an explicit vector type the compiler keeps the 6 row
// accumulators in vector registers and emits one FMA per row per k step
// (two on AVX2, where a 64-byte vector splits across two ymm registers).
// A scalar fallback covers non-GNU compilers.
//
// Accumulation-order contract: element (i, j) of the tile starts from the
// value already in C and receives its k contributions in ascending p order,
// one (contracted) multiply-add at a time.  That is exactly the order of
// the serial reference kernel (ReferenceGemm in tensor/gemm.h), which is
// what makes the blocked kernel bitwise-reproducible across thread counts
// and block sizes: neither the M/N tiling nor the K blocking (C is spilled
// to and reloaded from fp32 memory between K blocks, which is
// value-preserving) changes any element's addition chain.

namespace vsan {
namespace internal {

// Micro-tile extents: C tiles are kMicroM x kMicroN.  Chosen so the
// accumulator tile plus one packed B strip and one broadcast A value fit
// the 16 x 256-bit vector registers of AVX2 (6 x 16 floats = 12 ymm
// accumulators) while still giving ~3 FLOPs per loaded float.
inline constexpr int64_t kMicroM = 6;
inline constexpr int64_t kMicroN = 16;

// C[0:kMicroM, 0:kMicroN] (row stride ldc) += Apack-strip * Bpack-strip.
//
//   ap: packed A strip, kb steps of kMicroM values (ap[p*kMicroM + i]).
//   bp: packed B strip, kb steps of kMicroN values (bp[p*kMicroN + j]).
//
// The full kMicroM x kMicroN tile of C must be addressable; callers with a
// partial edge tile route through a scratch tile (see gemm.cc).
#if defined(__GNUC__) || defined(__clang__)

inline void GemmMicroKernel(const float* __restrict ap,
                            const float* __restrict bp, int64_t kb,
                            float* __restrict c, int64_t ldc) {
  typedef float Vec __attribute__((vector_size(kMicroN * sizeof(float))));
  Vec acc[kMicroM];
  for (int64_t i = 0; i < kMicroM; ++i) {
    std::memcpy(&acc[i], c + i * ldc, sizeof(Vec));
  }
  for (int64_t p = 0; p < kb; ++p) {
    Vec bv;
    std::memcpy(&bv, bp + p * kMicroN, sizeof(Vec));
    const float* a = ap + p * kMicroM;
    for (int64_t i = 0; i < kMicroM; ++i) acc[i] += a[i] * bv;
  }
  for (int64_t i = 0; i < kMicroM; ++i) {
    std::memcpy(c + i * ldc, &acc[i], sizeof(Vec));
  }
}

#else  // portable scalar fallback, same accumulation order

inline void GemmMicroKernel(const float* ap, const float* bp, int64_t kb,
                            float* c, int64_t ldc) {
  float acc[kMicroM][kMicroN];
  for (int64_t i = 0; i < kMicroM; ++i) {
    for (int64_t j = 0; j < kMicroN; ++j) acc[i][j] = c[i * ldc + j];
  }
  for (int64_t p = 0; p < kb; ++p) {
    const float* a = ap + p * kMicroM;
    const float* b = bp + p * kMicroN;
    for (int64_t i = 0; i < kMicroM; ++i) {
      const float a_ip = a[i];
      for (int64_t j = 0; j < kMicroN; ++j) {
        // Mirror ReferenceGemm: a single contracted multiply-add on FMA
        // hardware, a rounded multiply then add elsewhere.
#if defined(__FMA__)
        acc[i][j] = std::fma(a_ip, b[j], acc[i][j]);
#else
        acc[i][j] += a_ip * b[j];
#endif
      }
    }
  }
  for (int64_t i = 0; i < kMicroM; ++i) {
    for (int64_t j = 0; j < kMicroN; ++j) c[i * ldc + j] = acc[i][j];
  }
}

#endif

}  // namespace internal
}  // namespace vsan

#endif  // VSAN_TENSOR_GEMM_MICROKERNEL_H_
