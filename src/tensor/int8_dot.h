#ifndef VSAN_TENSOR_INT8_DOT_H_
#define VSAN_TENSOR_INT8_DOT_H_

#include <cmath>
#include <cstdint>
#include <cstring>

// Dot-product kernels for the retrieval backends (eval/retrieval.h), kept
// next to gemm_microkernel.h because they follow the same discipline: a
// GNU-vector-extension body so the hot loop does not depend on what the
// auto-vectorizer feels like doing, a scalar fallback with identical
// semantics for non-GNU compilers, and a pinned accumulation order where
// floating point is involved.
//
// DotInt8 is the quantized scan kernel: int8 x int8 -> int32 with exact
// integer accumulation (no rounding anywhere, so the result is trivially
// identical across compilers, vector widths, and thread counts).  Widening
// is int8 -> int16 multiply -> int32 accumulate; the int16 product is safe
// for any int8 inputs (|a*b| <= 16384 < 32767) and the int32 lanes hold
// ~2^17 worst-case products, far beyond any embedding width here.
//
// DotFma is the fp32 oracle kernel: a single ascending-index multiply-add
// chain, contracted to hardware FMA exactly like ReferenceGemm
// (tensor/gemm.h).  Since the blocked Gemm is bitwise-equal to
// ReferenceGemm, a score computed by DotFma over an item vector equals the
// corresponding element of the model's logits matmul bit for bit — this is
// what lets the IVF backend at nprobe == clusters reproduce the exact
// evaluator ranking, and it is why this loop must never be rewritten as a
// vectorized (reassociated) reduction.
//
// These kernels have no cache blocking.  The GEMM's mc/nc/kc tiling
// (tensor/gemm.cc) exists to keep *packed, reused* panels resident across a
// three-deep loop nest; the retrieval scan is the opposite shape of
// problem: one query vector (d floats, lives in L1 for the whole scan)
// streamed against each item row exactly once.  There is no packing stage
// and no reuse to tile for — the scan is memory-bandwidth-bound on the item
// matrix, which is why the int8 path wins by shrinking bytes-per-row 4x,
// not by reordering loops.

namespace vsan {
namespace internal {

// Quantized rows are padded with zeros to a multiple of kInt8Block so the
// vector body needs no scalar tail.
inline constexpr int64_t kInt8Block = 16;

#if defined(__GNUC__) || defined(__clang__)

inline int32_t DotInt8(const int8_t* __restrict a, const int8_t* __restrict b,
                       int64_t n) {
  typedef int8_t V8 __attribute__((vector_size(16)));
  typedef int16_t V16 __attribute__((vector_size(32)));
  typedef int32_t V32 __attribute__((vector_size(64)));
  V32 acc = {};
  for (int64_t p = 0; p < n; p += kInt8Block) {
    V8 av;
    V8 bv;
    std::memcpy(&av, a + p, sizeof(av));
    std::memcpy(&bv, b + p, sizeof(bv));
    const V16 prod =
        __builtin_convertvector(av, V16) * __builtin_convertvector(bv, V16);
    acc += __builtin_convertvector(prod, V32);
  }
  int32_t sum = 0;
  for (int64_t i = 0; i < kInt8Block; ++i) sum += acc[i];
  return sum;
}

#else  // portable scalar fallback, same (exact) integer arithmetic

inline int32_t DotInt8(const int8_t* a, const int8_t* b, int64_t n) {
  int32_t sum = 0;
  for (int64_t p = 0; p < n; ++p) {
    sum += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
  }
  return sum;
}

#endif

// The million-item scan kernel: one biased-unsigned query against two
// consecutive item rows.  This is the one loop in the file written as a
// plain scalar reduction rather than GNU vectors, deliberately: a
// lane-crossing multiply-accumulate cannot be expressed with vector
// extensions, but this exact scalar shape is the dot-product idiom
// compilers pattern-match into the mixed-sign hardware instruction
// (vpdpbusd under AVX-512 VNNI — one instruction per 64 bytes of row, vs
// widen-multiply-add sequences for the signed x signed form, which is why
// the caller biases the query instead of calling DotInt8).  Measured on
// the reference box: ~17 GB/s vs ~12 GB/s for the best signed variant,
// against an ~18.6 GB/s streaming-read ceiling.  Sharing one query load
// across two rows is what closes that last gap.
//
// The bias trick is exact integer math, so results are identical to
// DotInt8 everywhere: with u[p] = q[p] + 128,
//
//   dot(u, b) = dot(q, b) + 128 * sum(b)
//
// and the caller subtracts the precomputed 128 * sum(row) correction
// (int32-safe: 255 * 127 * n stays under 2^31 for any n < 66k).
inline void DotInt8PairU(const uint8_t* __restrict u,
                         const int8_t* __restrict b0,
                         const int8_t* __restrict b1, int64_t n, int32_t* s0,
                         int32_t* s1) {
  int32_t acc0 = 0;
  int32_t acc1 = 0;
  for (int64_t p = 0; p < n; ++p) {
    const int32_t uq = u[p];
    acc0 += uq * static_cast<int32_t>(b0[p]);
    acc1 += uq * static_cast<int32_t>(b1[p]);
  }
  *s0 = acc0;
  *s1 = acc1;
}

// Ascending-index fp32 multiply-add chain starting from 0, matching
// ReferenceGemm's per-element accumulation order (see header comment).
inline float DotFma(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t p = 0; p < n; ++p) {
#if defined(__FMA__)
    acc = std::fma(a[p], b[p], acc);
#else
    acc += a[p] * b[p];
#endif
  }
  return acc;
}

// Same chain with a strided second operand: item i of a Linear layer's
// [in, out] weight is the column b[p * stride + i], so heads in that layout
// are scored without transposing the matrix.
inline float DotFmaStrided(const float* a, const float* b, int64_t n,
                           int64_t stride) {
  float acc = 0.0f;
  for (int64_t p = 0; p < n; ++p) {
#if defined(__FMA__)
    acc = std::fma(a[p], b[p * stride], acc);
#else
    acc += a[p] * b[p * stride];
#endif
  }
  return acc;
}

}  // namespace internal
}  // namespace vsan

#endif  // VSAN_TENSOR_INT8_DOT_H_
