#ifndef VSAN_TENSOR_GEMM_H_
#define VSAN_TENSOR_GEMM_H_

#include <cstdint>

// Raw-buffer GEMM entry points behind the Tensor-level matmuls in
// tensor_ops.h.  All kernels compute C += op(A) * op(B) on contiguous
// row-major float buffers:
//   op(A) is [m, k]: A is [m, k] when !trans_a, [k, m] when trans_a.
//   op(B) is [k, n]: B is [k, n] when !trans_b, [n, k] when trans_b.
//
// The production kernel (Gemm / BatchedGemm) is cache-blocked and
// register-tiled: B panels (and A blocks) are packed into
// micro-tile-friendly layouts — which also makes the four transpose combos
// cost the same, since transposition is absorbed by the packing copy — and
// the inner loop is the unrolled micro-kernel in gemm_microkernel.h.
// Work is distributed over the global ThreadPool in units of whole M
// blocks, so a shard boundary can never split a micro-tile.
//
// The block sizes are compile-time constants in gemm.cc (see
// docs/ARCHITECTURE.md §12 for why they are fixed).
//
// Determinism: every element of C receives its k contributions in ascending
// p order starting from the value already in C, regardless of thread count
// or blocking.  Results are therefore bitwise-identical to ReferenceGemm
// below (locked down by tests/gemm_blocked_test.cc) and across thread
// counts {1, 2, 4, ...} (tests/parallel_equivalence_test.cc).

namespace vsan {

// C += op(A) * op(B), parallelized over M blocks on the global pool.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b);

// Per-batch C[i] += op(A[i]) * op(B[i]) on strided buffers; the flattened
// (batch, M-block) space is sharded over the pool so small batches of large
// matrices and large batches of small matrices both spread out.
void BatchedGemm(const float* a, const float* b, float* c, int64_t batch,
                 int64_t a_stride, int64_t b_stride, int64_t c_stride,
                 int64_t m, int64_t n, int64_t k, bool trans_a, bool trans_b);

// Serial naive triple loop, retained as the accumulation-order
// specification for the blocked kernel and as the oracle for its
// correctness tests.  Never used on a hot path.
void ReferenceGemm(const float* a, const float* b, float* c, int64_t m,
                   int64_t n, int64_t k, bool trans_a, bool trans_b);

}  // namespace vsan

#endif  // VSAN_TENSOR_GEMM_H_
