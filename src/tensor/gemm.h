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
// Determinism: every element of C receives its k contributions in ascending
// p order starting from the value already in C, regardless of thread count
// or block sizes.  Results are therefore bitwise-identical to ReferenceGemm
// below (locked down by tests/gemm_blocked_test.cc) and across thread
// counts {1, 2, 4, ...} (tests/parallel_equivalence_test.cc).

namespace vsan {

// Cache-blocking parameters, tunable at runtime so benchmarks can sweep
// them (see BM_MatMul2DBlockSweep in bench_micro_ops.cc).
//   mc: rows of the packed A block (L2-resident; rounded up to kMicroM).
//   nc: columns of the packed B panel (rounded up to kMicroN).
//   kc: depth of both packs (one B strip of kc * kMicroN floats should fit
//       comfortably in L1 next to an A strip of kc * kMicroM).
struct GemmBlockSizes {
  int64_t mc = 48;
  int64_t nc = 256;
  int64_t kc = 256;
};

// Returns the active block sizes (already rounded/clamped).
GemmBlockSizes GetGemmBlockSizes();

// Replaces the active block sizes; values are clamped to >= 1 and mc/nc are
// rounded up to micro-tile multiples.  The three fields are stored as
// relaxed atomics, so this may be called while kernels are in flight (the
// lazy VSAN_AUTOTUNE sweep applies its result exactly this way): each
// Gemm call copies the sizes once at entry, so an in-flight call finishes
// with the configuration it started with and the next call picks up the
// new one.  Changing block sizes never changes results (see the
// determinism note above).
void SetGemmBlockSizes(const GemmBlockSizes& sizes);

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
