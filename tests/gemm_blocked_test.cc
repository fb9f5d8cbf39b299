// Correctness suite for the cache-blocked, register-tiled GEMM
// (src/tensor/gemm.cc) against the retained serial naive reference
// (ReferenceGemm).  The kernel's contract is stronger than "numerically
// close": because every output element accumulates its k contributions in
// ascending p order starting from the existing C value — regardless of
// transpose flags, thread count, or blocking — the blocked result must be
// bitwise-identical to the reference on every shape tested here.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vsan {
namespace {

struct Shape {
  int64_t m, k, n;
};

// Tiny, odd and prime extents: every combination of full tiles, partial
// edge tiles, single-element matrices and multi-block M ranges.  The last
// shape crosses every block boundary of the production blocking
// (mc=48, kc=256, nc=256): 3 M blocks, 2 K slabs (C reloaded between
// them), 3 N panels, and edge tiles on every side.
const Shape kShapes[] = {
    {1, 1, 1}, {3, 5, 7}, {17, 31, 13}, {129, 65, 33}, {97, 300, 530}};
const int kThreadCounts[] = {1, 2, 4};

class GemmBlockedTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::SetGlobalNumThreads(ThreadPool::DefaultNumThreads());
  }
};

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (!a.SameShape(b)) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// Builds the operands for op(A)[m,k] * op(B)[k,n] under the given flags.
void MakeOperands(const Shape& s, bool trans_a, bool trans_b, Rng* rng,
                  Tensor* a, Tensor* b) {
  *a = Tensor::RandomNormal(trans_a ? std::vector<int64_t>{s.k, s.m}
                                    : std::vector<int64_t>{s.m, s.k},
                            rng);
  *b = Tensor::RandomNormal(trans_b ? std::vector<int64_t>{s.n, s.k}
                                    : std::vector<int64_t>{s.k, s.n},
                            rng);
}

Tensor RunReference(const Tensor& a, const Tensor& b, const Shape& s,
                    bool trans_a, bool trans_b) {
  Tensor c({s.m, s.n});
  ReferenceGemm(a.data(), b.data(), c.data(), s.m, s.n, s.k, trans_a,
                trans_b);
  return c;
}

TEST_F(GemmBlockedTest, BitwiseMatchesReferenceAllCombosShapesThreads) {
  int seed = 500;
  for (const Shape& s : kShapes) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        Rng rng(++seed);
        Tensor a, b;
        MakeOperands(s, trans_a, trans_b, &rng, &a, &b);
        const Tensor ref = RunReference(a, b, s, trans_a, trans_b);
        for (int threads : kThreadCounts) {
          ThreadPool::SetGlobalNumThreads(threads);
          const Tensor got = MatMul2D(a, b, trans_a, trans_b);
          EXPECT_TRUE(BitwiseEqual(ref, got))
              << s.m << "x" << s.k << "x" << s.n << " trans_a=" << trans_a
              << " trans_b=" << trans_b << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(GemmBlockedTest, AccumulateFromNonZeroOutputBitwise) {
  // AccumulateMatMul2D is the backward-pass entry point: C starts non-zero
  // and the kernel must extend each element's addition chain, not restart
  // it.
  int seed = 900;
  for (const Shape& s : kShapes) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        Rng rng(++seed);
        Tensor a, b;
        MakeOperands(s, trans_a, trans_b, &rng, &a, &b);
        const Tensor init = Tensor::RandomNormal({s.m, s.n}, &rng);
        Tensor ref = init;
        ReferenceGemm(a.data(), b.data(), ref.data(), s.m, s.n, s.k, trans_a,
                      trans_b);
        for (int threads : kThreadCounts) {
          ThreadPool::SetGlobalNumThreads(threads);
          Tensor got = init;
          AccumulateMatMul2D(a, b, trans_a, trans_b, &got);
          EXPECT_TRUE(BitwiseEqual(ref, got))
              << s.m << "x" << s.k << "x" << s.n << " trans_a=" << trans_a
              << " trans_b=" << trans_b << " threads=" << threads;
        }
      }
    }
  }
}

TEST_F(GemmBlockedTest, BatchedMatMulBitwiseMatchesPerBatchReference) {
  Rng rng(777);
  const int64_t batch = 5, m = 17, k = 13, n = 31;
  const Tensor a = Tensor::RandomNormal({batch, m, k}, &rng);
  const Tensor b = Tensor::RandomNormal({batch, k, n}, &rng);
  Tensor ref({batch, m, n});
  for (int64_t i = 0; i < batch; ++i) {
    ReferenceGemm(a.data() + i * m * k, b.data() + i * k * n,
                  ref.data() + i * m * n, m, n, k, false, false);
  }
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalNumThreads(threads);
    EXPECT_TRUE(BitwiseEqual(ref, BatchedMatMul(a, b)))
        << "threads=" << threads;
  }
}

TEST_F(GemmBlockedTest, BroadcastBitwiseMatchesFlattenedReference) {
  Rng rng(778);
  const Tensor a = Tensor::RandomNormal({3, 11, 8}, &rng);
  const Tensor w = Tensor::RandomNormal({19, 8}, &rng);  // used transposed
  Tensor ref({3 * 11, 19});
  ReferenceGemm(a.data(), w.data(), ref.data(), 3 * 11, 19, 8, false, true);
  for (int threads : kThreadCounts) {
    ThreadPool::SetGlobalNumThreads(threads);
    const Tensor got = BatchedMatMulBroadcast(a, w, /*trans_w=*/true);
    EXPECT_TRUE(BitwiseEqual(ref, got.Reshaped({3 * 11, 19})))
        << "threads=" << threads;
  }
}

TEST_F(GemmBlockedTest, TransposeCombosAgreeWithEachOtherBitwise) {
  // Packing canonicalizes both operands, so the same product computed
  // through any transpose combo runs the identical accumulation chain.
  Rng rng(779);
  const Tensor a = Tensor::RandomNormal({33, 17}, &rng);
  const Tensor b = Tensor::RandomNormal({17, 29}, &rng);
  const Tensor at = Transpose2D(a);
  const Tensor bt = Transpose2D(b);
  const Tensor nn = MatMul2D(a, b);
  EXPECT_TRUE(BitwiseEqual(nn, MatMul2D(a, bt, false, true)));
  EXPECT_TRUE(BitwiseEqual(nn, MatMul2D(at, b, true, false)));
  EXPECT_TRUE(BitwiseEqual(nn, MatMul2D(at, bt, true, true)));
}

}  // namespace
}  // namespace vsan
