#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/trace.h"
#include "tensor/gemm_microkernel.h"
#include "util/thread_pool.h"

namespace vsan {
namespace {

using internal::GemmMicroKernel;
using internal::kMicroM;
using internal::kMicroN;

// Minimum per-shard work (inner-loop multiply-adds) before a kernel loop is
// worth distributing over the pool; below it the block range runs serially.
constexpr int64_t kParallelGrainFlops = 1 << 14;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Cache blocking, fixed at compile time (docs/ARCHITECTURE.md §12):
//   kMc: rows of the packed A block (L2-resident).
//   kNc: columns of the packed B panel.
//   kKc: depth of both packs (one B strip of kKc * kMicroN floats fits in
//        L1 next to an A strip of kKc * kMicroM).
constexpr int64_t kMc = 48;
constexpr int64_t kNc = 256;
constexpr int64_t kKc = 256;
static_assert(kMc % kMicroM == 0 && kNc % kMicroN == 0,
              "GEMM blocks must be whole micro-tiles");

// ParallelFor grain in units of M blocks: a block is the atomic unit of
// scheduling, so shard boundaries always fall between packed blocks and can
// never split a micro-kernel tile.
int64_t GemmBlockGrain(int64_t n, int64_t k) {
  const int64_t flops_per_block =
      std::max<int64_t>(1, kMc * std::max<int64_t>(1, n * k));
  return std::max<int64_t>(1, kParallelGrainFlops / flops_per_block);
}

// Per-thread packing scratch, reused across calls.  Each shard packs its
// own A block and B panel, so shards share nothing but the read-only
// operands and their disjoint rows of C.
struct PackBuffers {
  std::vector<float> a;  // kMc x kKc, kMicroM-row strips
  std::vector<float> b;  // kKc x kNc, kMicroN-column strips
};
thread_local PackBuffers t_pack;

// Packs op(A)[ic:ic+mb, pc:pc+kb] into strips of kMicroM rows: strip s
// holds its kb steps contiguously as dst[p * kMicroM + i].  The last strip
// zero-pads to kMicroM rows so the micro-kernel never branches on mb; the
// padded lanes are computed and discarded, never stored.
void PackA(const float* a, int64_t m, int64_t k, bool trans_a, int64_t ic,
           int64_t pc, int64_t mb, int64_t kb, float* out) {
  const int64_t strips = CeilDiv(mb, kMicroM);
  for (int64_t s = 0; s < strips; ++s) {
    float* dst = out + s * kMicroM * kb;
    const int64_t i0 = ic + s * kMicroM;
    const int64_t rows = std::min<int64_t>(kMicroM, mb - s * kMicroM);
    if (!trans_a) {
      for (int64_t i = 0; i < rows; ++i) {
        const float* src = a + (i0 + i) * k + pc;
        for (int64_t p = 0; p < kb; ++p) dst[p * kMicroM + i] = src[p];
      }
    } else {
      // A is [k, m]: op(A)(i, p) = a[p * m + i], contiguous in i.
      for (int64_t p = 0; p < kb; ++p) {
        const float* src = a + (pc + p) * m + i0;
        for (int64_t i = 0; i < rows; ++i) dst[p * kMicroM + i] = src[i];
      }
    }
    for (int64_t p = 0; p < kb && rows < kMicroM; ++p) {
      for (int64_t i = rows; i < kMicroM; ++i) dst[p * kMicroM + i] = 0.0f;
    }
  }
}

// Packs op(B)[pc:pc+kb, jc:jc+nb] into strips of kMicroN columns
// (dst[p * kMicroN + j]), zero-padding the last strip to kMicroN columns.
void PackB(const float* b, int64_t k, int64_t n, bool trans_b, int64_t pc,
           int64_t jc, int64_t kb, int64_t nb, float* out) {
  const int64_t strips = CeilDiv(nb, kMicroN);
  for (int64_t t = 0; t < strips; ++t) {
    float* dst = out + t * kMicroN * kb;
    const int64_t j0 = jc + t * kMicroN;
    const int64_t cols = std::min<int64_t>(kMicroN, nb - t * kMicroN);
    if (!trans_b) {
      for (int64_t p = 0; p < kb; ++p) {
        const float* src = b + (pc + p) * n + j0;
        for (int64_t j = 0; j < cols; ++j) dst[p * kMicroN + j] = src[j];
        for (int64_t j = cols; j < kMicroN; ++j) dst[p * kMicroN + j] = 0.0f;
      }
    } else {
      // B is [n, k]: op(B)(p, j) = b[j * k + p], contiguous in p.
      for (int64_t j = 0; j < cols; ++j) {
        const float* src = b + (j0 + j) * k + pc;
        for (int64_t p = 0; p < kb; ++p) dst[p * kMicroN + j] = src[p];
      }
      for (int64_t j = cols; j < kMicroN; ++j) {
        for (int64_t p = 0; p < kb; ++p) dst[p * kMicroN + j] = 0.0f;
      }
    }
  }
}

// Runs the full jc/pc panel loops for M blocks [mblk0, mblk1) of one GEMM.
// This is the whole kernel for one shard: K blocks are visited in ascending
// order with C reloaded between them, so every element's accumulation chain
// is the reference chain no matter how blocks are sharded.
void GemmBlockRange(const float* a, const float* b, float* c, int64_t m,
                    int64_t n, int64_t k, bool trans_a, bool trans_b,
                    int64_t ldc, int64_t mblk0, int64_t mblk1) {
  PackBuffers& buf = t_pack;
  buf.a.resize(static_cast<size_t>(kMc * kKc));
  buf.b.resize(static_cast<size_t>(kKc * kNc));
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nb = std::min<int64_t>(kNc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kb = std::min<int64_t>(kKc, k - pc);
      {
        VSAN_TRACE_SPAN("gemm/pack_b", kKernel);
        PackB(b, k, n, trans_b, pc, jc, kb, nb, buf.b.data());
      }
      for (int64_t blk = mblk0; blk < mblk1; ++blk) {
        const int64_t ic = blk * kMc;
        const int64_t mb = std::min<int64_t>(kMc, m - ic);
        {
          VSAN_TRACE_SPAN("gemm/pack_a", kKernel);
          PackA(a, m, k, trans_a, ic, pc, mb, kb, buf.a.data());
        }
        VSAN_TRACE_SPAN("gemm/kernel", kKernel);
        for (int64_t jr = 0; jr < nb; jr += kMicroN) {
          const int64_t nr = std::min<int64_t>(kMicroN, nb - jr);
          for (int64_t ir = 0; ir < mb; ir += kMicroM) {
            const int64_t mr = std::min<int64_t>(kMicroM, mb - ir);
            const float* ap = buf.a.data() + (ir / kMicroM) * kMicroM * kb;
            const float* bp = buf.b.data() + (jr / kMicroN) * kMicroN * kb;
            float* ct = c + (ic + ir) * ldc + jc + jr;
            if (mr == kMicroM && nr == kMicroN) {
              GemmMicroKernel(ap, bp, kb, ct, ldc);
            } else {
              // Edge tile: run the same kernel on a scratch tile so the
              // arithmetic (and therefore the bit pattern) matches the
              // interior path, then copy back only the live region.
              float ctile[kMicroM * kMicroN] = {};
              for (int64_t i = 0; i < mr; ++i) {
                for (int64_t j = 0; j < nr; ++j) {
                  ctile[i * kMicroN + j] = ct[i * ldc + j];
                }
              }
              GemmMicroKernel(ap, bp, kb, ctile, kMicroN);
              for (int64_t i = 0; i < mr; ++i) {
                for (int64_t j = 0; j < nr; ++j) {
                  ct[i * ldc + j] = ctile[i * kMicroN + j];
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t n,
          int64_t k, bool trans_a, bool trans_b) {
  if (m <= 0 || n <= 0 || k <= 0) return;  // C += 0
  VSAN_TRACE_SPAN("gemm/gemm", kKernel);
  const int64_t mblocks = CeilDiv(m, kMc);
  ParallelFor(0, mblocks, GemmBlockGrain(n, k), [&](int64_t b0, int64_t b1) {
    GemmBlockRange(a, b, c, m, n, k, trans_a, trans_b, n, b0, b1);
  });
}

void BatchedGemm(const float* a, const float* b, float* c, int64_t batch,
                 int64_t a_stride, int64_t b_stride, int64_t c_stride,
                 int64_t m, int64_t n, int64_t k, bool trans_a,
                 bool trans_b) {
  if (batch <= 0 || m <= 0 || n <= 0 || k <= 0) return;
  VSAN_TRACE_SPAN("gemm/batched_gemm", kKernel);
  const int64_t mblocks = CeilDiv(m, kMc);
  ParallelFor(
      0, batch * mblocks, GemmBlockGrain(n, k),
      [&](int64_t f0, int64_t f1) {
        for (int64_t f = f0; f < f1;) {
          const int64_t bi = f / mblocks;
          const int64_t blk0 = f - bi * mblocks;
          const int64_t blk1 =
              std::min<int64_t>(mblocks, blk0 + (f1 - f));
          GemmBlockRange(a + bi * a_stride, b + bi * b_stride,
                         c + bi * c_stride, m, n, k, trans_a, trans_b, n, blk0,
                         blk1);
          f += blk1 - blk0;
        }
      });
}

void ReferenceGemm(const float* a, const float* b, float* c, int64_t m,
                   int64_t n, int64_t k, bool trans_a, bool trans_b) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        // On FMA hardware the blocked kernel's multiply-adds contract to
        // hardware FMAs (GCC/Clang default -ffp-contract=fast), so the
        // reference must too.  Written as an explicit std::fma because the
        // optimizer only *partially* contracts this reduction when it
        // unrolls it (GCC 12 emits a mix of vfmadd231ss and vmulss+vaddss
        // here), which would make "the" reference result depend on the
        // unroll factor.  std::fma lowers to a single vfmadd231ss under
        // -march with FMA, pinning one well-defined accumulation chain.
#if defined(__FMA__)
        acc = std::fma(av, bv, acc);
#else
        acc += av * bv;
#endif
      }
      c[i * n + j] = acc;
    }
  }
}

}  // namespace vsan
