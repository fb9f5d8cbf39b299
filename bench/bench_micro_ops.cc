// Kernel micro-benchmarks (google-benchmark) backing the complexity
// analysis of Sec. IV-F: attention is O(n^2 d), the FFN O(n d^2), the output
// projection O(n d N).
//
// The parallelized kernels carry a trailing `threads` argument
// (1/2/4/hardware_concurrency, deduplicated) that resizes the global
// ThreadPool, so the emitted JSON captures the scaling curve of each kernel
// rather than a single-thread point.  Results are bitwise-identical across
// the sweep (tests/parallel_equivalence_test.cc); only the time changes.

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "nn/attention.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vsan {
namespace {

std::vector<int64_t> ThreadCounts() {
  std::vector<int64_t> counts = {1, 2, 4};
  const int64_t hw = std::thread::hardware_concurrency();
  if (hw > 4) counts.push_back(hw);
  return counts;
}

// The last benchmark argument is the pool size for this run.
void UseThreads(const benchmark::State& state, int arg_index) {
  ThreadPool::SetGlobalNumThreads(
      static_cast<int>(state.range(arg_index)));
}

void BM_MatMul2D(benchmark::State& state) {
  const int64_t n = state.range(0);
  UseThreads(state, 1);
  Rng rng(1);
  Tensor a = Tensor::RandomNormal({n, n}, &rng);
  Tensor b = Tensor::RandomNormal({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul2D(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul2D)->ArgsProduct({{32, 64, 128, 256}, ThreadCounts()});

void BM_MatMul2DTransposed(benchmark::State& state) {
  const int64_t n = state.range(0);
  UseThreads(state, 1);
  Rng rng(2);
  Tensor a = Tensor::RandomNormal({n, n}, &rng);
  Tensor b = Tensor::RandomNormal({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul2D(a, b, false, true));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul2DTransposed)->ArgsProduct({{64, 128}, ThreadCounts()});

void BM_BatchedMatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  UseThreads(state, 1);
  Rng rng(3);
  Tensor a = Tensor::RandomNormal({16, n, n}, &rng);
  Tensor b = Tensor::RandomNormal({16, n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BatchedMatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 16 * n * n * n);
}
BENCHMARK(BM_BatchedMatMul)->ArgsProduct({{16, 32, 64}, ThreadCounts()});

// Real model shapes: ScoreBatch's item-matrix product, the training logits
// projection, and the attention score block.
// Args are (m, n, k).
void BM_GemmModelShape(benchmark::State& state) {
  ThreadPool::SetGlobalNumThreads(1);
  const int64_t m = state.range(0);
  const int64_t n = state.range(1);
  const int64_t k = state.range(2);
  Rng rng(5);
  Tensor a = Tensor::RandomNormal({m, k}, &rng);
  Tensor b = Tensor::RandomNormal({k, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul2D(a, b));
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}
BENCHMARK(BM_GemmModelShape)
    ->Args({256, 4096, 64})     // score_batch
    ->Args({1024, 4096, 64})    // logits
    ->Args({200, 200, 64});     // attn_scores

void BM_SoftmaxLastDim(benchmark::State& state) {
  const int64_t cols = state.range(0);
  UseThreads(state, 1);
  Rng rng(4);
  Tensor x = Tensor::RandomNormal({256, cols}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SoftmaxLastDim(x));
  }
  state.SetItemsProcessed(state.iterations() * 256 * cols);
}
BENCHMARK(BM_SoftmaxLastDim)
    ->ArgsProduct({{128, 1024, 4096}, ThreadCounts()});

void BM_LayerNormForwardBackward(benchmark::State& state) {
  const int64_t d = state.range(0);
  ThreadPool::SetGlobalNumThreads(1);  // not a parallelized kernel
  Rng rng(5);
  Tensor x = Tensor::RandomNormal({256, d}, &rng);
  Tensor gamma = Tensor::Ones({d});
  Tensor beta = Tensor::Zeros({d});
  for (auto _ : state) {
    Variable xv(x, /*requires_grad=*/true);
    Variable gv(gamma, true);
    Variable bv(beta, true);
    Variable loss = ops::Mean(ops::LayerNorm(xv, gv, bv));
    loss.Backward();
    benchmark::DoNotOptimize(xv.grad());
  }
  state.SetItemsProcessed(state.iterations() * 256 * d);
}
BENCHMARK(BM_LayerNormForwardBackward)->Arg(32)->Arg(128);

void BM_EmbeddingLookup(benchmark::State& state) {
  const int64_t steps = state.range(0);
  ThreadPool::SetGlobalNumThreads(1);  // not a parallelized kernel
  Rng rng(6);
  Tensor table = Tensor::RandomNormal({5000, 64}, &rng);
  std::vector<int32_t> indices(64 * steps);
  for (auto& idx : indices) {
    idx = static_cast<int32_t>(rng.UniformInt(1, 4999));
  }
  Variable tv(table, /*requires_grad=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::EmbeddingLookup(tv, indices, 64, steps));
  }
  state.SetItemsProcessed(state.iterations() * 64 * steps);
}
BENCHMARK(BM_EmbeddingLookup)->Arg(30)->Arg(60);

// The O(n^2 d) claim: one self-attention block forward over [8, n, d].
void BM_AttentionBlockForward(benchmark::State& state) {
  const int64_t n = state.range(0);
  const int64_t d = state.range(1);
  UseThreads(state, 2);
  Rng rng(7);
  nn::SelfAttentionBlockConfig cfg;
  cfg.d = d;
  cfg.dropout = 0.0f;
  nn::SelfAttentionBlock block(cfg, &rng);
  block.SetTraining(false);
  Tensor mask = nn::MakeCausalMask(n);
  Tensor x = Tensor::RandomNormal({8, n, d}, &rng);
  Rng drop(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        block.Forward(Variable::Constant(x), mask, &drop));
  }
  state.SetItemsProcessed(state.iterations() * 8 * n * n * d);
}
BENCHMARK(BM_AttentionBlockForward)
    ->ArgsProduct({{16, 32, 64, 128}, {32}, ThreadCounts()})
    ->ArgsProduct({{64}, {64}, ThreadCounts()});

}  // namespace
}  // namespace vsan

BENCHMARK_MAIN();
