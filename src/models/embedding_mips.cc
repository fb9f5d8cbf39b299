#include "models/embedding_mips.h"

#include <cmath>

#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vsan {
namespace models {

void EmbeddingMips::Fit(const data::SequenceDataset& train,
                        const TrainOptions& options) {
  (void)options;  // nothing to train
  FitCatalog(train.num_items());
}

void EmbeddingMips::FitCatalog(int32_t num_items) {
  VSAN_CHECK_GT(num_items, 0);
  num_items_ = num_items;
  const int64_t rows = static_cast<int64_t>(num_items) + 1;
  table_.assign(static_cast<size_t>(rows * config_.d), 0.0f);
  bias_.clear();
  // Row-seeded init so the table is identical however it is (re)built and
  // large catalogs fill in parallel deterministically.
  const float scale = 1.0f / std::sqrt(static_cast<float>(config_.d));
  const uint64_t seed = config_.seed;
  ParallelFor(1, rows, 1024, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      Rng rng(MixSeed(seed, static_cast<uint64_t>(r)));
      float* row = table_.data() + r * config_.d;
      for (int64_t j = 0; j < config_.d; ++j) {
        row[j] = static_cast<float>(rng.Uniform(-1.0, 1.0)) * scale;
      }
    }
  });
  if (config_.with_bias) {
    bias_.assign(static_cast<size_t>(rows), 0.0f);
    ParallelFor(1, rows, 4096, [&](int64_t begin, int64_t end) {
      for (int64_t r = begin; r < end; ++r) {
        Rng rng(MixSeed(seed ^ 0x5bd1e995u, static_cast<uint64_t>(r)));
        bias_[r] = static_cast<float>(rng.Uniform(-0.01, 0.01));
      }
    });
  }
}

bool EmbeddingMips::GetFactorizedHead(FactorizedHead* head) const {
  VSAN_CHECK_GT(num_items_, 0)
      << "Fit() must be called before GetFactorizedHead()";
  head->dim = config_.d;
  head->num_rows = static_cast<int64_t>(num_items_) + 1;
  head->weights = table_.data();
  head->items_are_rows = true;
  head->bias = bias_.empty() ? nullptr : bias_.data();
  return true;
}

bool EmbeddingMips::EncodeQueryInto(const std::vector<int32_t>& fold_in,
                                    std::vector<float>* query) const {
  VSAN_CHECK_GT(num_items_, 0)
      << "Fit() must be called before EncodeQueryInto()";
  query->assign(static_cast<size_t>(config_.d), 0.0f);
  int64_t used = 0;
  for (int32_t item : fold_in) {
    if (item <= 0 || item > num_items_) continue;
    const float* row = table_.data() + static_cast<int64_t>(item) * config_.d;
    for (int64_t j = 0; j < config_.d; ++j) (*query)[j] += row[j];
    ++used;
  }
  if (used > 0) {
    const float inv = 1.0f / static_cast<float>(used);
    for (int64_t j = 0; j < config_.d; ++j) (*query)[j] *= inv;
  }
  return true;
}

}  // namespace models
}  // namespace vsan
