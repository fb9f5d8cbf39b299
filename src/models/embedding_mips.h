#ifndef VSAN_MODELS_EMBEDDING_MIPS_H_
#define VSAN_MODELS_EMBEDDING_MIPS_H_

#include <string>
#include <vector>

#include "models/recommender.h"

namespace vsan {
namespace models {

// Minimal maximum-inner-product model for exercising the retrieval layer at
// catalog sizes no trainable model here could fit in a test's time budget
// (the million-item benchmarks and RSS audits).  The "model" is just a
// random item-embedding table plus optional per-item bias; a user's query
// vector is the mean of their fold-in items' embeddings, and scoring is the
// base class's factorized path, the same dense matmul every factorized model
// ends with — so its exact ScoreInto is an honest baseline for the fast
// backends, not a strawman.
//
// FitCatalog() initializes the table directly from a catalog size, skipping
// dataset construction entirely; Fit() forwards to it so the model still
// satisfies the SequentialRecommender contract on real datasets.
class EmbeddingMips : public SequentialRecommender {
 public:
  struct Config {
    int64_t d = 64;
    bool with_bias = true;  // exercise the bias path of the backends
    uint64_t seed = 97;
  };

  explicit EmbeddingMips(const Config& config) : config_(config) {}

  std::string name() const override { return "EmbeddingMIPS"; }

  void Fit(const data::SequenceDataset& train,
           const TrainOptions& options) override;

  // Builds the random table for a catalog of `num_items` items (row 0 is
  // the padding item and stays zero).
  void FitCatalog(int32_t num_items);

  bool GetFactorizedHead(FactorizedHead* head) const override;
  bool EncodeQueryInto(const std::vector<int32_t>& fold_in,
                       std::vector<float>* query) const override;

  int32_t num_items() const { return num_items_; }

 private:
  Config config_;
  int32_t num_items_ = 0;
  std::vector<float> table_;  // [num_items + 1, d] row-major
  std::vector<float> bias_;   // [num_items + 1]; empty when !with_bias
};

}  // namespace models
}  // namespace vsan

#endif  // VSAN_MODELS_EMBEDDING_MIPS_H_
