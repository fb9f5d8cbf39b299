#ifndef VSAN_MODELS_GRU4REC_H_
#define VSAN_MODELS_GRU4REC_H_

#include <memory>

#include "models/recommender.h"
#include "nn/embedding.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "util/rng.h"

namespace vsan {
namespace models {

// GRU4Rec (Hidasi et al. 2016): item embeddings feed a GRU; each hidden
// state predicts the next item.  Trained here with full-softmax
// cross-entropy (the original's sampled pairwise losses are a training-cost
// optimization; the softmax objective is loss-consistent with the other
// sequence models, see DESIGN.md).  Sequences are right-padded so leading
// padding never pollutes the recurrent state.
class Gru4Rec : public SequentialRecommender {
 public:
  struct Config {
    int64_t max_len = 50;
    int64_t d = 64;       // embedding size
    int64_t hidden = 64;  // GRU state size
    float dropout = 0.2f;
    uint64_t seed = 31;
  };

  explicit Gru4Rec(const Config& config) : config_(config) {}

  std::string name() const override { return "GRU4Rec"; }

  void Fit(const data::SequenceDataset& train,
           const TrainOptions& options) override;

  // Scoring is the base class's factorized path: the output Linear's
  // [hidden, V+1] weight columns are the item vectors; the query is the
  // last real position's GRU state.
  bool GetFactorizedHead(FactorizedHead* head) const override;
  bool EncodeQueryInto(const std::vector<int32_t>& fold_in,
                       std::vector<float>* query) const override;

 private:
  struct Net : public nn::Module {
    Net(const Config& config, int32_t num_items, Rng* rng);

    // inputs: flattened [B * max_len] right-padded ids.
    // Returns hidden states [B, max_len, hidden].
    Variable Encode(const std::vector<int32_t>& inputs, int64_t batch,
                    Rng* rng) const;

    // Output projection on 2-D rows [R, hidden] -> [R, num_items+1].
    Variable Logits(const Variable& rows) const { return output.Forward(rows); }

    Config config;
    nn::Embedding item_emb;
    nn::Gru gru;
    nn::Linear output;
  };

  Config config_;
  int32_t num_items_ = 0;
  std::unique_ptr<Net> net_;
  mutable Rng rng_{31};
};

}  // namespace models
}  // namespace vsan

#endif  // VSAN_MODELS_GRU4REC_H_
