#ifndef VSAN_MODELS_SASREC_H_
#define VSAN_MODELS_SASREC_H_

#include <memory>
#include <vector>

#include "models/recommender.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/module.h"
#include "util/rng.h"

namespace vsan {
namespace models {

// SASRec (Kang & McAuley 2018): item + learned position embeddings feed a
// stack of causal self-attention blocks; per-position next-item logits come
// from the tied item-embedding table.  The strongest deterministic baseline
// in Table III and the skeleton VSAN builds on.
class SasRec : public SequentialRecommender {
 public:
  enum class LossType {
    kFullSoftmax,  // exact softmax over all items (this repo's default;
                   // loss-consistent with the other sequence models)
    kSampledBce,   // the original paper's binary CE with sampled negatives
  };

  struct Config {
    int64_t max_len = 50;
    int64_t d = 64;
    int32_t num_blocks = 2;
    float dropout = 0.2f;
    LossType loss = LossType::kFullSoftmax;
    int32_t num_negatives = 1;  // negatives per positive for kSampledBce
    uint64_t seed = 29;
  };

  explicit SasRec(const Config& config) : config_(config) {}

  std::string name() const override { return "SASRec"; }

  void Fit(const data::SequenceDataset& train,
           const TrainOptions& options) override;

  // Scoring is the base class's factorized path: logits are hidden .
  // item_emb row (tied table, no bias), so the head is the embedding table
  // and the query is the last position's hidden state.
  bool GetFactorizedHead(FactorizedHead* head) const override;
  // A batch of one through EncodeBatchInto.
  bool EncodeQueryInto(const std::vector<int32_t>& fold_in,
                       std::vector<float>* query) const override;
  // One Encode over the whole batch (see models/recommender.h).
  bool EncodeBatchInto(const std::vector<std::vector<int32_t>>& fold_ins,
                       std::vector<float>* queries) const override;

  int64_t NumParameters() const {
    return net_ ? net_->NumParameters() : 0;
  }

  // Trained network (null before Fit); exposed for checkpoint tests that
  // compare parameters bitwise across resumed runs.
  const nn::Module* module() const { return net_.get(); }

 private:
  // The trainable network, built lazily in Fit() once the item count is
  // known.
  struct Net : public nn::Module {
    Net(const Config& config, int32_t num_items, Rng* rng);

    // inputs: flattened [B * max_len] left-padded item ids.
    // Returns per-position hidden states [B, max_len, d].
    Variable Encode(const std::vector<int32_t>& inputs, int64_t batch,
                    Rng* rng) const;

    // Tied output projection: [B, n, d] -> [B, n, num_items+1].
    Variable Logits(const Variable& hidden) const;

    Config config;
    nn::Embedding item_emb;
    Variable pos_emb;  // [max_len, d]
    std::vector<std::unique_ptr<nn::SelfAttentionBlock>> blocks;
    Tensor causal_mask;
  };

  Config config_;
  int32_t num_items_ = 0;
  std::unique_ptr<Net> net_;
  mutable Rng rng_{29};
};

}  // namespace models
}  // namespace vsan

#endif  // VSAN_MODELS_SASREC_H_
