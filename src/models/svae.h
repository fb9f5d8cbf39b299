#ifndef VSAN_MODELS_SVAE_H_
#define VSAN_MODELS_SVAE_H_

#include <memory>

#include "models/recommender.h"
#include "nn/embedding.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "util/rng.h"

namespace vsan {
namespace models {

// SVAE (Sachdeva et al. 2019): a recurrent VAE.  A GRU consumes the item
// sequence; each hidden state parameterizes a Gaussian posterior whose
// sample is decoded by a feed-forward network into next-k item
// probabilities.  Trained on the ELBO with KL annealing.  The VAE+RNN
// baseline that VSAN's attention-based inference/generation replaces.
class Svae : public SequentialRecommender {
 public:
  struct Config {
    int64_t max_len = 50;
    int64_t d = 64;        // embedding size
    int64_t hidden = 64;   // GRU state size
    int64_t latent = 32;   // z dimension
    int32_t next_k = 1;    // how many future items each position predicts
    float dropout = 0.2f;
    float beta_max = 0.2f;       // KL weight after annealing
    int64_t anneal_steps = 500;  // linear warm-up steps
    uint64_t seed = 41;
  };

  explicit Svae(const Config& config) : config_(config) {}

  std::string name() const override { return "SVAE"; }

  void Fit(const data::SequenceDataset& train,
           const TrainOptions& options) override;

  // Scoring is the base class's factorized path: the output Linear's
  // weight columns are the item vectors; the query is the decoder's
  // pre-projection feature vector (Net::DecodeHidden) at the last real
  // position's posterior mean.
  bool GetFactorizedHead(FactorizedHead* head) const override;
  bool EncodeQueryInto(const std::vector<int32_t>& fold_in,
                       std::vector<float>* query) const override;

  // Trained network (null before Fit); exposed for checkpoint tests that
  // compare parameters bitwise across resumed runs.
  const nn::Module* module() const { return net_.get(); }

 private:
  struct Net : public nn::Module {
    Net(const Config& config, int32_t num_items, Rng* rng);

    struct Outputs {
      Variable z;       // [B*n, latent] sampled latent (mu at eval time)
      Variable mu;      // [B*n, latent]
      Variable logvar;  // [B*n, latent]
    };

    // inputs: flattened [B * max_len] right-padded ids.  Runs the encoder
    // and latent layer; decode selected rows with Decode().
    Outputs Forward(const std::vector<int32_t>& inputs, int64_t batch,
                    Rng* rng) const;

    // Decoder feed-forward stack on 2-D latent rows [R, latent], stopped
    // before the output projection: -> [R, hidden].
    Variable DecodeHidden(const Variable& z_rows, Rng* rng) const;

    // Decoder on 2-D latent rows [R, latent] -> [R, num_items+1].
    Variable Decode(const Variable& z_rows, Rng* rng) const;

    Config config;
    nn::Embedding item_emb;
    nn::Gru gru;
    nn::Linear mu_head;
    nn::Linear logvar_head;
    nn::Linear dec1;
    nn::Linear output;
  };

  Config config_;
  int32_t num_items_ = 0;
  std::unique_ptr<Net> net_;
  mutable Rng rng_{41};
};

}  // namespace models
}  // namespace vsan

#endif  // VSAN_MODELS_SVAE_H_
