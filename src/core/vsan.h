#ifndef VSAN_CORE_VSAN_H_
#define VSAN_CORE_VSAN_H_

#include <memory>
#include <string>
#include <vector>

#include "models/recommender.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "util/rng.h"
#include "util/status.h"

namespace vsan {
namespace core {

// Configuration of the Variational Self-Attention Network (Sec. IV).
struct VsanConfig {
  int64_t max_len = 50;  // n, the modeled sequence length
  int64_t d = 64;        // embedding dimension

  int32_t h1 = 1;  // inference self-attention blocks (Eq. 11)
  int32_t h2 = 1;  // generative self-attention blocks (Eq. 17)

  // Attention heads per block.  The paper (and SASRec) use single-head
  // attention; multi-head is provided as a Transformer-faithful extension
  // (bench_ablation_heads measures it).
  int32_t num_heads = 1;

  // k of Eq. 18: each position's target is the next k items (multi-hot).
  int32_t next_k = 1;

  float dropout = 0.2f;

  // KL weight (Eq. 20).  With fixed_beta < 0 (default), beta anneals
  // linearly 0 -> beta_max over anneal_steps optimization steps (Sec. IV-E,
  // KL annealing); otherwise beta is held at fixed_beta (Fig. 6 ablation).
  float beta_max = 0.2f;
  int64_t anneal_steps = 1000;
  float fixed_beta = -1.0f;

  // Output projection.  Eq. 19 uses a free W_g in R^{N x d}; with
  // tie_output the projection reuses the item-embedding table (plus a free
  // per-item bias), which trains far better in the sparse small-corpus
  // regime of the synthetic benchmarks (see DESIGN.md).  Both paths are
  // implemented; bench_ablation_output compares them.
  bool tie_output = true;

  // Ablation switches.
  bool use_latent = true;  // false = VSAN-z: feed G_i^{h1} straight into the
                           // generative layer (Table V)
  bool infer_ffn = true;   // false = drop FFN in inference blocks (Table VI)
  bool gen_ffn = true;     // false = drop FFN in generative blocks
};

// Posterior snapshot for one user (used by the uncertainty examples): the
// Gaussian the inference network places over the final sequence position.
struct PosteriorStats {
  std::vector<float> mu;     // size d
  std::vector<float> sigma;  // size d, exp(0.5 * logvar)
  // Mean posterior stddev -- a scalar uncertainty summary.
  float MeanSigma() const;
};

// Variational Self-Attention Network (the paper's contribution).
//
// Pipeline per Sec. IV: item+position embeddings -> h1 causal self-attention
// blocks (inference network) -> per-position Gaussian (mu, sigma) -> latent z
// by reparameterization -> h2 causal self-attention blocks (generative
// network) -> per-position softmax over items.  Trained on the beta-ELBO of
// Eq. 20 with KL annealing; evaluation decodes from z = mu (Sec. IV-E).
class Vsan : public SequentialRecommender {
 public:
  explicit Vsan(const VsanConfig& config) : config_(config) {}

  std::string name() const override;

  void Fit(const data::SequenceDataset& train,
           const TrainOptions& options) override;

  // Scoring is the base class's factorized path (models/recommender.h).
  // Tied mode factorizes as (item_emb row, output bias); untied mode as
  // (prediction weight column, prediction bias).  The query is the final
  // position of the generative stack's hidden states — what Predict()
  // projects during training.
  bool GetFactorizedHead(FactorizedHead* head) const override;
  // A batch of one through EncodeBatchInto.
  bool EncodeQueryInto(const std::vector<int32_t>& fold_in,
                       std::vector<float>* query) const override;
  // True multi-query encode: one Forward over the whole batch (a single
  // blocked-GEMM cascade over [count * max_len] rows).  The serving
  // daemon's batched hot path.
  bool EncodeBatchInto(const std::vector<std::vector<int32_t>>& fold_ins,
                       std::vector<float>* queries) const override;

  // Posterior of the final position for an unseen user's history; exposes
  // the uncertainty the latent layer captured (Fig. 1's dashed ellipse).
  PosteriorStats InspectPosterior(const std::vector<int32_t>& fold_in) const;

  // Like Score(), but decodes from a *sampled* z ~ N(mu, sigma^2) instead of
  // the posterior mean.  Each call draws fresh noise: repeated calls expose
  // the spread of recommendations the posterior supports (the dashed
  // ellipse of Fig. 1 made operational).
  std::vector<float> ScoreWithSampledLatent(
      const std::vector<int32_t>& fold_in) const;

  // Attention map of the first inference self-attention block over the
  // user's (left-padded) history: an [n, n] row-stochastic matrix whose
  // entry (i, j) is how much query position i attends to key position j.
  // Requires h1 >= 1.  For multi-head configs the heads are averaged.
  Tensor InspectAttention(const std::vector<int32_t>& fold_in) const;

  // Checkpointing: Save() persists the configuration, item count, and all
  // trained parameters; Load() reconstructs an identical, ready-to-score
  // model.  Fit() must have been called before Save(), which replaces
  // `path` atomically (util/fileio.h AtomicWriteFile).
  Status Save(const std::string& path) const;
  static Result<std::unique_ptr<Vsan>> Load(const std::string& path);

  const VsanConfig& config() const { return config_; }
  // Catalogue size the model was fitted/loaded with (0 before Fit/Load).
  int32_t num_items() const { return num_items_; }
  int64_t NumParameters() const;

  // Trained network (null before Fit); exposed for checkpoint tests that
  // compare parameters bitwise across resumed runs.
  const nn::Module* module() const;

 private:
  struct Net : public nn::Module {
    Net(const VsanConfig& config, int32_t num_items, Rng* rng);

    struct Outputs {
      Variable hidden;  // G_g^{h2}: [B, n, d]
      Variable mu;      // [B*n, d] (undefined when !use_latent)
      Variable logvar;  // [B*n, d]
    };

    // inputs: flattened [B * max_len] left-padded ids.  `sample_latent`
    // forces z to be sampled even in evaluation mode (used by
    // ScoreWithSampledLatent; training always samples).
    Outputs Forward(const std::vector<int32_t>& inputs, int64_t batch,
                    Rng* rng, bool sample_latent = false) const;

    // Embedding pipeline + first inference block with attention capture.
    Tensor FirstBlockAttention(const std::vector<int32_t>& inputs,
                               Rng* rng) const;

    // Prediction layer (Eq. 19) on 2-D rows [R, d] -> [R, V+1].  Training
    // gathers only rows with targets before projecting (the projection onto
    // the item vocabulary dominates step cost).
    Variable Predict(const Variable& rows) const;

    VsanConfig config;
    nn::Embedding item_emb;
    Variable pos_emb;  // [n, d]
    std::vector<std::unique_ptr<nn::SelfAttentionBlock>> infer_blocks;
    std::vector<std::unique_ptr<nn::SelfAttentionBlock>> gen_blocks;
    nn::Linear mu_head;      // l1 of Eq. 12
    nn::Linear logvar_head;  // l2 of Eq. 12 (parameterized as log variance)
    nn::Linear prediction;   // W_g, b_g of Eq. 19 (untied mode)
    Variable output_bias;    // b_g in tied mode ([V+1])
    Tensor causal_mask;
  };

  VsanConfig config_;
  int32_t num_items_ = 0;
  std::unique_ptr<Net> net_;
  mutable Rng rng_{2021};
};

}  // namespace core
}  // namespace vsan

#endif  // VSAN_CORE_VSAN_H_
