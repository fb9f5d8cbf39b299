#ifndef VSAN_MODELS_CASER_H_
#define VSAN_MODELS_CASER_H_

#include <memory>
#include <vector>

#include "models/recommender.h"
#include "nn/caser_conv.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "util/rng.h"

namespace vsan {
namespace models {

// Caser (Tang & Wang 2018): the last L items form an L x d "image";
// horizontal and vertical convolutional filters extract union-level and
// point-level sequential patterns, followed by fully connected layers that
// predict the next T items (multi-hot softmax loss here).
//
// The personal user embedding of the original is omitted: held-out users
// are unseen under strong generalization, so only the convolutional
// sequence features are usable (recorded in DESIGN.md).
class Caser : public SequentialRecommender {
 public:
  struct Config {
    int64_t window = 5;                      // L, items per training image
    int32_t target_k = 2;                    // T, next items as targets
    int64_t d = 64;                          // embedding size
    std::vector<int64_t> heights = {2, 3, 4};  // horizontal filter heights
    int64_t h_filters = 16;                  // filters per height
    int64_t v_filters = 4;                   // vertical filters
    float dropout = 0.2f;
    uint64_t seed = 37;
  };

  explicit Caser(const Config& config) : config_(config) {}

  std::string name() const override { return "Caser"; }

  void Fit(const data::SequenceDataset& train,
           const TrainOptions& options) override;

  // Scoring is the base class's factorized path: the output Linear's
  // [d, V+1] weight columns are the item vectors; the query is the
  // convolutional feature vector after the fc layer (Net::Hidden).
  bool GetFactorizedHead(FactorizedHead* head) const override;
  bool EncodeQueryInto(const std::vector<int32_t>& fold_in,
                       std::vector<float>* query) const override;

  // Trained network (null before Fit); exposed for checkpoint tests that
  // compare parameters bitwise across resumed runs.
  const nn::Module* module() const { return net_.get(); }

 private:
  struct Net : public nn::Module {
    Net(const Config& config, int32_t num_items, Rng* rng);

    // windows: flattened [B * window] left-padded ids -> [B, d] features
    // (everything before the output projection).
    Variable Hidden(const std::vector<int32_t>& windows, int64_t batch,
                    Rng* rng) const;

    // windows: flattened [B * window] left-padded ids -> [B, V+1] logits.
    Variable Forward(const std::vector<int32_t>& windows, int64_t batch,
                     Rng* rng) const;

    Config config;
    nn::Embedding item_emb;
    nn::HorizontalConv hconv;
    nn::VerticalConv vconv;
    nn::Linear fc;
    nn::Linear output;
  };

  Config config_;
  int32_t num_items_ = 0;
  std::unique_ptr<Net> net_;
  mutable Rng rng_{37};
};

}  // namespace models
}  // namespace vsan

#endif  // VSAN_MODELS_CASER_H_
