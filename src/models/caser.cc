#include "models/caser.h"

#include <algorithm>

#include <cstring>

#include "autograd/ops.h"
#include "data/batcher.h"
#include "models/train_loop.h"
#include "optim/adam.h"
#include "util/logging.h"

namespace vsan {
namespace models {

Caser::Net::Net(const Config& cfg, int32_t num_items, Rng* rng)
    : config(cfg),
      item_emb(num_items + 1, cfg.d, rng),
      hconv(cfg.window, cfg.d, cfg.heights, cfg.h_filters, rng),
      vconv(cfg.window, cfg.d, cfg.v_filters, rng),
      fc(hconv.output_size() + vconv.output_size(), cfg.d, rng),
      output(cfg.d, num_items + 1, rng) {
  RegisterSubmodule(&item_emb);
  RegisterSubmodule(&hconv);
  RegisterSubmodule(&vconv);
  RegisterSubmodule(&fc);
  RegisterSubmodule(&output);
}

Variable Caser::Net::Hidden(const std::vector<int32_t>& windows,
                            int64_t batch, Rng* rng) const {
  Variable x = item_emb.Forward(windows, batch, config.window);
  Variable h = hconv.Forward(x);
  Variable v = vconv.Forward(x);
  Variable features = ops::Concat({h, v}, /*axis=*/1);
  features = ops::Dropout(features, config.dropout, rng, training());
  return ops::Relu(fc.Forward(features));
}

Variable Caser::Net::Forward(const std::vector<int32_t>& windows,
                             int64_t batch, Rng* rng) const {
  return output.Forward(Hidden(windows, batch, rng));
}

namespace {

struct Instance {
  int32_t user;
  int32_t t;
};

// RunTrainLoop batch source over Caser's training instances: the window of
// instance (u, t) is the (left-padded) L items before t, its targets the
// next T items.
struct InstanceBatcher {
  struct Batch {
    int64_t rows = 0;
    std::vector<int32_t> windows;               // [rows * L]
    std::vector<std::vector<int32_t>> targets;  // up to T items per row
  };

  void NewEpoch() {
    shuffle_rng->Shuffle(&instances);
    begin = 0;
  }

  bool NextBatch(Batch* batch) {
    if (begin >= instances.size()) return false;
    const int64_t L = window;
    const int64_t rows =
        std::min<int64_t>(batch_size, instances.size() - begin);
    batch->rows = rows;
    batch->windows.assign(rows * L, data::kPaddingItem);
    batch->targets.assign(rows, {});
    for (int64_t r = 0; r < rows; ++r) {
      const auto [u, t] = instances[begin + r];
      const auto& seq = train->sequence(u);
      const int64_t take = std::min<int64_t>(t, L);
      for (int64_t i = 0; i < take; ++i) {
        batch->windows[r * L + (L - take) + i] = seq[t - take + i];
      }
      for (int32_t j = 0;
           j < target_k && t + j < static_cast<int32_t>(seq.size()); ++j) {
        batch->targets[r].push_back(seq[t + j]);
      }
    }
    begin += rows;
    return true;
  }

  const data::SequenceDataset* train;
  int64_t window;
  int32_t target_k;
  int64_t batch_size;
  Rng* shuffle_rng;
  std::vector<Instance> instances;
  size_t begin = 0;
};

}  // namespace

void Caser::Fit(const data::SequenceDataset& train, const TrainOptions& opts) {
  num_items_ = train.num_items();
  rng_ = Rng(opts.seed);
  net_ = std::make_unique<Net>(config_, num_items_, &rng_);
  net_->SetTraining(true);

  // Training instances: one per (user, position t >= 1).
  Rng shuffle_rng(opts.seed + 1);
  InstanceBatcher batcher{&train, config_.window, config_.target_k,
                          opts.batch_size, &shuffle_rng, {}};
  std::vector<Instance>& instances = batcher.instances;
  for (int32_t u = 0; u < train.num_users(); ++u) {
    const auto& seq = train.sequence(u);
    for (int32_t t = 1; t < static_cast<int32_t>(seq.size()); ++t) {
      instances.push_back({u, t});
    }
  }
  VSAN_CHECK(!instances.empty());

  optim::Adam::Options adam_opts;
  adam_opts.lr = opts.learning_rate;
  optim::Adam optimizer(net_->Parameters(), adam_opts);

  TrainRuntime::Hooks hooks;
  hooks.module = net_.get();
  hooks.mutable_module = net_.get();
  hooks.optimizer = &optimizer;
  hooks.rngs = {&rng_, &shuffle_rng};
  // Data order: the instance permutation (the Shuffle at each epoch's top
  // permutes the *current* order, so the shuffle RNG alone is not enough).
  hooks.save_data_state = [&instances](std::string* out) {
    const int64_t count = static_cast<int64_t>(instances.size());
    out->append(reinterpret_cast<const char*>(&count), sizeof(count));
    out->append(reinterpret_cast<const char*>(instances.data()),
                sizeof(Instance) * instances.size());
  };
  hooks.load_data_state = [&instances](const std::string& blob) {
    const size_t expected =
        sizeof(int64_t) + sizeof(Instance) * instances.size();
    int64_t count = 0;
    if (blob.size() >= sizeof(count)) {
      std::memcpy(&count, blob.data(), sizeof(count));
    }
    if (blob.size() != expected ||
        count != static_cast<int64_t>(instances.size())) {
      return Status::InvalidArgument("caser instance state size mismatch");
    }
    std::memcpy(instances.data(), blob.data() + sizeof(count),
                sizeof(Instance) * instances.size());
    return Status::Ok();
  };
  hooks.model_name = "caser";
  TrainRuntime runtime(opts, std::move(hooks));

  RunTrainLoop(&batcher, &optimizer, opts, &runtime,
               [this](const InstanceBatcher::Batch& batch, int64_t) {
                 Variable logits =
                     net_->Forward(batch.windows, batch.rows, &rng_);
                 return ops::MultiLabelSoftmaxCrossEntropy(logits,
                                                           batch.targets);
               });
  net_->SetTraining(false);
}

bool Caser::GetFactorizedHead(FactorizedHead* head) const {
  VSAN_CHECK(net_ != nullptr)
      << "Fit() must be called before GetFactorizedHead()";
  head->dim = config_.d;
  head->num_rows = num_items_ + 1;
  head->weights = net_->output.weight_value().data();
  head->items_are_rows = false;
  head->bias =
      net_->output.has_bias() ? net_->output.bias_value().data() : nullptr;
  return true;
}

bool Caser::EncodeQueryInto(const std::vector<int32_t>& fold_in,
                            std::vector<float>* query) const {
  VSAN_CHECK(net_ != nullptr)
      << "Fit() must be called before EncodeQueryInto()";
  const std::vector<int32_t> window =
      data::SequenceBatcher::PadSequence(fold_in, config_.window);
  Variable hidden = net_->Hidden(window, /*batch=*/1, &rng_);
  query->resize(static_cast<size_t>(config_.d));
  const float* src = hidden.value().data();
  std::copy(src, src + config_.d, query->data());
  return true;
}

}  // namespace models
}  // namespace vsan
