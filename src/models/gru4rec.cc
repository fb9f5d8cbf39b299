#include "models/gru4rec.h"

#include <algorithm>

#include "autograd/ops.h"
#include "data/batcher.h"
#include "models/train_loop.h"
#include "optim/adam.h"
#include "util/logging.h"

namespace vsan {
namespace models {

Gru4Rec::Net::Net(const Config& cfg, int32_t num_items, Rng* rng)
    : config(cfg),
      item_emb(num_items + 1, cfg.d, rng),
      gru(cfg.d, cfg.hidden, rng),
      output(cfg.hidden, num_items + 1, rng) {
  RegisterSubmodule(&item_emb);
  RegisterSubmodule(&gru);
  RegisterSubmodule(&output);
}

Variable Gru4Rec::Net::Encode(const std::vector<int32_t>& inputs,
                              int64_t batch, Rng* rng) const {
  Variable x = item_emb.Forward(inputs, batch, config.max_len);
  x = ops::Dropout(x, config.dropout, rng, training());
  Variable h = gru.Forward(x);
  return ops::Dropout(h, config.dropout, rng, training());
}

void Gru4Rec::Fit(const data::SequenceDataset& train,
                  const TrainOptions& opts) {
  num_items_ = train.num_items();
  rng_ = Rng(opts.seed);
  net_ = std::make_unique<Net>(config_, num_items_, &rng_);
  net_->SetTraining(true);

  data::SequenceBatcher::Options batch_opts;
  batch_opts.max_len = config_.max_len;
  batch_opts.batch_size = opts.batch_size;
  batch_opts.pad_left = false;  // recurrent: sequence starts at position 0
  batch_opts.seed = opts.seed + 1;
  data::SequenceBatcher batcher(&train, batch_opts);

  optim::Adam::Options adam_opts;
  adam_opts.lr = opts.learning_rate;
  optim::Adam optimizer(net_->Parameters(), adam_opts);

  TrainRuntime::Hooks hooks;
  hooks.module = net_.get();
  hooks.mutable_module = net_.get();
  hooks.optimizer = &optimizer;
  hooks.rngs = {&rng_};
  hooks.save_data_state = [&batcher](std::string* out) {
    batcher.SaveState(out);
  };
  hooks.load_data_state = [&batcher](const std::string& blob) {
    return batcher.RestoreState(blob);
  };
  hooks.model_name = "gru4rec";
  TrainRuntime runtime(opts, std::move(hooks));

  RunTrainLoop(&batcher, &optimizer, opts, &runtime,
               [this](const data::TrainBatch& batch, int64_t) {
                 Variable hidden =
                     net_->Encode(batch.inputs, batch.batch_size, &rng_);
                 Variable flat = ops::Reshape(
                     hidden,
                     {batch.batch_size * batch.seq_len, config_.hidden});
                 std::vector<int64_t> rows;
                 std::vector<int32_t> targets;
                 for (int64_t r = 0; r < batch.batch_size * batch.seq_len;
                      ++r) {
                   if (batch.next_targets[r] == -1) continue;
                   rows.push_back(r);
                   targets.push_back(batch.next_targets[r]);
                 }
                 Variable logits = net_->Logits(ops::GatherRows(flat, rows));
                 return ops::SoftmaxCrossEntropy(logits, targets,
                                                 /*ignore_index=*/-1);
               });
  net_->SetTraining(false);
}

bool Gru4Rec::GetFactorizedHead(FactorizedHead* head) const {
  VSAN_CHECK(net_ != nullptr)
      << "Fit() must be called before GetFactorizedHead()";
  head->dim = config_.hidden;
  head->num_rows = num_items_ + 1;
  head->weights = net_->output.weight_value().data();
  head->items_are_rows = false;
  head->bias =
      net_->output.has_bias() ? net_->output.bias_value().data() : nullptr;
  return true;
}

bool Gru4Rec::EncodeQueryInto(const std::vector<int32_t>& fold_in,
                              std::vector<float>* query) const {
  VSAN_CHECK(net_ != nullptr)
      << "Fit() must be called before EncodeQueryInto()";
  const std::vector<int32_t> padded = data::SequenceBatcher::PadSequence(
      fold_in, config_.max_len, /*pad_left=*/false);
  Variable hidden = net_->Encode(padded, /*batch=*/1, &rng_);
  const int64_t last = std::min<int64_t>(static_cast<int64_t>(fold_in.size()),
                                         config_.max_len) -
                       1;
  VSAN_CHECK_GE(last, 0);
  Variable row = ops::Reshape(
      ops::Slice(hidden, /*axis=*/1, last, /*len=*/1), {1, config_.hidden});
  query->resize(static_cast<size_t>(config_.hidden));
  const float* src = row.value().data();
  std::copy(src, src + config_.hidden, query->data());
  return true;
}

}  // namespace models
}  // namespace vsan
