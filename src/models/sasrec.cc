#include "models/sasrec.h"

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "data/batcher.h"
#include "models/train_loop.h"
#include "optim/adam.h"
#include "util/logging.h"

namespace vsan {
namespace models {
namespace {

// Zeroes the rows of `x` ([B, n, d]) whose input item is the padding item,
// as SASRec does after adding position embeddings (padding must contribute
// nothing to attention values).
Variable MaskPaddingRows(const Variable& x,
                         const std::vector<int32_t>& inputs) {
  Tensor mask(x.value().shape());
  const int64_t d = x.value().dim(2);
  for (size_t r = 0; r < inputs.size(); ++r) {
    if (inputs[r] == data::kPaddingItem) continue;
    float* row = mask.data() + static_cast<int64_t>(r) * d;
    for (int64_t j = 0; j < d; ++j) row[j] = 1.0f;
  }
  return ops::Mul(x, Variable::Constant(std::move(mask)));
}

}  // namespace

SasRec::Net::Net(const Config& cfg, int32_t num_items, Rng* rng)
    : config(cfg),
      item_emb(num_items + 1, cfg.d, rng),
      causal_mask(nn::MakeCausalMask(cfg.max_len)) {
  RegisterSubmodule(&item_emb);
  pos_emb = RegisterParameter(
      "pos_emb", Tensor::RandomNormal({cfg.max_len, cfg.d}, rng, 0.02f));
  nn::SelfAttentionBlockConfig block_cfg;
  block_cfg.d = cfg.d;
  block_cfg.dropout = cfg.dropout;
  for (int32_t b = 0; b < cfg.num_blocks; ++b) {
    blocks.push_back(std::make_unique<nn::SelfAttentionBlock>(block_cfg, rng));
    RegisterSubmodule(blocks.back().get());
  }
}

Variable SasRec::Net::Encode(const std::vector<int32_t>& inputs, int64_t batch,
                             Rng* rng) const {
  Variable x = item_emb.Forward(inputs, batch, config.max_len);
  x = ops::Scale(x, std::sqrt(static_cast<float>(config.d)));
  x = ops::AddBroadcastMatrixVar(x, pos_emb);
  x = MaskPaddingRows(x, inputs);
  x = ops::Dropout(x, config.dropout, rng, training());
  for (const auto& block : blocks) {
    x = block->Forward(x, causal_mask, rng);
    x = MaskPaddingRows(x, inputs);
  }
  return x;
}

Variable SasRec::Net::Logits(const Variable& hidden) const {
  // Tied projection onto the item embedding table: [B,n,d] x [d, V].
  return ops::MatMul(hidden, ops::Transpose(item_emb.table()));
}

void SasRec::Fit(const data::SequenceDataset& train,
                 const TrainOptions& opts) {
  num_items_ = train.num_items();
  rng_ = Rng(opts.seed);
  net_ = std::make_unique<Net>(config_, num_items_, &rng_);
  net_->SetTraining(true);

  data::SequenceBatcher::Options batch_opts;
  batch_opts.max_len = config_.max_len;
  batch_opts.batch_size = opts.batch_size;
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
  hooks.model_name = "sasrec";
  TrainRuntime runtime(opts, std::move(hooks));

  RunTrainLoop(&batcher, &optimizer, opts, &runtime,
               [this](const data::TrainBatch& batch, int64_t) {
                 Variable hidden =
                     net_->Encode(batch.inputs, batch.batch_size, &rng_);
                 Variable flat = ops::Reshape(
                     hidden,
                     {batch.batch_size * batch.seq_len, config_.d});
                 // Project only positions with a target: the vocabulary
                 // projection dominates step cost.
                 std::vector<int64_t> rows;
                 std::vector<int32_t> targets;
                 for (int64_t r = 0; r < batch.batch_size * batch.seq_len;
                      ++r) {
                   if (batch.next_targets[r] == -1) continue;
                   rows.push_back(r);
                   targets.push_back(batch.next_targets[r]);
                 }
                 Variable logits =
                     net_->Logits(ops::GatherRows(flat, rows));
                 if (config_.loss == LossType::kFullSoftmax) {
                   return ops::SoftmaxCrossEntropy(logits, targets,
                                                   /*ignore_index=*/-1);
                 }
                 // Original SASRec objective: BCE against uniform sampled
                 // negatives (never the positive itself).
                 std::vector<std::vector<int32_t>> negatives(targets.size());
                 for (size_t r = 0; r < targets.size(); ++r) {
                   for (int32_t j = 0; j < config_.num_negatives; ++j) {
                     int32_t neg = static_cast<int32_t>(
                         rng_.UniformInt(1, num_items_));
                     while (neg == targets[r]) {
                       neg = static_cast<int32_t>(
                           rng_.UniformInt(1, num_items_));
                     }
                     negatives[r].push_back(neg);
                   }
                 }
                 return ops::SampledBinaryCrossEntropy(logits, targets,
                                                       negatives);
               });
  net_->SetTraining(false);
}

bool SasRec::GetFactorizedHead(FactorizedHead* head) const {
  VSAN_CHECK(net_ != nullptr) << "Fit() must be called before GetFactorizedHead()";
  head->dim = config_.d;
  head->num_rows = num_items_ + 1;
  head->weights = net_->item_emb.table().value().data();
  head->items_are_rows = true;
  head->bias = nullptr;
  return true;
}

bool SasRec::EncodeQueryInto(const std::vector<int32_t>& fold_in,
                             std::vector<float>* query) const {
  return EncodeBatchInto({fold_in}, query);
}

bool SasRec::EncodeBatchInto(const std::vector<std::vector<int32_t>>& fold_ins,
                             std::vector<float>* queries) const {
  VSAN_CHECK(net_ != nullptr)
      << "Fit() must be called before EncodeBatchInto()";
  const int64_t count = static_cast<int64_t>(fold_ins.size());
  queries->resize(static_cast<size_t>(count * config_.d));
  if (count == 0) return true;
  std::vector<int32_t> flat(static_cast<size_t>(count * config_.max_len));
  for (int64_t i = 0; i < count; ++i) {
    const std::vector<int32_t> padded =
        data::SequenceBatcher::PadSequence(fold_ins[i], config_.max_len);
    std::copy(padded.begin(), padded.end(),
              flat.begin() + i * config_.max_len);
  }
  Variable hidden = net_->Encode(flat, count, &rng_);
  Variable last = ops::Reshape(
      ops::Slice(hidden, /*axis=*/1, config_.max_len - 1, /*len=*/1),
      {count, config_.d});
  const float* src = last.value().data();
  std::copy(src, src + count * config_.d, queries->data());
  return true;
}

}  // namespace models
}  // namespace vsan
