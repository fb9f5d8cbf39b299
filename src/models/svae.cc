#include "models/svae.h"

#include <algorithm>

#include "autograd/ops.h"
#include "data/batcher.h"
#include "models/train_loop.h"
#include "optim/adam.h"
#include "util/logging.h"

namespace vsan {
namespace models {

Svae::Net::Net(const Config& cfg, int32_t num_items, Rng* rng)
    : config(cfg),
      item_emb(num_items + 1, cfg.d, rng),
      gru(cfg.d, cfg.hidden, rng),
      mu_head(cfg.hidden, cfg.latent, rng),
      logvar_head(cfg.hidden, cfg.latent, rng),
      dec1(cfg.latent, cfg.hidden, rng),
      output(cfg.hidden, num_items + 1, rng) {
  RegisterSubmodule(&item_emb);
  RegisterSubmodule(&gru);
  RegisterSubmodule(&mu_head);
  RegisterSubmodule(&logvar_head);
  RegisterSubmodule(&dec1);
  RegisterSubmodule(&output);
  // Start the posterior near-deterministic (as in core/vsan.cc).
  logvar_head.ScaleWeight(0.1f);
  logvar_head.SetBiasConstant(-3.0f);
}

Svae::Net::Outputs Svae::Net::Forward(const std::vector<int32_t>& inputs,
                                      int64_t batch, Rng* rng) const {
  const int64_t n = config.max_len;
  Variable x = item_emb.Forward(inputs, batch, n);
  x = ops::Dropout(x, config.dropout, rng, training());
  Variable h = gru.Forward(x);  // [B, n, hidden]
  Variable h_flat = ops::Reshape(h, {batch * n, config.hidden});

  Outputs out;
  out.mu = mu_head.Forward(h_flat);
  out.logvar = logvar_head.Forward(h_flat);
  // Sample during training, use the posterior mean at evaluation.
  out.z = ops::Reparameterize(out.mu, out.logvar, rng,
                              /*sample=*/training());
  return out;
}

Variable Svae::Net::DecodeHidden(const Variable& z_rows, Rng* rng) const {
  Variable dec = ops::Tanh(dec1.Forward(z_rows));
  return ops::Dropout(dec, config.dropout, rng, training());
}

Variable Svae::Net::Decode(const Variable& z_rows, Rng* rng) const {
  return output.Forward(DecodeHidden(z_rows, rng));
}

void Svae::Fit(const data::SequenceDataset& train, const TrainOptions& opts) {
  num_items_ = train.num_items();
  rng_ = Rng(opts.seed);
  net_ = std::make_unique<Net>(config_, num_items_, &rng_);
  net_->SetTraining(true);

  data::SequenceBatcher::Options batch_opts;
  batch_opts.max_len = config_.max_len;
  batch_opts.batch_size = opts.batch_size;
  batch_opts.next_k = std::max(config_.next_k, 2);  // always fill sets
  batch_opts.pad_left = false;
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
  hooks.model_name = "svae";
  TrainRuntime runtime(opts, std::move(hooks));

  RunTrainLoop(
      &batcher, &optimizer, opts, &runtime,
      [this](const data::TrainBatch& batch, int64_t sched_step) {
        Net::Outputs out =
            net_->Forward(batch.inputs, batch.batch_size, &rng_);
        // Decode only positions with targets, trimmed to the configured k
        // (the batcher filled >= k items per set).
        std::vector<int64_t> rows;
        std::vector<std::vector<int32_t>> targets;
        for (int64_t r = 0; r < batch.batch_size * batch.seq_len; ++r) {
          if (batch.nextk_targets[r].empty()) continue;
          rows.push_back(r);
          std::vector<int32_t> set = batch.nextk_targets[r];
          if (static_cast<int32_t>(set.size()) > config_.next_k) {
            set.resize(config_.next_k);
          }
          targets.push_back(std::move(set));
        }
        Variable logits = net_->Decode(ops::GatherRows(out.z, rows), &rng_);
        Variable recon = ops::MultiLabelSoftmaxCrossEntropy(logits, targets);
        Variable kl =
            ops::KlStandardNormal(out.mu, out.logvar, batch.position_mask);
        const float beta =
            config_.anneal_steps > 0
                ? config_.beta_max *
                      std::min(1.0f,
                               static_cast<float>(sched_step) /
                                   static_cast<float>(config_.anneal_steps))
                : config_.beta_max;
        StepLoss step(ops::Add(recon, ops::Scale(kl, beta)));
        step.terms.push_back({"recon", recon.value()[0]});
        step.terms.push_back({"kl", kl.value()[0]});
        step.terms.push_back({"beta", beta, /*report_last=*/true});
        return step;
      });
  net_->SetTraining(false);
}

bool Svae::GetFactorizedHead(FactorizedHead* head) const {
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

bool Svae::EncodeQueryInto(const std::vector<int32_t>& fold_in,
                           std::vector<float>* query) const {
  VSAN_CHECK(net_ != nullptr)
      << "Fit() must be called before EncodeQueryInto()";
  const std::vector<int32_t> padded = data::SequenceBatcher::PadSequence(
      fold_in, config_.max_len, /*pad_left=*/false);
  Net::Outputs out = net_->Forward(padded, /*batch=*/1, &rng_);
  const int64_t last = std::min<int64_t>(static_cast<int64_t>(fold_in.size()),
                                         config_.max_len) -
                       1;
  VSAN_CHECK_GE(last, 0);
  Variable hidden =
      net_->DecodeHidden(ops::GatherRows(out.z, {last}), &rng_);
  query->resize(static_cast<size_t>(config_.hidden));
  const float* src = hidden.value().data();
  std::copy(src, src + config_.hidden, query->data());
  return true;
}

}  // namespace models
}  // namespace vsan
