#include "core/vsan.h"

#include <algorithm>
#include <cmath>

#include <fstream>
#include <sstream>

#include "autograd/ops.h"
#include "data/batcher.h"
#include "models/train_loop.h"
#include "nn/serialize.h"
#include "optim/adam.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace vsan {
namespace core {
namespace {

// Zeroes rows belonging to padding inputs ([B, n, d]); padding must carry no
// signal into attention values.
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

float PosteriorStats::MeanSigma() const {
  if (sigma.empty()) return 0.0f;
  double sum = 0.0;
  for (float s : sigma) sum += s;
  return static_cast<float>(sum / sigma.size());
}

std::string Vsan::name() const {
  if (!config_.use_latent) return "VSAN-z";
  if (!config_.infer_ffn && !config_.gen_ffn) return "VSAN-all-feed";
  if (!config_.infer_ffn) return "VSAN-infer-feed";
  if (!config_.gen_ffn) return "VSAN-gene-feed";
  return "VSAN";
}

Vsan::Net::Net(const VsanConfig& cfg, int32_t num_items, Rng* rng)
    : config(cfg),
      item_emb(num_items + 1, cfg.d, rng),
      mu_head(cfg.d, cfg.d, rng),
      logvar_head(cfg.d, cfg.d, rng),
      prediction(cfg.d, num_items + 1, rng),
      causal_mask(nn::MakeCausalMask(cfg.max_len)) {
  RegisterSubmodule(&item_emb);
  pos_emb = RegisterParameter(
      "pos_emb", Tensor::RandomNormal({cfg.max_len, cfg.d}, rng, 0.02f));

  nn::SelfAttentionBlockConfig infer_cfg;
  infer_cfg.d = cfg.d;
  infer_cfg.num_heads = cfg.num_heads;
  infer_cfg.dropout = cfg.dropout;
  infer_cfg.use_ffn = cfg.infer_ffn;
  for (int32_t b = 0; b < cfg.h1; ++b) {
    infer_blocks.push_back(
        std::make_unique<nn::SelfAttentionBlock>(infer_cfg, rng));
    RegisterSubmodule(infer_blocks.back().get());
  }

  nn::SelfAttentionBlockConfig gen_cfg;
  gen_cfg.d = cfg.d;
  gen_cfg.num_heads = cfg.num_heads;
  gen_cfg.dropout = cfg.dropout;
  gen_cfg.use_ffn = cfg.gen_ffn;
  for (int32_t b = 0; b < cfg.h2; ++b) {
    gen_blocks.push_back(
        std::make_unique<nn::SelfAttentionBlock>(gen_cfg, rng));
    RegisterSubmodule(gen_blocks.back().get());
  }

  if (cfg.use_latent) {
    RegisterSubmodule(&mu_head);
    RegisterSubmodule(&logvar_head);
    // Near-identity init for the mu head so the latent layer starts as a
    // pass-through (residual-style), and a near-deterministic posterior
    // (sigma ~ exp(-2.5) ~ 0.08): large initial noise or an arbitrary
    // linear bottleneck drowns the reconstruction signal early in training.
    // The KL term later grows sigma where warranted.
    mu_head.ScaleWeight(0.1f);
    mu_head.AddIdentityToWeight();
    logvar_head.ScaleWeight(0.1f);
    logvar_head.SetBiasConstant(-5.0f);
  }
  if (cfg.tie_output) {
    output_bias =
        RegisterParameter("output_bias", Tensor::Zeros({num_items + 1}));
  } else {
    RegisterSubmodule(&prediction);
  }
}

Vsan::Net::Outputs Vsan::Net::Forward(const std::vector<int32_t>& inputs,
                                      int64_t batch, Rng* rng,
                                      bool sample_latent) const {
  const int64_t n = config.max_len;
  const int64_t d = config.d;

  // Embedding layer (Eq. 4): item embedding + learnable positions.
  Variable x = item_emb.Forward(inputs, batch, n);
  x = ops::Scale(x, std::sqrt(static_cast<float>(d)));
  x = ops::AddBroadcastMatrixVar(x, pos_emb);
  x = MaskPaddingRows(x, inputs);
  x = ops::Dropout(x, config.dropout, rng, training());

  // Inference self-attention layer (Eq. 5-11): G_i^{h1}.
  for (const auto& block : infer_blocks) {
    x = block->Forward(x, causal_mask, rng);
    x = MaskPaddingRows(x, inputs);
  }

  Outputs out;
  Variable g;  // input to the generative layer
  if (config.use_latent) {
    // Variational parameters (Eq. 12) and latent variable (Eq. 13).
    Variable flat = ops::Reshape(x, {batch * n, d});
    out.mu = mu_head.Forward(flat);
    out.logvar = logvar_head.Forward(flat);
    Variable z = ops::Reparameterize(out.mu, out.logvar, rng,
                                     /*sample=*/training() || sample_latent);
    g = ops::Reshape(z, {batch, n, d});
  } else {
    // VSAN-z ablation: deterministic bridge.
    g = x;
  }

  // Generative self-attention layer (Eq. 15-17): G_g^{h2}.
  for (const auto& block : gen_blocks) {
    g = block->Forward(g, causal_mask, rng);
    g = MaskPaddingRows(g, inputs);
  }

  out.hidden = g;
  return out;
}

Tensor Vsan::Net::FirstBlockAttention(const std::vector<int32_t>& inputs,
                                      Rng* rng) const {
  VSAN_CHECK(!infer_blocks.empty()) << "h1 must be >= 1 to inspect attention";
  const int64_t n = config.max_len;
  Variable x = item_emb.Forward(inputs, /*batch=*/1, n);
  x = ops::Scale(x, std::sqrt(static_cast<float>(config.d)));
  x = ops::AddBroadcastMatrixVar(x, pos_emb);
  x = MaskPaddingRows(x, inputs);
  x = ops::Dropout(x, config.dropout, rng, training());
  Tensor attention;
  infer_blocks[0]->Forward(x, causal_mask, rng, &attention);
  return attention.Reshaped({n, n});
}

Variable Vsan::Net::Predict(const Variable& rows) const {
  if (!config.tie_output) return prediction.Forward(rows);
  // Tied projection onto the item-embedding table plus a free item bias.
  return ops::AddBias(
      ops::MatMul(rows, ops::Transpose(item_emb.table())), output_bias);
}

void Vsan::Fit(const data::SequenceDataset& train, const TrainOptions& opts) {
  num_items_ = train.num_items();
  rng_ = Rng(opts.seed);
  net_ = std::make_unique<Net>(config_, num_items_, &rng_);
  net_->SetTraining(true);

  data::SequenceBatcher::Options batch_opts;
  batch_opts.max_len = config_.max_len;
  batch_opts.batch_size = opts.batch_size;
  batch_opts.next_k = config_.next_k;
  batch_opts.seed = opts.seed + 1;
  data::SequenceBatcher batcher(&train, batch_opts);

  optim::Adam::Options adam_opts;
  adam_opts.lr = opts.learning_rate;
  optim::Adam optimizer(net_->Parameters(), adam_opts);

  models::TrainRuntime::Hooks hooks;
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
  hooks.model_name = "vsan";
  models::TrainRuntime runtime(opts, std::move(hooks));

  models::RunTrainLoop(
      &batcher, &optimizer, opts, &runtime,
      [this](const data::TrainBatch& batch, int64_t sched_step) {
        Net::Outputs out =
            net_->Forward(batch.inputs, batch.batch_size, &rng_);
        Variable flat_hidden = ops::Reshape(
            out.hidden, {batch.batch_size * batch.seq_len, config_.d});

        // Project and score only the positions that carry a target (left
        // padding makes most positions empty on sparse corpora).
        std::vector<int64_t> rows;
        std::vector<int32_t> targets;
        std::vector<std::vector<int32_t>> multi_targets;
        for (int64_t r = 0; r < batch.batch_size * batch.seq_len; ++r) {
          if (batch.next_targets[r] == -1) continue;
          rows.push_back(r);
          if (config_.next_k > 1) {
            multi_targets.push_back(batch.nextk_targets[r]);
          } else {
            targets.push_back(batch.next_targets[r]);
          }
        }
        Variable logits = net_->Predict(ops::GatherRows(flat_hidden, rows));

        // Reconstruction term of Eq. 20: next-item (k=1) or next-k
        // multi-hot.
        Variable recon =
            (config_.next_k > 1)
                ? ops::MultiLabelSoftmaxCrossEntropy(logits, multi_targets)
                : ops::SoftmaxCrossEntropy(logits, targets,
                                           /*ignore_index=*/-1);
        if (!config_.use_latent) {
          models::StepLoss step(recon);
          step.terms.push_back({"recon", recon.value()[0]});
          return step;
        }
        // beta * KL term of Eq. 20, with KL annealing keyed off the
        // pre-increment step so a resumed run reproduces the same curve.
        Variable kl =
            ops::KlStandardNormal(out.mu, out.logvar, batch.position_mask);
        float beta = config_.fixed_beta;
        if (beta < 0.0f) {
          beta = config_.anneal_steps > 0
                     ? config_.beta_max *
                           std::min(1.0f,
                                    static_cast<float>(sched_step) /
                                        static_cast<float>(
                                            config_.anneal_steps))
                     : config_.beta_max;
        }
        models::StepLoss step(ops::Add(recon, ops::Scale(kl, beta)));
        step.terms.push_back({"recon", recon.value()[0]});
        step.terms.push_back({"kl", kl.value()[0]});
        step.terms.push_back({"beta", beta, /*report_last=*/true});
        return step;
      });
  net_->SetTraining(false);
}

bool Vsan::GetFactorizedHead(FactorizedHead* head) const {
  VSAN_CHECK(net_ != nullptr) << "Fit() must be called before GetFactorizedHead()";
  head->dim = config_.d;
  head->num_rows = num_items_ + 1;
  if (config_.tie_output) {
    head->weights = net_->item_emb.table().value().data();
    head->items_are_rows = true;
    head->bias = net_->output_bias.value().data();
  } else {
    head->weights = net_->prediction.weight_value().data();
    head->items_are_rows = false;
    head->bias = net_->prediction.has_bias()
                     ? net_->prediction.bias_value().data()
                     : nullptr;
  }
  return true;
}

bool Vsan::EncodeQueryInto(const std::vector<int32_t>& fold_in,
                           std::vector<float>* query) const {
  return EncodeBatchInto({fold_in}, query);
}

bool Vsan::EncodeBatchInto(const std::vector<std::vector<int32_t>>& fold_ins,
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
  Net::Outputs out = net_->Forward(flat, count, &rng_);
  // [count, 1, d] -> the final position of every sequence, contiguous.
  Variable last = ops::Reshape(
      ops::Slice(out.hidden, /*axis=*/1, config_.max_len - 1, /*len=*/1),
      {count, config_.d});
  const float* src = last.value().data();
  std::copy(src, src + count * config_.d, queries->data());
  return true;
}

std::vector<float> Vsan::ScoreWithSampledLatent(
    const std::vector<int32_t>& fold_in) const {
  VSAN_CHECK(net_ != nullptr) << "Fit() must be called before Score()";
  VSAN_CHECK(config_.use_latent) << "VSAN-z has no posterior to sample";
  const std::vector<int32_t> padded =
      data::SequenceBatcher::PadSequence(fold_in, config_.max_len);
  Net::Outputs out =
      net_->Forward(padded, /*batch=*/1, &rng_, /*sample_latent=*/true);
  Variable last = ops::Reshape(
      ops::Slice(out.hidden, /*axis=*/1, config_.max_len - 1, /*len=*/1),
      {1, config_.d});
  Variable logits = net_->Predict(last);
  const Tensor& v = logits.value();
  std::vector<float> scores(num_items_ + 1);
  for (int32_t i = 0; i <= num_items_; ++i) scores[i] = v[i];
  return scores;
}

Tensor Vsan::InspectAttention(const std::vector<int32_t>& fold_in) const {
  VSAN_CHECK(net_ != nullptr) << "Fit() must be called before Score()";
  const std::vector<int32_t> padded =
      data::SequenceBatcher::PadSequence(fold_in, config_.max_len);
  return net_->FirstBlockAttention(padded, &rng_);
}

PosteriorStats Vsan::InspectPosterior(
    const std::vector<int32_t>& fold_in) const {
  VSAN_CHECK(net_ != nullptr) << "Fit() must be called before Score()";
  VSAN_CHECK(config_.use_latent) << "VSAN-z has no posterior to inspect";
  const std::vector<int32_t> padded =
      data::SequenceBatcher::PadSequence(fold_in, config_.max_len);
  Net::Outputs out = net_->Forward(padded, /*batch=*/1, &rng_);
  PosteriorStats stats;
  const int64_t d = config_.d;
  const int64_t last = config_.max_len - 1;  // most recent position
  stats.mu.resize(d);
  stats.sigma.resize(d);
  for (int64_t j = 0; j < d; ++j) {
    stats.mu[j] = out.mu.value().at(last, j);
    stats.sigma[j] = std::exp(0.5f * out.logvar.value().at(last, j));
  }
  return stats;
}

Status Vsan::Save(const std::string& path) const {
  if (net_ == nullptr) {
    return Status::InvalidArgument("Fit() must be called before Save()");
  }
  // Text header (one line) followed by the binary parameter blob, built in
  // memory and written atomically: a concurrent Load (a serving daemon's
  // hot reload) sees the old file or the new one, never a torn one.
  std::ostringstream out;
  out << "VSAN-CHECKPOINT v1 " << config_.max_len << " " << config_.d << " "
      << config_.h1 << " " << config_.h2 << " " << config_.num_heads << " "
      << config_.next_k << " "
      << config_.dropout << " " << config_.beta_max << " "
      << config_.anneal_steps << " " << config_.fixed_beta << " "
      << config_.tie_output << " " << config_.use_latent << " "
      << config_.infer_ffn << " " << config_.gen_ffn << " " << num_items_
      << "\n";
  const Status status = nn::SaveParameters(*net_, out);
  if (!status.ok()) return status;
  return AtomicWriteFile(path, out.str());
}

Result<std::unique_ptr<Vsan>> Vsan::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::NotFound(StrCat("cannot open ", path));
  std::string tag, version;
  VsanConfig cfg;
  int32_t num_items = 0;
  in >> tag >> version >> cfg.max_len >> cfg.d >> cfg.h1 >> cfg.h2 >>
      cfg.num_heads >> cfg.next_k >> cfg.dropout >> cfg.beta_max >>
      cfg.anneal_steps >> cfg.fixed_beta >> cfg.tie_output >>
      cfg.use_latent >> cfg.infer_ffn >> cfg.gen_ffn >> num_items;
  if (!in.good() || tag != "VSAN-CHECKPOINT" || version != "v1") {
    return Status::InvalidArgument(StrCat(path, ": not a VSAN v1 checkpoint"));
  }
  in.get();  // consume the newline before the binary blob

  auto model = std::make_unique<Vsan>(cfg);
  model->num_items_ = num_items;
  model->net_ = std::make_unique<Net>(cfg, num_items, &model->rng_);
  Status status = nn::LoadParameters(model->net_.get(), in);
  if (!status.ok()) return status;
  model->net_->SetTraining(false);
  return model;
}

int64_t Vsan::NumParameters() const {
  return net_ ? net_->NumParameters() : 0;
}

const nn::Module* Vsan::module() const { return net_.get(); }

}  // namespace core
}  // namespace vsan
