// Tests for the extension features: sampled-BCE training loss, learning-rate
// schedules, early stopping, and the sampled-negative evaluation protocol.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "data/dataset.h"
#include "eval/evaluator.h"
#include "models/registry.h"
#include "models/sasrec.h"
#include "obs/metrics.h"
#include "optim/adam.h"
#include "optim/lr_schedule.h"
#include "testing/gradcheck.h"
#include "util/early_stopping.h"
#include "util/rng.h"

namespace vsan {
namespace {

TEST(SampledBceTest, GradCheck) {
  const std::vector<int32_t> positives = {2, -1, 0};
  const std::vector<std::vector<int32_t>> negatives = {{1, 3}, {}, {4}};
  Rng rng(1);
  testing::ExpectGradientsClose(
      [&](const std::vector<Variable>& v) {
        return ops::SampledBinaryCrossEntropy(v[0], positives, negatives);
      },
      {Tensor::RandomNormal({3, 5}, &rng)});
}

TEST(SampledBceTest, LossDropsAsPositiveLogitRises) {
  const std::vector<int32_t> positives = {1};
  const std::vector<std::vector<int32_t>> negatives = {{2}};
  auto loss_at = [&](float pos_logit) {
    Variable logits(Tensor::FromVector({1, 3}, {0.0f, pos_logit, 0.0f}),
                    true);
    return ops::SampledBinaryCrossEntropy(logits, positives, negatives)
        .value()[0];
  };
  EXPECT_GT(loss_at(-2.0f), loss_at(0.0f));
  EXPECT_GT(loss_at(0.0f), loss_at(3.0f));
}

TEST(SampledBceTest, StableForExtremeLogits) {
  const std::vector<int32_t> positives = {0};
  const std::vector<std::vector<int32_t>> negatives = {{1}};
  Variable logits(Tensor::FromVector({1, 2}, {60.0f, -60.0f}), true);
  Variable loss =
      ops::SampledBinaryCrossEntropy(logits, positives, negatives);
  EXPECT_TRUE(std::isfinite(loss.value()[0]));
  EXPECT_NEAR(loss.value()[0], 0.0f, 1e-4f);
  loss.Backward();
  EXPECT_TRUE(logits.grad().AllFinite());
}

data::SequenceDataset CycleDataset(int32_t num_items, int32_t num_users,
                                   int32_t seq_len) {
  Rng rng(3);
  data::SequenceDataset ds(num_items);
  for (int32_t u = 0; u < num_users; ++u) {
    int32_t cur = static_cast<int32_t>(rng.UniformInt(1, num_items));
    std::vector<int32_t> seq;
    for (int32_t t = 0; t < seq_len; ++t) {
      seq.push_back(cur);
      cur = cur % num_items + 1;
    }
    ds.AddUser(std::move(seq));
  }
  return ds;
}

TEST(SampledBceTest, SasRecTrainsWithOriginalObjective) {
  models::SasRec::Config cfg;
  cfg.max_len = 8;
  cfg.d = 16;
  cfg.num_blocks = 1;
  cfg.dropout = 0.0f;
  cfg.loss = models::SasRec::LossType::kSampledBce;
  cfg.num_negatives = 2;
  models::SasRec model(cfg);
  TrainOptions opts;
  opts.epochs = 20;
  opts.batch_size = 16;
  opts.learning_rate = 5e-3f;
  model.Fit(CycleDataset(12, 60, 8), opts);
  const auto scores = model.Score({9, 10, 11});
  // Successor 12 should outrank a random other item.
  EXPECT_GT(scores[12], scores[5]);
}

TEST(LrScheduleTest, ConstantIsConstant) {
  optim::ConstantLr lr(0.01f);
  EXPECT_FLOAT_EQ(lr.LearningRate(0), 0.01f);
  EXPECT_FLOAT_EQ(lr.LearningRate(1000000), 0.01f);
}

TEST(LrScheduleTest, StepDecayHalvesOnSchedule) {
  optim::StepDecayLr lr(1.0f, 0.5f, 10);
  EXPECT_FLOAT_EQ(lr.LearningRate(0), 1.0f);
  EXPECT_FLOAT_EQ(lr.LearningRate(9), 1.0f);
  EXPECT_FLOAT_EQ(lr.LearningRate(10), 0.5f);
  EXPECT_FLOAT_EQ(lr.LearningRate(19), 0.5f);
  EXPECT_FLOAT_EQ(lr.LearningRate(20), 0.25f);
}

TEST(LrScheduleTest, WarmupLinearRampsUpThenDown) {
  optim::WarmupLinearLr lr(1.0f, 10, 110);
  EXPECT_LT(lr.LearningRate(0), 0.2f);
  EXPECT_LT(lr.LearningRate(4), lr.LearningRate(9));
  EXPECT_NEAR(lr.LearningRate(10), 1.0f, 1e-5f);
  EXPECT_GT(lr.LearningRate(10), lr.LearningRate(60));
  EXPECT_NEAR(lr.LearningRate(110), 0.0f, 1e-6f);
  EXPECT_NEAR(lr.LearningRate(500), 0.0f, 1e-6f);  // clamped past the end
}

TEST(LrScheduleTest, OptimizerAppliesScheduledRate) {
  Variable x(Tensor::Zeros({1}), true);
  optim::Adam::Options o;
  o.lr = 1.0f;
  optim::Adam adam({x}, o);
  adam.set_learning_rate(0.25f);
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.25f);
}

TEST(LrScheduleTest, ScheduleFlowsThroughTraining) {
  // Every neural model trains through the one shared loop, so the loop
  // contract holds for each of them: a zero-ish rate schedule must freeze
  // the model while a real one must not, and the live train.steps counter
  // advances by exactly the batches the epochs report.
  data::SequenceDataset ds = CycleDataset(10, 30, 6);
  for (const char* name : {"vsan", "sasrec", "gru4rec", "caser", "svae"}) {
    SCOPED_TRACE(name);
    auto final_loss = [&](const optim::LrSchedule* schedule) {
      models::ModelSizing sizing;
      sizing.d = 8;
      sizing.max_len = 6;
      sizing.blocks = 1;
      sizing.dropout = 0.0f;
      std::unique_ptr<SequentialRecommender> model =
          models::CreateModel(name, sizing);
      TrainOptions opts;
      opts.epochs = 6;
      opts.batch_size = 16;
      opts.lr_schedule = schedule;
      double last = 0.0;
      int64_t batches = 0;
      opts.epoch_callback = [&](const EpochStats& stats) {
        last = stats.loss;
        batches += stats.batches;
      };
      obs::Counter* steps =
          obs::MetricsRegistry::Global().GetCounter("train.steps");
      const int64_t before = steps->value();
      model->Fit(ds, opts);
      EXPECT_GT(batches, 0);
      EXPECT_EQ(steps->value() - before, batches);
      return last;
    };
    optim::ConstantLr frozen(1e-12f);
    optim::ConstantLr normal(5e-3f);
    EXPECT_GT(final_loss(&frozen), final_loss(&normal) + 0.1);
  }
}

TEST(EarlyStopperTest, StopsAfterPatienceExhausted) {
  EarlyStopper stopper(2);
  EXPECT_FALSE(stopper.Update(0.5));   // round 1: best
  EXPECT_FALSE(stopper.Update(0.4));   // 1 bad
  EXPECT_TRUE(stopper.Update(0.45));   // 2 bad -> stop
  EXPECT_DOUBLE_EQ(stopper.best(), 0.5);
  EXPECT_EQ(stopper.best_round(), 1);
}

TEST(EarlyStopperTest, ImprovementResetsPatience) {
  EarlyStopper stopper(2);
  EXPECT_FALSE(stopper.Update(0.1));
  EXPECT_FALSE(stopper.Update(0.05));
  EXPECT_FALSE(stopper.Update(0.2));  // new best resets the counter
  EXPECT_FALSE(stopper.Update(0.15));
  EXPECT_TRUE(stopper.Update(0.1));
  EXPECT_EQ(stopper.best_round(), 3);
}

TEST(EarlyStopperTest, MinDeltaIgnoresTinyImprovements) {
  EarlyStopper stopper(1, /*min_delta=*/0.1);
  EXPECT_FALSE(stopper.Update(0.5));
  EXPECT_TRUE(stopper.Update(0.55));  // +0.05 < min_delta: counts as bad
}

// A model that scores items by identity (higher id = higher score).
struct IdentityModel : SequentialRecommender {
  explicit IdentityModel(int32_t n) : n_(n) {}
  std::string name() const override { return "identity"; }
  void Fit(const data::SequenceDataset&, const TrainOptions&) override {}
  std::vector<float> Score(const std::vector<int32_t>&) const override {
    std::vector<float> s(n_ + 1);
    for (int32_t i = 0; i <= n_; ++i) s[i] = static_cast<float>(i);
    return s;
  }
  int32_t n_;
};

TEST(SampledNegativeEvalTest, RestrictsRankingToCandidates) {
  // Catalogue of 1000 items; holdout is item 500.  Under full ranking,
  // 500 items outrank it (recall@10 = 0).  Against only 5 sampled
  // negatives, item 500 usually lands in the top 10 of the 6 candidates.
  IdentityModel model(1000);
  std::vector<data::HeldOutUser> users(1);
  users[0].fold_in = {1};
  users[0].holdout = {500};

  eval::EvalOptions full;
  full.cutoffs = {10};
  EXPECT_DOUBLE_EQ(eval::EvaluateRanking(model, users, full).recall.at(10),
                   0.0);

  eval::EvalOptions sampled = full;
  sampled.num_sampled_negatives = 5;
  // 6 candidates, cutoff 10 >= 6: the holdout is always within the list.
  EXPECT_DOUBLE_EQ(
      eval::EvaluateRanking(model, users, sampled).recall.at(10), 1.0);
}

TEST(SampledNegativeEvalTest, DeterministicForFixedSeed) {
  IdentityModel model(100);
  std::vector<data::HeldOutUser> users(3);
  for (int u = 0; u < 3; ++u) {
    users[u].fold_in = {1, 2};
    users[u].holdout = {static_cast<int32_t>(40 + u)};
  }
  eval::EvalOptions opts;
  opts.cutoffs = {5};
  opts.num_sampled_negatives = 20;
  const auto a = eval::EvaluateRanking(model, users, opts);
  const auto b = eval::EvaluateRanking(model, users, opts);
  EXPECT_DOUBLE_EQ(a.ndcg.at(5), b.ndcg.at(5));
}

}  // namespace
}  // namespace vsan
