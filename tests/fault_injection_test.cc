// Crash-safety integration tests: kill-and-resume determinism, divergence
// guard policies, and the fault-injection harness (util/fault.h), driven
// through the public Fit() API of the models that train through the shared
// loop (models/train_loop.h).
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/vsan.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "models/caser.h"
#include "models/recommender.h"
#include "models/sasrec.h"
#include "models/svae.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "tensor/pool.h"
#include "util/fault.h"
#include "util/fileio.h"

namespace vsan {
namespace {

// 60 users / batch 16 -> 4 optimizer steps per epoch, so with
// checkpoint_every_n_epochs=1 the end-of-epoch checkpoints land at steps
// 4, 8, 12; a fault at step 5..8 strikes mid-epoch 2 with a checkpoint
// available.
data::SequenceDataset MakeDataset() {
  data::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 40;
  config.seed = 13;
  return data::GenerateSynthetic(config);
}

struct Trainee {
  std::unique_ptr<SequentialRecommender> rec;
  std::function<const nn::Module*()> module;
};

Trainee MakeTrainee(const std::string& which) {
  Trainee out;
  if (which == "vsan") {
    core::VsanConfig config;
    config.max_len = 8;
    config.d = 8;
    config.anneal_steps = 8;  // beta still ramping when the fault strikes
    auto model = std::make_unique<core::Vsan>(config);
    auto* raw = model.get();
    out.rec = std::move(model);
    out.module = [raw] { return raw->module(); };
  } else if (which == "caser") {
    // Same configuration as fault_train_helper.cc.
    models::Caser::Config config;
    config.window = 3;
    config.d = 8;
    config.heights = {2, 3};
    config.h_filters = 2;
    config.v_filters = 1;
    auto model = std::make_unique<models::Caser>(config);
    auto* raw = model.get();
    out.rec = std::move(model);
    out.module = [raw] { return raw->module(); };
  } else if (which == "svae") {
    models::Svae::Config config;
    config.max_len = 8;
    config.d = 8;
    config.hidden = 8;
    config.latent = 4;
    config.anneal_steps = 8;  // beta still ramping when the fault strikes
    auto model = std::make_unique<models::Svae>(config);
    auto* raw = model.get();
    out.rec = std::move(model);
    out.module = [raw] { return raw->module(); };
  } else {
    models::SasRec::Config config;
    config.max_len = 8;
    config.d = 8;
    config.num_blocks = 1;
    auto model = std::make_unique<models::SasRec>(config);
    auto* raw = model.get();
    out.rec = std::move(model);
    out.module = [raw] { return raw->module(); };
  }
  return out;
}

TrainOptions BaseOptions(const std::string& checkpoint_dir) {
  TrainOptions options;
  options.epochs = 3;
  options.batch_size = 16;
  options.checkpoint_dir = checkpoint_dir;
  options.checkpoint_every_n_epochs = 1;
  return options;
}

std::vector<std::string> ParamBytes(const nn::Module* module) {
  std::vector<std::string> out;
  for (const Variable& p : module->Parameters()) {
    const Tensor& t = p.value();
    out.emplace_back(reinterpret_cast<const char*>(t.data()),
                     sizeof(float) * t.numel());
  }
  return out;
}

void ExpectAllFinite(const nn::Module* module) {
  for (const Variable& p : module->Parameters()) {
    for (int64_t i = 0; i < p.value().numel(); ++i) {
      ASSERT_TRUE(std::isfinite(p.value()[i]));
    }
  }
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// Keeps the process-global fault spec and pool override from leaking
// between tests.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::SetSpecForTest(nullptr); }
  void TearDown() override { fault::SetSpecForTest(nullptr); }
};

// --- Kill-and-resume determinism --------------------------------------

// The model name is a std::string rather than a const char*: gtest prints a
// char pointer's address into the listed test name ("# GetParam() = ..."),
// so the discovered ctest names would change with every build.
class KillResumeTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {
 protected:
  void SetUp() override {
    pool_was_ = pool::PoolEnabled();
    fault::SetSpecForTest(nullptr);
  }
  void TearDown() override {
    fault::SetSpecForTest(nullptr);
    pool::SetPoolEnabledForTesting(pool_was_);
  }
  bool pool_was_ = true;
};

TEST_P(KillResumeTest, ResumedRunMatchesUninterruptedBitwise) {
  const std::string which = std::get<0>(GetParam());
  const bool pool_on = std::get<1>(GetParam());
  pool::SetPoolEnabledForTesting(pool_on);
  const std::string tag = which + std::string(pool_on ? "_p1" : "_p0");
  const data::SequenceDataset dataset = MakeDataset();

  // Reference: one uninterrupted run.
  Trainee clean = MakeTrainee(which);
  clean.rec->Fit(dataset, BaseOptions(::testing::TempDir() + "/krc_" + tag));
  const std::vector<std::string> want = ParamBytes(clean.module());

  // Interrupted run: simulated kill at step 6, mid-epoch 2 (the epoch-1
  // checkpoint at step 4 is on disk).
  const std::string dir = ::testing::TempDir() + "/kri_" + tag;
  fault::SetSpecForTest("stop_at_step=6");
  {
    Trainee interrupted = MakeTrainee(which);
    interrupted.rec->Fit(dataset, BaseOptions(dir));
  }
  fault::SetSpecForTest(nullptr);

  // Resume in a fresh process-equivalent: a brand-new model instance.
  Trainee resumed = MakeTrainee(which);
  TrainOptions options = BaseOptions(dir);
  options.resume = true;
  resumed.rec->Fit(dataset, options);

  EXPECT_EQ(ParamBytes(resumed.module()), want);
  // Identical parameters must score identically too.
  EXPECT_EQ(resumed.rec->Score({1, 2, 3}), clean.rec->Score({1, 2, 3}));
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndPool, KillResumeTest,
    ::testing::Combine(::testing::Values("vsan", "sasrec"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<KillResumeTest::ParamType>& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_PoolOn" : "_PoolOff");
    });

// Caser (instance-window batches, two RNG streams) and SVAE (annealed
// beta) resume through the same shared loop.  Caser batches one instance
// per (user, position t >= 1), so each kill is placed by the model's own
// step count: the second step of epoch 2, with the epoch-1 checkpoint on
// disk and epoch 2 already moving the parameters.
int64_t MidEpochTwoStep(const std::string& which,
                        const data::SequenceDataset& dataset) {
  int64_t rows = dataset.num_users();
  if (which == "caser") {
    rows = 0;
    for (int32_t u = 0; u < dataset.num_users(); ++u) {
      rows += static_cast<int64_t>(dataset.sequence(u).size()) - 1;
    }
  }
  return (rows + 15) / 16 + 2;  // BaseOptions' batch of 16
}

class BaselineKillResumeTest : public KillResumeTest {};

TEST_P(BaselineKillResumeTest, ResumedRunMatchesUninterruptedBitwise) {
  const std::string which = std::get<0>(GetParam());
  const bool pool_on = std::get<1>(GetParam());
  pool::SetPoolEnabledForTesting(pool_on);
  const std::string tag = which + std::string(pool_on ? "_p1" : "_p0");
  const data::SequenceDataset dataset = MakeDataset();

  Trainee clean = MakeTrainee(which);
  clean.rec->Fit(dataset, BaseOptions(::testing::TempDir() + "/bkrc_" + tag));
  const std::vector<std::string> want = ParamBytes(clean.module());

  const std::string dir = ::testing::TempDir() + "/bkri_" + tag;
  const std::string spec =
      "stop_at_step=" + std::to_string(MidEpochTwoStep(which, dataset));
  fault::SetSpecForTest(spec.c_str());
  {
    Trainee interrupted = MakeTrainee(which);
    interrupted.rec->Fit(dataset, BaseOptions(dir));
  }
  fault::SetSpecForTest(nullptr);

  Trainee resumed = MakeTrainee(which);
  TrainOptions options = BaseOptions(dir);
  options.resume = true;
  resumed.rec->Fit(dataset, options);

  EXPECT_EQ(ParamBytes(resumed.module()), want);
  EXPECT_EQ(resumed.rec->Score({1, 2, 3}), clean.rec->Score({1, 2, 3}));
}

INSTANTIATE_TEST_SUITE_P(
    BaselinesAndPool, BaselineKillResumeTest,
    ::testing::Combine(::testing::Values("caser", "svae"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<KillResumeTest::ParamType>& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_PoolOn" : "_PoolOff");
    });

// --- Divergence guard policies ----------------------------------------

TEST_F(FaultTest, SkipBatchSurvivesInjectedNanLoss) {
  const data::SequenceDataset dataset = MakeDataset();
  const int64_t before = CounterValue("fault.nonfinite_loss");
  fault::SetSpecForTest("nan_loss_at_step=5");

  Trainee t = MakeTrainee("vsan");
  TrainOptions options = BaseOptions(::testing::TempDir() + "/nan_skip");
  options.divergence_policy = DivergencePolicy::kSkipBatch;
  int epochs_reported = 0;
  options.epoch_callback = [&](const EpochStats&) { ++epochs_reported; };
  t.rec->Fit(dataset, options);

  EXPECT_EQ(epochs_reported, 3);  // training ran to completion
  EXPECT_EQ(CounterValue("fault.nonfinite_loss"), before + 1);
  ExpectAllFinite(t.module());
}

TEST_F(FaultTest, RollbackRestoresTheCleanTrajectory) {
  const data::SequenceDataset dataset = MakeDataset();

  Trainee clean = MakeTrainee("vsan");
  clean.rec->Fit(dataset, BaseOptions(::testing::TempDir() + "/rb_clean"));
  const std::vector<std::string> want = ParamBytes(clean.module());

  const int64_t before = CounterValue("fault.rollbacks");
  // NaN at step 6: steps 5-6 of epoch 2 have already moved the parameters,
  // so only a rollback to the epoch-1 checkpoint (params, Adam moments,
  // RNG streams, batch order) can reproduce the clean run.  The injected
  // fault is one-shot, so the replay goes through clean.
  fault::SetSpecForTest("nan_loss_at_step=6");
  Trainee t = MakeTrainee("vsan");
  TrainOptions options = BaseOptions(::testing::TempDir() + "/rb_fault");
  options.divergence_policy = DivergencePolicy::kRollbackToLastCheckpoint;
  t.rec->Fit(dataset, options);

  EXPECT_EQ(CounterValue("fault.rollbacks"), before + 1);
  EXPECT_EQ(ParamBytes(t.module()), want);
}

TEST_F(FaultTest, AbortStopsTrainingImmediately) {
  const data::SequenceDataset dataset = MakeDataset();
  const int64_t before = CounterValue("fault.nonfinite_loss");
  fault::SetSpecForTest("nan_loss_at_step=1");

  Trainee t = MakeTrainee("sasrec");
  TrainOptions options = BaseOptions(::testing::TempDir() + "/abort");
  options.divergence_policy = DivergencePolicy::kAbort;
  int epochs_reported = 0;
  options.epoch_callback = [&](const EpochStats&) { ++epochs_reported; };
  t.rec->Fit(dataset, options);

  EXPECT_EQ(epochs_reported, 0);  // aborted before any epoch completed
  EXPECT_EQ(CounterValue("fault.nonfinite_loss"), before + 1);
}

TEST_F(FaultTest, RollbackWithoutCheckpointDegradesToSkip) {
  const data::SequenceDataset dataset = MakeDataset();
  fault::SetSpecForTest("nan_loss_at_step=2");

  Trainee t = MakeTrainee("sasrec");
  TrainOptions options;  // no checkpoint_dir: nothing to roll back to
  options.epochs = 2;
  options.batch_size = 16;
  options.divergence_policy = DivergencePolicy::kRollbackToLastCheckpoint;
  int epochs_reported = 0;
  options.epoch_callback = [&](const EpochStats&) { ++epochs_reported; };
  t.rec->Fit(dataset, options);

  EXPECT_EQ(epochs_reported, 2);  // degraded to skip, completed anyway
  ExpectAllFinite(t.module());
}

// --- Corrupt checkpoints at resume time --------------------------------

TEST_F(FaultTest, CorruptCheckpointRefusesToResume) {
  const data::SequenceDataset dataset = MakeDataset();
  const std::string dir = ::testing::TempDir() + "/corrupt_resume";

  // Arm the corruption tap: the checkpoint is flipped right after the
  // atomic write, as bit rot or a torn disk would.
  fault::SetSpecForTest("corrupt_checkpoint_bytes=3");
  {
    Trainee t = MakeTrainee("sasrec");
    TrainOptions options = BaseOptions(dir);
    options.epochs = 1;
    t.rec->Fit(dataset, options);
  }
  fault::SetSpecForTest(nullptr);
  ASSERT_TRUE(FileExists(dir + "/sasrec.ckpt"));

  // Resume must refuse to train rather than overwrite the evidence.
  Trainee resumed = MakeTrainee("sasrec");
  TrainOptions options = BaseOptions(dir);
  options.resume = true;
  int epochs_reported = 0;
  options.epoch_callback = [&](const EpochStats&) { ++epochs_reported; };
  resumed.rec->Fit(dataset, options);
  EXPECT_EQ(epochs_reported, 0);
  // The corrupt file is still there for post-mortem.
  EXPECT_TRUE(FileExists(dir + "/sasrec.ckpt"));
}

TEST_F(FaultTest, ResumeWithoutCheckpointStartsFresh) {
  const data::SequenceDataset dataset = MakeDataset();
  Trainee t = MakeTrainee("sasrec");
  const std::string dir = ::testing::TempDir() + "/fresh_resume";
  std::remove((dir + "/sasrec.ckpt").c_str());  // drop prior runs' leftovers
  TrainOptions options = BaseOptions(dir);
  options.epochs = 1;
  options.resume = true;  // nothing on disk yet: trains from scratch
  int epochs_reported = 0;
  options.epoch_callback = [&](const EpochStats&) { ++epochs_reported; };
  t.rec->Fit(dataset, options);
  EXPECT_EQ(epochs_reported, 1);
}

// --- Subprocess hard-kill (_Exit: no destructors, no flushes) -----------

TEST(SubprocessCrashTest, HardKillThenResumeMatchesCleanRun) {
  const std::string helper = FAULT_HELPER_PATH;
  for (const std::string which : {"vsan", "sasrec"}) {
    SCOPED_TRACE(which);
    const std::string base = ::testing::TempDir() + "/sub_" + which;
    const std::string clean_dir = base + "_clean";
    const std::string crash_dir = base + "_crash";
    const std::string clean_params = base + "_clean.params";
    const std::string crash_params = base + "_crash.params";
    std::remove(clean_params.c_str());
    std::remove(crash_params.c_str());

    // Uninterrupted reference run.
    std::string cmd =
        helper + " " + which + " " + clean_dir + " " + clean_params;
    int rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    ASSERT_EQ(WEXITSTATUS(rc), 0) << cmd;

    // Hard kill at step 6: _Exit(134), no destructors, no flushes — the
    // epoch-1 checkpoint on disk is all that survives.
    cmd = "VSAN_FAULT=abort_at_step=6 " + helper + " " + which + " " +
          crash_dir + " " + crash_params;
    rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    ASSERT_EQ(WEXITSTATUS(rc), 134) << cmd;
    EXPECT_FALSE(FileExists(crash_params));  // died before writing output

    // Resume in a fresh process and finish.
    cmd = helper + " " + which + " " + crash_dir + " " + crash_params +
          " --resume";
    rc = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(rc));
    ASSERT_EQ(WEXITSTATUS(rc), 0) << cmd;

    std::string clean_bytes, crash_bytes;
    ASSERT_TRUE(ReadFileToString(clean_params, &clean_bytes).ok());
    ASSERT_TRUE(ReadFileToString(crash_params, &crash_bytes).ok());
    EXPECT_EQ(clean_bytes, crash_bytes);
  }
}

// The same hard kill for Caser and SVAE, placed mid-epoch 2 by each
// model's own step count.
TEST(SubprocessCrashTest, HardKillThenResumeMatchesCleanRunBaselines) {
  const std::string helper = FAULT_HELPER_PATH;
  const data::SequenceDataset dataset = MakeDataset();  // the helper's too
  auto run = [&](const std::string& env, const std::string& args) {
    const std::string cmd = env + helper + " " + args;
    const int rc = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(rc)) << cmd;
    return WEXITSTATUS(rc);
  };
  for (const std::string which : {"caser", "svae"}) {
    SCOPED_TRACE(which);
    const std::string base = ::testing::TempDir() + "/bsub_" + which;
    const std::string clean_params = base + "_clean.params";
    const std::string crash_params = base + "_crash.params";
    std::remove(clean_params.c_str());
    std::remove(crash_params.c_str());
    const std::string crash_args =
        which + " " + base + "_crash " + crash_params;

    ASSERT_EQ(run("", which + " " + base + "_clean " + clean_params), 0);
    const std::string kill = "VSAN_FAULT=abort_at_step=" +
                             std::to_string(MidEpochTwoStep(which, dataset)) +
                             " ";
    ASSERT_EQ(run(kill, crash_args), 134);
    EXPECT_FALSE(FileExists(crash_params));  // died before writing output
    ASSERT_EQ(run("", crash_args + " --resume"), 0);

    std::string clean_bytes, crash_bytes;
    ASSERT_TRUE(ReadFileToString(clean_params, &clean_bytes).ok());
    ASSERT_TRUE(ReadFileToString(crash_params, &crash_bytes).ok());
    EXPECT_EQ(clean_bytes, crash_bytes);
  }
}

}  // namespace
}  // namespace vsan
