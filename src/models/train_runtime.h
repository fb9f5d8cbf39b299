#ifndef VSAN_MODELS_TRAIN_RUNTIME_H_
#define VSAN_MODELS_TRAIN_RUNTIME_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "models/recommender.h"
#include "nn/checkpoint.h"
#include "nn/module.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "util/fault.h"
#include "util/fileio.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace vsan {
namespace models {

// Crash-safety companion for a model's Fit loop: checkpoint/resume,
// divergence guards, and the fault-injection taps.  RunTrainLoop
// (models/train_loop.h) is the one loop that drives it, and every neural
// model trains through that loop, so guards, metrics, spans and
// checkpoints behave identically by construction.  Header-only because
// vsan_core uses it without linking vsan_models.
//
// Protocol (all steps 1-based), as RunTrainLoop implements it:
//
//   TrainRuntime rt(options, hooks);
//   int64_t step = 0; int32_t epoch = 0;
//   if (!rt.Begin(&step, &epoch)) return;          // resume or refuse
//   for (; epoch < options.epochs;) {
//     NewEpoch();
//     bool rolled_back = false;
//     while (NextBatch()) {
//       if (rt.PreStep(step + 1)) return;          // simulated kill
//       ++step;
//       forward -> loss;
//       switch (rt.GuardLoss(&loss_value, step)) { kSkip: continue;
//         kStop: goto done; kRollback: rt.Rollback(&step, &epoch);
//         rolled_back = true; break; }
//       backward; clip -> norm;
//       switch (rt.GuardGradNorm(norm, step)) { ...same, skip = no Step() }
//       optimizer.Step();
//     }
//     if (rolled_back) continue;                   // replay from checkpoint
//     rt.EndEpoch(epoch, step);                    // checkpoint when due
//     ++epoch;
//   }
//
// A skipped batch still advances `step` so lr schedules and the VSAN beta
// anneal stay aligned with an uninterrupted run.  Rollback restores
// parameters, optimizer moments, RNG streams, and the data order from the
// last end-of-epoch checkpoint, then replays from there; one-shot fault
// latches (util/fault.h) guarantee the replay does not re-trigger the
// injected fault.
class TrainRuntime {
 public:
  enum class StepAction { kProceed, kSkip, kRollback, kStop };

  // What the runtime needs from the model to checkpoint and restore it.
  // `optimizer` may be null (models trained without an optim::Optimizer);
  // `rngs` are restored positionally, so order must be stable across runs.
  struct Hooks {
    const nn::Module* module = nullptr;
    nn::Module* mutable_module = nullptr;
    optim::Optimizer* optimizer = nullptr;
    std::vector<Rng*> rngs;
    std::function<void(std::string*)> save_data_state;
    std::function<Status(const std::string&)> load_data_state;
    std::string model_name;
  };

  TrainRuntime(const TrainOptions& options, Hooks hooks)
      : options_(options), hooks_(std::move(hooks)) {
    if (!options_.checkpoint_dir.empty()) {
      path_ = options_.checkpoint_dir + "/" + hooks_.model_name + ".ckpt";
    }
    auto& metrics = obs::MetricsRegistry::Global();
    nonfinite_loss_ = metrics.GetCounter("fault.nonfinite_loss");
    nonfinite_grad_ = metrics.GetCounter("fault.nonfinite_grad");
    rollbacks_ = metrics.GetCounter("fault.rollbacks");
  }

  // Resumes from the checkpoint when requested.  Returns false when
  // training must not proceed (a resume checkpoint exists but is corrupt —
  // starting fresh would overwrite the evidence).  On a successful resume
  // *step / *next_epoch jump forward; otherwise they are left at zero.
  bool Begin(int64_t* step, int32_t* next_epoch) {
    if (path_.empty()) return true;
    Status status = EnsureDirectory(options_.checkpoint_dir);
    if (!status.ok()) {
      VSAN_LOG_ERROR << "checkpoint dir unusable: " << status.ToString();
      return false;
    }
    if (!options_.resume) return true;
    if (!FileExists(path_)) {
      VSAN_LOG_INFO << "resume requested but no checkpoint at " << path_
                    << "; starting fresh";
      return true;
    }
    nn::TrainerState trainer;
    status = nn::LoadCheckpoint(path_, hooks_.mutable_module,
                                hooks_.optimizer, &trainer);
    if (status.ok()) status = RestoreTrainerState(trainer);
    if (!status.ok()) {
      VSAN_LOG_ERROR << "cannot resume from " << path_ << ": "
                     << status.ToString();
      return false;
    }
    *step = trainer.global_step;
    *next_epoch = trainer.epochs_completed;
    obs::MetricsRegistry::Global()
        .GetGauge("ckpt.resume_epoch")
        ->Set(trainer.epochs_completed);
    VSAN_LOG_INFO << hooks_.model_name << ": resumed from " << path_
                  << " at epoch " << trainer.epochs_completed << ", step "
                  << trainer.global_step;
    return true;
  }

  // Fault taps for the step about to run.  May _Exit (simulated crash);
  // returns true on a soft stop (simulated kill the caller can observe
  // in-process) — abandon training immediately, no checkpoint write.
  bool PreStep(int64_t step) {
    if (!fault::Enabled()) return false;
    fault::MaybeCrashAtStep(step);
    if (fault::ShouldStopAtStep(step)) {
      VSAN_LOG_WARNING << hooks_.model_name << ": fault stop at step "
                       << step;
      return true;
    }
    return false;
  }

  // Checks the batch loss (after the fault harness optionally poisons it)
  // for NaN/Inf.  kSkip: drop the batch.  kRollback: call Rollback().
  StepAction GuardLoss(float* loss, int64_t step) {
    if (fault::Enabled() && fault::ShouldInjectNanLoss(step)) {
      *loss = std::numeric_limits<float>::quiet_NaN();
    }
    if (std::isfinite(*loss)) return StepAction::kProceed;
    nonfinite_loss_->Increment();
    return OnNonFinite("loss", *loss, step);
  }

  // Checks the post-clip gradient norm.  On kSkip the caller must not run
  // optimizer Step() for this batch.
  StepAction GuardGradNorm(double norm, int64_t step) {
    if (std::isfinite(norm)) return StepAction::kProceed;
    nonfinite_grad_->Increment();
    return OnNonFinite("gradient norm", norm, step);
  }

  // Restores the last checkpoint after a guard returned kRollback and
  // rewinds *step / *next_epoch so the caller replays from there.
  void Rollback(int64_t* step, int32_t* next_epoch) {
    nn::TrainerState trainer;
    Status status = nn::LoadCheckpoint(path_, hooks_.mutable_module,
                                       hooks_.optimizer, &trainer);
    if (status.ok()) status = RestoreTrainerState(trainer);
    VSAN_CHECK(status.ok()) << "rollback failed: " << status.ToString();
    *step = trainer.global_step;
    *next_epoch = trainer.epochs_completed;
    rollbacks_->Increment();
    VSAN_LOG_WARNING << hooks_.model_name << ": rolled back to epoch "
                     << trainer.epochs_completed << ", step "
                     << trainer.global_step;
  }

  // Writes a checkpoint when the cadence (or the final epoch) says so.
  // `epoch` is the 0-based epoch just completed; `step` is cumulative.
  void EndEpoch(int32_t epoch, int64_t step) {
    if (path_.empty()) return;
    const int32_t done = epoch + 1;
    const int32_t every = std::max(1, options_.checkpoint_every_n_epochs);
    if (done % every != 0 && done != options_.epochs) return;
    nn::TrainerState trainer;
    trainer.epochs_completed = done;
    trainer.global_step = step;
    for (const Rng* rng : hooks_.rngs) {
      trainer.rng_states.emplace_back();
      rng->SaveState(&trainer.rng_states.back());
    }
    if (hooks_.save_data_state) hooks_.save_data_state(&trainer.data_state);
    if (options_.early_stopper != nullptr) {
      options_.early_stopper->SaveState(&trainer.early_stopping_state);
    }
    Status status =
        nn::SaveCheckpoint(path_, *hooks_.module, hooks_.optimizer, trainer);
    if (!status.ok()) {
      VSAN_LOG_ERROR << "checkpoint save failed: " << status.ToString();
      return;
    }
    have_checkpoint_ = true;
    if (options_.verbose) {
      VSAN_LOG_INFO << hooks_.model_name << ": checkpointed epoch " << done
                    << " to " << path_;
    }
  }

  const std::string& checkpoint_path() const { return path_; }
  const std::string& model_name() const { return hooks_.model_name; }

 private:
  StepAction OnNonFinite(const char* what, double value, int64_t step) {
    switch (options_.divergence_policy) {
      case DivergencePolicy::kAbort:
        VSAN_LOG_ERROR << hooks_.model_name << ": non-finite " << what
                       << " (" << value << ") at step " << step
                       << "; aborting training";
        return StepAction::kStop;
      case DivergencePolicy::kRollbackToLastCheckpoint:
        if (have_checkpoint_ || (!path_.empty() && FileExists(path_))) {
          VSAN_LOG_WARNING << hooks_.model_name << ": non-finite " << what
                           << " at step " << step
                           << "; rolling back to last checkpoint";
          return StepAction::kRollback;
        }
        VSAN_LOG_WARNING << hooks_.model_name << ": non-finite " << what
                         << " at step " << step
                         << " but no checkpoint exists; skipping batch";
        return StepAction::kSkip;
      case DivergencePolicy::kSkipBatch:
        break;
    }
    VSAN_LOG_WARNING << hooks_.model_name << ": non-finite " << what
                     << " (" << value << ") at step " << step
                     << "; skipping batch";
    return StepAction::kSkip;
  }

  Status RestoreTrainerState(const nn::TrainerState& trainer) {
    if (trainer.rng_states.size() != hooks_.rngs.size()) {
      return Status::InvalidArgument(
          StrCat("checkpoint has ", trainer.rng_states.size(),
                 " rng streams, trainer expects ", hooks_.rngs.size()));
    }
    for (size_t i = 0; i < hooks_.rngs.size(); ++i) {
      Status status = hooks_.rngs[i]->RestoreState(
          trainer.rng_states[i].data(), trainer.rng_states[i].size());
      if (!status.ok()) return status;
    }
    if (hooks_.load_data_state) {
      Status status = hooks_.load_data_state(trainer.data_state);
      if (!status.ok()) return status;
    }
    if (options_.early_stopper != nullptr &&
        !trainer.early_stopping_state.empty()) {
      Status status = options_.early_stopper->RestoreState(
          trainer.early_stopping_state.data(),
          trainer.early_stopping_state.size());
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  TrainOptions options_;
  Hooks hooks_;
  std::string path_;
  bool have_checkpoint_ = false;
  obs::Counter* nonfinite_loss_ = nullptr;
  obs::Counter* nonfinite_grad_ = nullptr;
  obs::Counter* rollbacks_ = nullptr;
};

}  // namespace models
}  // namespace vsan

#endif  // VSAN_MODELS_TRAIN_RUNTIME_H_
