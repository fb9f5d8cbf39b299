#ifndef VSAN_MODELS_TRAIN_LOOP_H_
#define VSAN_MODELS_TRAIN_LOOP_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "models/epoch_report.h"
#include "models/recommender.h"
#include "models/train_runtime.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace vsan {
namespace models {

// One training step's objective as returned by RunTrainLoop's loss
// callback: the scalar loss to backpropagate plus named per-step terms that
// ride along in the epoch's telemetry extras, in callback order (e.g. the
// recon / kl / beta decomposition of VSAN's Eq. 20 ELBO).  Implicitly
// constructible from a bare loss for models with nothing to decompose.
struct StepLoss {
  struct Term {
    const char* name;
    double value;
    // false: averaged over the epoch's completed steps.  true: the value
    // from the epoch's last forward pass (schedules such as annealed beta).
    bool report_last = false;
  };

  StepLoss(Variable loss_in) : loss(std::move(loss_in)) {}  // NOLINT

  Variable loss;
  std::vector<Term> terms;
};

// The epoch/step loop every neural model trains through: for each epoch,
// iterate the batch source, build the loss with `loss_fn`, backprop, clip,
// and step the optimizer.  Reports per-epoch stats (mean loss, wall time,
// mean pre-clip gradient norm, last learning rate, the StepLoss terms)
// through TrainOptions::epoch_callback and, when set,
// TrainOptions::telemetry.
//
// `batcher` is any batch source with `NewEpoch()`, `bool NextBatch(Batch*)`
// and a nested `Batch` type (data::SequenceBatcher, or a model-local
// adapter such as Caser's instance windows).  `loss_fn(batch, step)` gets
// the pre-increment schedule step, the same index the lr schedule sees, so
// step-keyed schedules (the beta anneal) reproduce on a resumed run.
//
// `runtime` (see train_runtime.h) supplies crash safety: resume from a
// checkpoint at entry, divergence guards on every step's loss and post-clip
// gradient norm, end-of-epoch checkpoint writes, and the fault-injection
// taps.  A skipped batch still advances the step counter so lr schedules
// stay aligned with an uninterrupted run.
//
// The loop itself is sequential (each step depends on the previous
// parameter update), but the GEMMs inside loss_fn's forward and backward
// passes run on the global ThreadPool (util/thread_pool.h), so a training
// step uses all configured threads.  For post-training batched inference —
// e.g. an epoch_callback that evaluates on a validation split — use
// ScoreBatch() (models/recommender.h) or eval::EvaluateRanking, which
// parallelize over users instead.
template <typename Batcher, typename LossFn>
void RunTrainLoop(Batcher* batcher, optim::Optimizer* optimizer,
                  const TrainOptions& options, TrainRuntime* runtime,
                  LossFn&& loss_fn) {
  obs::Counter* step_counter =
      obs::MetricsRegistry::Global().GetCounter("train.steps");
  obs::Histogram* loss_hist = obs::MetricsRegistry::Global().GetHistogram(
      "train.batch_loss", obs::ExponentialBuckets(1e-3, 2.0, 24));
  // Sliding window so a /metrics scrape reports the *recent* step latency
  // (p50/p95/p99 over the last 30 s), not a since-startup average.
  obs::SlidingWindowHistogram* step_ms_hist =
      obs::MetricsRegistry::Global().GetSlidingHistogram(
          "train.step_ms", obs::ExponentialBuckets(0.1, 2.0, 20));
  int64_t step = 0;
  int32_t epoch = 0;
  if (!runtime->Begin(&step, &epoch)) return;
  while (epoch < options.epochs) {
    VSAN_TRACE_SPAN("train/epoch", kTrain);
    Stopwatch epoch_timer;
    batcher->NewEpoch();
    double loss_sum = 0.0;
    double grad_norm_sum = 0.0;
    std::vector<StepLoss::Term> terms;  // epoch accumulators
    float last_lr = optimizer->learning_rate();
    int64_t batches = 0;
    bool rolled_back = false;
    bool stop = false;
    // Applies a guard verdict; false means this step must not go on.
    auto proceed = [&](TrainRuntime::StepAction action) {
      switch (action) {
        case TrainRuntime::StepAction::kProceed:
          return true;
        case TrainRuntime::StepAction::kSkip:
          break;
        case TrainRuntime::StepAction::kStop:
          stop = true;
          break;
        case TrainRuntime::StepAction::kRollback:
          runtime->Rollback(&step, &epoch);
          rolled_back = true;
          break;
      }
      return false;
    };
    typename Batcher::Batch batch;
    while (batcher->NextBatch(&batch)) {
      VSAN_TRACE_SPAN("train/step", kTrain);
      Stopwatch step_timer;
      if (runtime->PreStep(step + 1)) return;  // simulated kill
      if (options.lr_schedule != nullptr) {
        optimizer->set_learning_rate(options.lr_schedule->LearningRate(step));
      }
      last_lr = optimizer->learning_rate();
      const int64_t sched_step = step;
      ++step;
      StepLoss out = [&] {
        VSAN_TRACE_SPAN("train/forward", kTrain);
        return StepLoss(loss_fn(batch, sched_step));
      }();
      if (terms.empty()) {
        terms = out.terms;
        for (StepLoss::Term& term : terms) term.value = 0.0;
      }
      for (size_t i = 0; i < terms.size(); ++i) {
        if (terms[i].report_last) terms[i].value = out.terms[i].value;
      }
      float loss_value = out.loss.value()[0];
      if (!proceed(runtime->GuardLoss(&loss_value, step))) {
        if (stop || rolled_back) break;
        continue;
      }
      optimizer->ZeroGrad();
      {
        VSAN_TRACE_SPAN("train/backward", kTrain);
        out.loss.Backward();
      }
      {
        VSAN_TRACE_SPAN("train/optimizer", kTrain);
        if (options.grad_clip_norm > 0.0f) {
          const double norm = optimizer->ClipGradNorm(options.grad_clip_norm);
          if (!proceed(runtime->GuardGradNorm(norm, step))) {
            if (stop || rolled_back) break;
            continue;
          }
          grad_norm_sum += norm;
        }
        optimizer->Step();
      }
      loss_sum += loss_value;
      for (size_t i = 0; i < terms.size(); ++i) {
        if (!terms[i].report_last) terms[i].value += out.terms[i].value;
      }
      loss_hist->Observe(loss_value);
      step_ms_hist->Observe(step_timer.ElapsedMillis());
      step_counter->Increment();
      ++batches;
    }
    if (rolled_back) continue;  // replay the checkpointed epoch's successor
    if (batches > 0) {
      EpochStats stats;
      stats.epoch = epoch;
      stats.loss = loss_sum / batches;
      stats.wall_ms = epoch_timer.ElapsedMillis();
      stats.batches = batches;
      if (options.grad_clip_norm > 0.0f) {
        stats.grad_norm = grad_norm_sum / batches;
      }
      stats.learning_rate = last_lr;
      std::vector<std::pair<std::string, double>> extras;
      for (const StepLoss::Term& term : terms) {
        extras.emplace_back(term.name, term.report_last
                                           ? term.value
                                           : term.value / batches);
      }
      ReportEpoch(options, stats, step, std::move(extras));
      if (options.verbose) {
        VSAN_LOG_INFO << runtime->model_name() << " epoch " << epoch
                      << " loss " << FormatDouble(stats.loss, 4);
      }
    }
    if (stop) return;
    runtime->EndEpoch(epoch, step);
    ++epoch;
  }
}

}  // namespace models
}  // namespace vsan

#endif  // VSAN_MODELS_TRAIN_LOOP_H_
