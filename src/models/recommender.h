#ifndef VSAN_MODELS_RECOMMENDER_H_
#define VSAN_MODELS_RECOMMENDER_H_

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "tensor/gemm.h"
#include "util/early_stopping.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace vsan {
namespace optim {
class LrSchedule;
}  // namespace optim
namespace obs {
class TelemetryRecorder;
}  // namespace obs
}  // namespace vsan

namespace vsan {

// Per-epoch training summary handed to TrainOptions::epoch_callback.
// grad_norm is the mean pre-clip gradient norm over the epoch's steps
// (-1 when clipping is disabled or the trainer does not use autograd);
// learning_rate is the value used on the epoch's last step (-1 when the
// trainer has no notion of a per-step rate).
struct EpochStats {
  int32_t epoch = 0;
  double loss = 0.0;
  double wall_ms = 0.0;
  int64_t batches = 0;
  double grad_norm = -1.0;
  float learning_rate = -1.0f;
};

// What to do when a training step produces a non-finite loss or a
// non-finite post-clip gradient norm.
enum class DivergencePolicy {
  kAbort,                     // stop training immediately
  kSkipBatch,                 // drop the poisoned batch, keep going
  kRollbackToLastCheckpoint,  // reload the last checkpoint and continue
};

// Options shared by every trainable recommender.
struct TrainOptions {
  int32_t epochs = 10;
  int64_t batch_size = 128;
  float learning_rate = 1e-3f;  // paper: Adam, lr 1e-3
  // Optional per-step schedule (not owned); overrides learning_rate when
  // set.  See optim/lr_schedule.h.
  const optim::LrSchedule* lr_schedule = nullptr;
  float grad_clip_norm = 5.0f;  // 0 disables clipping
  uint64_t seed = 17;
  bool verbose = false;
  // Invoked after each epoch with that epoch's summary stats.
  std::function<void(const EpochStats&)> epoch_callback;
  // Optional per-epoch JSONL sink (not owned); see obs/telemetry.h.
  obs::TelemetryRecorder* telemetry = nullptr;

  // --- Crash safety ---------------------------------------------------
  // When non-empty, a full VSANCKP1 checkpoint (params + optimizer moments
  // + RNG streams + data order) is written to
  // `<checkpoint_dir>/<model>.ckpt` every `checkpoint_every_n_epochs`
  // epochs, atomically.  See nn/checkpoint.h.
  std::string checkpoint_dir;
  int32_t checkpoint_every_n_epochs = 1;
  // Resume from the checkpoint in checkpoint_dir if one exists.  The
  // resumed run's final parameters are bitwise identical to an
  // uninterrupted run with the same options.
  bool resume = false;
  // Reaction to a non-finite loss or gradient norm mid-epoch.  Rollback
  // degrades to skip (with a warning) when no checkpoint exists yet.
  DivergencePolicy divergence_policy = DivergencePolicy::kSkipBatch;
  // Optional early stopper (not owned).  The caller drives Update() from
  // epoch_callback; the trainer only persists/restores its progress inside
  // checkpoints so a resumed run keeps the patience countdown.
  EarlyStopper* early_stopper = nullptr;
};

// A model's final scoring layer exposed as raw fp32 buffers, the seam the
// fast-retrieval backends (eval/retrieval.h) build on.  For every sequence
// model here the score vector decomposes as
//
//   score[i] = dot(query, item_vector(i)) + bias[i]
//
// where `query` comes from SequentialRecommender::EncodeQueryInto — the
// model's eval-mode forward pass, stopped just before the output
// projection.  ScoreQueries below is that projection, shared by the base
// ScoreInto and the serving daemon's batched scoring stage.  With the
// decomposition the evaluator can also rank a large catalog without
// materializing the full score vector: quantized scans and IVF cluster
// pruning only need the item vectors.
//
// `weights` and `bias` point into the model's own parameters; they are not
// owned and stay valid only while the model is alive and not refitted.
struct FactorizedHead {
  int64_t dim = 0;       // width of the query and item vectors
  int64_t num_rows = 0;  // num_items + 1; row 0 is the padding item
  // Item i's vector is the contiguous row weights[i*dim .. i*dim+dim) when
  // items_are_rows (an embedding-table layout), otherwise the strided
  // column weights[p*num_rows + i] for p in [0, dim) (a Linear layer's
  // [in, out] weight).
  const float* weights = nullptr;
  bool items_are_rows = true;
  const float* bias = nullptr;  // optional [num_rows]; nullptr when absent

  // Copies item i's vector into out[0..dim).
  void CopyItem(int64_t i, float* out) const {
    if (items_are_rows) {
      std::memcpy(out, weights + i * dim,
                  sizeof(float) * static_cast<size_t>(dim));
    } else {
      for (int64_t p = 0; p < dim; ++p) out[p] = weights[p * num_rows + i];
    }
  }

  // Scores `count` contiguous query rows ([count, dim]) against every item:
  // scores[r * num_rows + i] = dot(query r, item_vector(i)) + bias[i].  One
  // Gemm over the whole head; every element receives its dim contributions
  // in ascending order from 0 whatever the M blocking (tensor/gemm.h), so
  // each entry is bitwise the DotFma / DotFmaStrided chain
  // (tensor/int8_dot.h) plus the bias, at any `count`.
  void ScoreQueries(const float* queries, int64_t count,
                    float* scores) const {
    std::fill(scores, scores + count * num_rows, 0.0f);
    Gemm(queries, weights, scores, count, num_rows, dim, /*trans_a=*/false,
         /*trans_b=*/items_are_rows);
    if (bias == nullptr) return;
    for (int64_t r = 0; r < count; ++r) {
      float* row = scores + r * num_rows;
      for (int64_t i = 0; i < num_rows; ++i) row[i] += bias[i];
    }
  }
};

// Common interface for the paper's nine models (Table III).
//
// Evaluation follows strong generalization: held-out users are unseen at
// training time, so Score() receives only a fold-in item sequence and must
// return a preference score for every item.
class SequentialRecommender {
 public:
  virtual ~SequentialRecommender() = default;

  virtual std::string name() const = 0;

  // Trains on full histories of training users.
  virtual void Fit(const data::SequenceDataset& train,
                   const TrainOptions& options) = 0;

  // Scores all items for a previously unseen user given their fold-in
  // history (chronological, item ids in [1, num_items]).  Returns a vector
  // of size num_items + 1; index 0 (the padding item) is ignored by the
  // evaluator.  Higher means more likely to be interacted with next.  The
  // default wraps ScoreInto(); only models without a FactorizedHead (the
  // non-factorized baselines) override it.
  virtual std::vector<float> Score(const std::vector<int32_t>& fold_in) const {
    std::vector<float> scores;
    ScoreInto(fold_in, &scores);
    return scores;
  }

  // Like Score(), but writes into a caller-owned vector so repeated calls
  // (the evaluator scores thousands of users in a loop) reuse one
  // allocation.  `scores` is resized to num_items + 1 and fully
  // overwritten.  The default is the one scoring path of every factorized
  // model: EncodeQueryInto, then FactorizedHead::ScoreQueries.  A model
  // without a head falls back to its Score() override — so every model
  // must provide a head or override Score().
  virtual void ScoreInto(const std::vector<int32_t>& fold_in,
                         std::vector<float>* scores) const {
    FactorizedHead head;
    if (!GetFactorizedHead(&head)) {
      *scores = Score(fold_in);
      return;
    }
    std::vector<float> query;
    VSAN_CHECK(EncodeQueryInto(fold_in, &query))
        << name() << ": a factorized head needs EncodeQueryInto";
    scores->resize(static_cast<size_t>(head.num_rows));
    head.ScoreQueries(query.data(), /*count=*/1, scores->data());
  }

  // --- Fast-retrieval seam (see FactorizedHead above) -------------------
  //
  // Models whose scoring head is an affine projection of a user vector
  // fill `head` / `query` and return true; the defaults report no
  // factorization, which restricts such a model to the exact backend.
  // Both must only be called after Fit(), and EncodeQueryInto must be
  // thread-safe for concurrent const calls exactly like Score().

  virtual bool GetFactorizedHead(FactorizedHead* head) const {
    (void)head;
    return false;
  }

  // Writes the query-side vector (size head.dim) for one user: the
  // deterministic eval-mode forward pass, minus the projection onto the
  // item vocabulary.
  virtual bool EncodeQueryInto(const std::vector<int32_t>& fold_in,
                               std::vector<float>* query) const {
    (void)fold_in;
    (void)query;
    return false;
  }

  // Batched encode: writes fold_ins.size() query vectors contiguously into
  // `queries` ([count, head.dim] row-major).  The hot path of the serving
  // daemon's dynamic batching queue (src/serve/batcher.h): models whose
  // eval forward is a fixed-shape sequence stack (vsan, sasrec) override
  // this with ONE forward pass over the whole batch — a single set of
  // blocked GEMMs over [count * max_len] rows instead of count per-query
  // GEMM cascades.  Results are bitwise-identical to calling
  // EncodeQueryInto per query: every per-row accumulation chain in the
  // blocked GEMM is a pure function of the row's operands and the K
  // blocking, never of how many other rows share the call (the same
  // invariance tests/gemm_blocked_test.cc locks down across block sizes),
  // and no eval-mode op reduces across batch entries.  Asserted in
  // tests/serve_test.cc.  The default falls back to the per-query path, so
  // every model with EncodeQueryInto batches correctly, just without the
  // fused-GEMM win.  Thread-safety matches EncodeQueryInto (concurrent
  // const calls are safe).
  virtual bool EncodeBatchInto(
      const std::vector<std::vector<int32_t>>& fold_ins,
      std::vector<float>* queries) const {
    queries->clear();
    std::vector<float> one;
    for (const std::vector<int32_t>& fold_in : fold_ins) {
      if (!EncodeQueryInto(fold_in, &one)) return false;
      queries->insert(queries->end(), one.begin(), one.end());
    }
    return true;
  }
};

// Batched inference: scores every fold-in history and returns the score
// vectors positionally aligned with `fold_ins`.  With `parallel` set (the
// opt-in path), users are distributed over the global ThreadPool; Score()
// must then be thread-safe for concurrent const calls, which holds for all
// models in this library because eval-mode forwards never mutate model
// state (dropout and latent sampling are training-only).  The kernels a
// Score() call reaches fall back to serial inside the pool, so the two
// levels compose without oversubscription, and results are identical to
// the serial path at every thread count.
inline std::vector<std::vector<float>> ScoreBatch(
    const SequentialRecommender& model,
    const std::vector<std::vector<int32_t>>& fold_ins, bool parallel = true) {
  std::vector<std::vector<float>> scores(fold_ins.size());
  const int64_t count = static_cast<int64_t>(fold_ins.size());
  if (!parallel) {
    for (int64_t i = 0; i < count; ++i) {
      model.ScoreInto(fold_ins[i], &scores[i]);
    }
    return scores;
  }
  ParallelFor(0, count, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      model.ScoreInto(fold_ins[i], &scores[i]);
    }
  });
  return scores;
}

}  // namespace vsan

#endif  // VSAN_MODELS_RECOMMENDER_H_
