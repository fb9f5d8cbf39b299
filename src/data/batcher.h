#ifndef VSAN_DATA_BATCHER_H_
#define VSAN_DATA_BATCHER_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"
#include "util/status.h"

namespace vsan {
namespace data {

// One mini-batch of fixed-length, left-padded training sequences with
// per-position next-item (or next-k, Eq. 18) targets.
struct TrainBatch {
  int64_t batch_size = 0;  // rows actually filled (last batch may be short)
  int64_t seq_len = 0;     // n

  // [batch_size * seq_len], padding item 0 on the left.
  std::vector<int32_t> inputs;
  // [batch_size * seq_len]; the item to predict after each position, or -1
  // where there is nothing to predict (padding).
  std::vector<int32_t> next_targets;
  // Next-k targets per position (k >= 1); empty vector where nothing to
  // predict.  Only populated when Options::next_k > 1.
  std::vector<std::vector<int32_t>> nextk_targets;
  // [batch_size * seq_len]; 1.0 where next_targets != -1.
  std::vector<float> position_mask;
};

// Shuffles training users each epoch and emits TrainBatches.  Users whose
// sequence is shorter than 2 items are skipped (no next-item target).
class SequenceBatcher {
 public:
  using Batch = TrainBatch;

  struct Options {
    int64_t max_len = 50;    // n, the fixed sequence length
    int64_t batch_size = 128;
    int32_t next_k = 1;      // k of Eq. 18; 1 = standard next-item
    // Left padding (the attention models' convention, recent item last) vs
    // right padding (recurrent models: the sequence starts at position 0 so
    // the hidden state is not polluted by leading padding).
    bool pad_left = true;
    uint64_t seed = 7;
  };

  SequenceBatcher(const SequenceDataset* dataset, const Options& options);

  // Reshuffles user order and rewinds.  Call before each epoch.
  void NewEpoch();

  // Fills the next batch; returns false once the epoch is exhausted.
  bool NextBatch(TrainBatch* batch);

  int64_t num_batches() const;
  int64_t num_training_users() const {
    return static_cast<int64_t>(user_order_.size());
  }

  // Checkpoint support.  The shuffle RNG alone is not enough to resume: the
  // Fisher-Yates in NewEpoch permutes the *current* order, so both the RNG
  // state and the permutation (plus cursor) must round-trip for a resumed
  // run to see the same batches as an uninterrupted one.
  void SaveState(std::string* out) const;
  Status RestoreState(const std::string& blob);

  // Truncates to the last `max_len` items and pads with the padding item on
  // the chosen side.  Shared with evaluation-time fold-in encoding.
  static std::vector<int32_t> PadSequence(const std::vector<int32_t>& seq,
                                          int64_t max_len,
                                          bool pad_left = true);

 private:
  void FillRow(int32_t user, int64_t row, TrainBatch* batch) const;

  const SequenceDataset* dataset_;  // not owned
  Options options_;
  Rng rng_;
  std::vector<int32_t> user_order_;
  int64_t cursor_ = 0;
};

}  // namespace data
}  // namespace vsan

#endif  // VSAN_DATA_BATCHER_H_
