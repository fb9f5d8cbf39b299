#ifndef VSAN_SERVE_BATCHER_H_
#define VSAN_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/topk.h"
#include "models/recommender.h"

// Dynamic request batching for the serving daemon.  HTTP handler threads
// each carry one user's request; running the model work one request at a
// time leaves the kernels in their worst regime — a [1 x max_len] forward
// for encoding, and an M=1 logits GEMM whose packed item-matrix panels are
// rebuilt per call only to be used for a single query row.  The serving
// pipeline therefore coalesces at the two model-heavy stages:
//
//   RequestBatcher  fold-in histories -> encoded states, one
//                   EncodeBatchInto forward per flush.
//   ScoreBatcher    encoded states -> top-k candidates, one M=batch GEMM
//                   over the factorized head per flush (the head panels
//                   are packed once per batch instead of once per
//                   request).
//
// Both stages sit on the same queue machinery (BatchQueue): callers enqueue
// a stack-owned job and block on a future; a single flush thread wakes when
// either `max_batch` jobs are waiting or the oldest has waited
// `max_wait_us`, processes the whole slice, and fulfills the promises.
//
// The flush policy is the classic latency/throughput dial:
//   max_batch = 1    every job runs alone (the baseline arm of
//                    BENCH_serve.json); max_wait is irrelevant.
//   max_wait_us = 0  flush whatever is queued immediately — batches form
//                    only from jobs that arrived while the previous flush
//                    was running (natural batching under load).
//   both > 1/0       bounded added latency (max_wait_us) in exchange for
//                    the fused-kernel win when traffic is dense.
//
// Overload: at most `max_queue` jobs wait at once; beyond that Submit
// rejects immediately (the daemon maps this to HTTP 429) instead of letting
// the queue — and every queued request's latency — grow without bound.
//
// Shutdown: Stop() marks the queue draining, lets the flush thread work
// through everything already queued (in max_batch chunks, so in-flight
// requests still get real responses), and only then joins it.  Submissions
// after Stop() begin return kShutdown.
//
// Batching never changes responses: EncodeBatchInto is bitwise-identical to
// per-request encoding (recommender.h), and the blocked GEMM's per-element
// ascending-k accumulation is invariant to M blocking (tensor/gemm.h), so a
// query's score row is bitwise the same at batch 1 and batch 32.

namespace vsan {
namespace obs {
class Counter;
class Gauge;
class SlidingWindowHistogram;
}  // namespace obs

namespace serve {

enum class EncodeStatus {
  kOk,
  kRejected,          // queue full — shed load now, retry later
  kShutdown,          // queue stopped before this job was accepted
  kError,             // the flush callback reported failure
  kDeadlineExceeded,  // the job's deadline expired before it was flushed
};

// Monotonic nanoseconds since an arbitrary epoch (steady_clock) — the time
// base for job enqueue stamps and request deadlines, shared by the batcher,
// the service layer, and tests.
inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The shared queue/flush-thread core under RequestBatcher and ScoreBatcher.
// Jobs are stage-specific structs derived from BatchQueue::Job; the flush
// callback downcasts and must fulfill every job's promise (Submit handles
// the rejected/shutdown paths itself).
class BatchQueue {
 public:
  struct Options {
    int32_t max_batch = 32;      // flush when this many are waiting
    int64_t max_wait_us = 2000;  // ... or when the oldest has waited this long
    int32_t max_queue = 256;     // reject beyond this many waiting jobs
    // Instrument-name prefix: "<prefix>.batch_size", "<prefix>.queue_wait_us",
    // "<prefix>.queue_depth", "<prefix>.rejected".
    std::string metric_prefix = "serve";
  };

  struct Job {
    int64_t enqueue_ns = 0;
    // Absolute steady-clock expiry (SteadyNowNs time base); 0 = no
    // deadline.  An expired job is shed — at Submit if already late, or by
    // the flush thread before it would waste a batch slot — and resolves
    // kDeadlineExceeded instead of being flushed.
    int64_t deadline_ns = 0;
    std::promise<EncodeStatus> done;
  };

  // Called from the flush thread only, never concurrently with itself; must
  // set every job's promise exactly once.
  using FlushFn = std::function<void(const std::vector<Job*>&)>;

  BatchQueue(FlushFn flush, const Options& options);
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  void Start();
  // Drains the queue (every accepted job gets a real response), then stops
  // the flush thread.  Idempotent; also runs on destruction.
  void Stop();

  // Blocks the calling thread until `job` is flushed (or rejected).  `job`
  // must outlive the call — it normally lives on the caller's stack.
  EncodeStatus Submit(Job* job);

  // Jobs waiting right now (for tests and the queue-depth gauge).
  int64_t queue_depth() const;
  int64_t flushes() const;

 private:
  void FlushLoop();

  const FlushFn flush_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // wakes the flush thread
  std::deque<Job*> queue_;
  bool stopping_ = false;
  bool started_ = false;
  int64_t flushes_ = 0;
  std::thread flush_thread_;

  obs::SlidingWindowHistogram* batch_size_hist_;
  obs::SlidingWindowHistogram* queue_wait_hist_;
  obs::Gauge* queue_depth_gauge_;
  obs::Counter* rejected_counter_;
  obs::Counter* deadline_counter_;
};

// Stage 1: fold-in histories -> encoded query states ("serve.*" metrics).
class RequestBatcher {
 public:
  using Options = BatchQueue::Options;

  // `encode` must write fold_ins.size() * dim floats into its output
  // (row-major, request order) and return false on failure; it is only ever
  // called from the flush thread, never concurrently with itself.
  using EncodeFn = std::function<bool(
      const std::vector<std::vector<int32_t>>& fold_ins,
      std::vector<float>* queries)>;

  RequestBatcher(EncodeFn encode, int64_t dim, const Options& options);

  void Start() { queue_.Start(); }
  void Stop() { queue_.Stop(); }

  // Blocks the calling thread until its request is encoded (or rejected).
  // On kOk, `*query` holds the dim-float encoded state.  `deadline_ns` is
  // an absolute SteadyNowNs expiry (0 = none): a job still queued past it
  // returns kDeadlineExceeded without consuming encoder work.
  EncodeStatus Encode(const std::vector<int32_t>& history,
                      std::vector<float>* query, int64_t deadline_ns = 0);

  int64_t queue_depth() const { return queue_.queue_depth(); }
  int64_t flushes() const { return queue_.flushes(); }

 private:
  struct EncodeJob : BatchQueue::Job {
    const std::vector<int32_t>* history;  // borrowed from the caller's stack
    std::vector<float>* query;            // written before the promise fires
  };

  void Flush(const std::vector<BatchQueue::Job*>& slice);

  const EncodeFn encode_;
  const int64_t dim_;
  BatchQueue queue_;
};

// Stage 2, exact backend only: encoded states -> top-`fetch` candidates
// ("serve.score.*" metrics).  One flush performs a single
// FactorizedHead::ScoreQueries over the full catalog (Gemm([batch x dim],
// head) plus the bias) and runs the per-row TopKCollector scan — so the
// packed head panels are streamed once per batch.  Per-element results are
// bitwise-identical to the model's own ScoreInto, the same helper at M=1,
// because the blocked GEMM accumulates each element's k contributions in
// ascending order regardless of M blocking (tensor/gemm.h).
class ScoreBatcher {
 public:
  using Options = BatchQueue::Options;

  // `head` is borrowed and must stay valid (model alive, not refitted) for
  // the batcher's lifetime.
  ScoreBatcher(const FactorizedHead& head, const Options& options);

  void Start() { queue_.Start(); }
  void Stop() { queue_.Stop(); }

  // Blocks until this query's row of the batched head GEMM is scored.  On
  // kOk, `*top` holds the `fetch` highest-scoring items in TopNIndices
  // order (score descending, ties to the smaller index).  `deadline_ns` as
  // in RequestBatcher::Encode.
  EncodeStatus Score(const std::vector<float>& query, int32_t fetch,
                     std::vector<eval::ScoredItem>* top,
                     int64_t deadline_ns = 0);

  int64_t queue_depth() const { return queue_.queue_depth(); }
  int64_t flushes() const { return queue_.flushes(); }

 private:
  struct ScoreJob : BatchQueue::Job {
    const std::vector<float>* query;     // borrowed from the caller's stack
    int32_t fetch;
    std::vector<eval::ScoredItem>* top;  // written before the promise fires
  };

  void Flush(const std::vector<BatchQueue::Job*>& slice);

  const FactorizedHead head_;

  // Flush-thread scratch, reused across flushes so steady state never
  // allocates: the packed [batch x dim] query block and the [batch x
  // num_rows] score matrix.  Declared before queue_ so they outlive the
  // flush thread, which queue_'s destructor joins.
  std::vector<float> queries_;
  std::vector<float> scores_;
  eval::TopKCollector collector_;

  BatchQueue queue_;
};

}  // namespace serve
}  // namespace vsan

#endif  // VSAN_SERVE_BATCHER_H_
