#ifndef VSAN_SERVE_SERVICE_H_
#define VSAN_SERVE_SERVICE_H_

#include <cstdint>
#include <vector>

#include "eval/retrieval.h"
#include "eval/topk.h"
#include "models/recommender.h"
#include "serve/batcher.h"
#include "serve/state_cache.h"

// The request path of the serving daemon, independent of HTTP: validate ->
// encoded-state cache -> dynamic-batching encode -> top-k retrieval (a
// dynamic-batching scoring stage for the exact backend, a per-request
// RetrievalIndex search otherwise).  The daemon (serve/daemon.h) wraps this
// in JSON; tests call it directly to assert response bytes against the
// offline oracle (ScoreBatch + RetrievalIndex) without a socket in the
// loop.
//
// Determinism contract: for a given history, the returned ranking is
// bitwise-identical to encoding offline with EncodeQueryInto and searching
// the same RetrievalIndex (or, for the exact path, to ranking the model's
// full ScoreInto vector with TopNIndices).  Each link is individually
// pinned: batched encode == per-query encode (recommender.h), cached query
// == freshly encoded query (the cache stores the encoder's exact output
// bytes), and the batched exact scoring GEMM produces per-row results
// bitwise-identical to the per-query ascending-index FMA chain of the
// model's logits GEMM (tensor/gemm.h M-blocking invariance), ranked in the
// evaluator's (score desc, index asc) order.  Batching policy, cache hits,
// and concurrency therefore never change what a request returns — only how
// fast.

namespace vsan {
namespace serve {

enum class ServeStatus {
  kOk,
  kInvalid,           // malformed request (empty history, bad ids, k < 1)
  kOverloaded,        // batching queue full — HTTP 429
  kShutdown,          // daemon stopping
  kError,             // encode failure (should not happen on a healthy model)
  kDeadlineExceeded,  // request deadline expired before completion — HTTP 504
};

struct RecommendRequest {
  int64_t user_id = 0;
  std::vector<int32_t> history;  // chronological item ids in [1, num_items]
  int32_t k = 10;
  // Absolute steady-clock expiry (SteadyNowNs time base); 0 = no deadline.
  // The daemon computes this from the JSON `deadline_us` field (or the
  // ServiceOptions default) at parse time, so queueing in either batching
  // stage counts against the budget.
  int64_t deadline_ns = 0;
};

struct RecommendResult {
  std::vector<eval::ScoredItem> items;  // score desc, ties toward smaller id
  bool cache_hit = false;
};

struct ServiceOptions {
  int32_t max_k = 1000;
  // Longest accepted history (also the daemon's explicit 400 bound — a
  // semantic cap with a clear message, independent of the transport-level
  // max_body_bytes).
  int32_t max_history = 1024;
  // Default per-request deadline in microseconds, applied when a request
  // carries none; 0 = no default (requests without deadline_us never
  // expire).
  int64_t default_deadline_us = 0;
  // Drop items the user has already interacted with from the results (the
  // usual serving behavior; over-fetches k + history size and filters, the
  // evaluator's exclusion recipe).
  bool exclude_seen = true;
};

class RecommendService {
 public:
  // Exactly one backend is used: with `index` set the service searches it;
  // with `index` null it scores the full catalog through the model's
  // FactorizedHead (the exact backend), and `scorer`, the batched scoring
  // stage, must be set.
  // All pointers are borrowed and must outlive the service.  `generation`
  // is the model generation this service serves: the encoded-state cache is
  // keyed by it, so a service built over a hot-reloaded model can never hit
  // an entry encoded by its predecessor.
  RecommendService(const SequentialRecommender* model, int32_t num_items,
                   const eval::RetrievalIndex* index, RequestBatcher* batcher,
                   ScoreBatcher* scorer, EncodedStateCache* cache,
                   const ServiceOptions& options, int64_t generation = 0);

  // Thread-safe: any number of handler threads may call concurrently.
  ServeStatus Recommend(const RecommendRequest& request,
                        RecommendResult* result) const;

  int32_t num_items() const { return num_items_; }
  int64_t generation() const { return generation_; }
  const ServiceOptions& options() const { return options_; }

 private:
  ServeStatus EncodeCached(const RecommendRequest& request,
                           std::vector<float>* query, bool* cache_hit) const;
  ServeStatus SearchTopK(const std::vector<float>& query,
                         const RecommendRequest& request,
                         std::vector<eval::ScoredItem>* out) const;

  const SequentialRecommender* model_;
  const int32_t num_items_;
  const eval::RetrievalIndex* index_;  // null = exact full scan
  RequestBatcher* batcher_;
  ScoreBatcher* scorer_;  // exact-path scoring stage; set when !index_
  EncodedStateCache* cache_;
  const ServiceOptions options_;
  const int64_t generation_;
  obs::Counter* deadline_counter_;  // serve.deadline_expired
};

}  // namespace serve
}  // namespace vsan

#endif  // VSAN_SERVE_SERVICE_H_
