#include "serve/service.h"

#include <unordered_set>

#include "obs/metrics.h"
#include "util/logging.h"

namespace vsan {
namespace serve {

RecommendService::RecommendService(const SequentialRecommender* model,
                                   int32_t num_items,
                                   const eval::RetrievalIndex* index,
                                   RequestBatcher* batcher,
                                   ScoreBatcher* scorer,
                                   EncodedStateCache* cache,
                                   const ServiceOptions& options,
                                   int64_t generation)
    : model_(model),
      num_items_(num_items),
      index_(index),
      batcher_(batcher),
      scorer_(scorer),
      cache_(cache),
      options_(options),
      generation_(generation) {
  VSAN_CHECK(model_ != nullptr);
  VSAN_CHECK(batcher_ != nullptr);
  VSAN_CHECK(cache_ != nullptr);
  VSAN_CHECK(index_ != nullptr || scorer_ != nullptr)
      << "the service needs a retrieval index or a scoring stage";
  VSAN_CHECK_GT(num_items_, 0);
  FactorizedHead head;
  VSAN_CHECK(model_->GetFactorizedHead(&head))
      << "the serving daemon requires a factorized-head model";
  // Same name the encode-stage queue registers, deliberately: one counter
  // totals deadline expiries wherever they are detected.
  deadline_counter_ =
      obs::MetricsRegistry::Global().GetCounter("serve.deadline_expired");
}

ServeStatus RecommendService::Recommend(const RecommendRequest& request,
                                        RecommendResult* result) const {
  result->items.clear();
  result->cache_hit = false;
  if (request.k < 1 || request.k > options_.max_k) return ServeStatus::kInvalid;
  if (request.history.empty()) return ServeStatus::kInvalid;
  if (options_.max_history > 0 &&
      static_cast<int32_t>(request.history.size()) > options_.max_history) {
    return ServeStatus::kInvalid;
  }
  for (int32_t item : request.history) {
    if (item < 1 || item > num_items_) return ServeStatus::kInvalid;
  }

  std::vector<float> query;
  const ServeStatus status =
      EncodeCached(request, &query, &result->cache_hit);
  if (status != ServeStatus::kOk) return status;
  return SearchTopK(query, request, &result->items);
}

ServeStatus RecommendService::EncodeCached(const RecommendRequest& request,
                                           std::vector<float>* query,
                                           bool* cache_hit) const {
  const uint64_t hash = HashHistory(request.history);
  if (cache_->Lookup(generation_, request.user_id, hash, query)) {
    *cache_hit = true;
    return ServeStatus::kOk;
  }
  switch (batcher_->Encode(request.history, query, request.deadline_ns)) {
    case EncodeStatus::kOk:
      break;
    case EncodeStatus::kRejected:
      return ServeStatus::kOverloaded;
    case EncodeStatus::kShutdown:
      return ServeStatus::kShutdown;
    case EncodeStatus::kError:
      return ServeStatus::kError;
    case EncodeStatus::kDeadlineExceeded:
      return ServeStatus::kDeadlineExceeded;
  }
  cache_->Insert(generation_, request.user_id, hash, *query);
  return ServeStatus::kOk;
}

ServeStatus RecommendService::SearchTopK(
    const std::vector<float>& query, const RecommendRequest& request,
    std::vector<eval::ScoredItem>* out) const {
  // The evaluator's exclusion recipe: over-fetch k + |seen| candidates so
  // that after dropping already-seen items at least k distinct ones remain
  // (when the catalog has that many), then truncate.
  std::unordered_set<int32_t> seen;
  if (options_.exclude_seen) {
    seen.insert(request.history.begin(), request.history.end());
  }
  const int32_t fetch = request.k + static_cast<int32_t>(seen.size());

  std::vector<eval::ScoredItem> candidates;
  if (index_ != nullptr) {
    // The index path runs inline on the handler thread — one expiry check
    // here before the scan (the batching stages check their own queues).
    if (request.deadline_ns > 0 && SteadyNowNs() >= request.deadline_ns) {
      deadline_counter_->Increment();
      return ServeStatus::kDeadlineExceeded;
    }
    thread_local eval::RetrievalIndex::Scratch scratch;
    index_->Search(query.data(), fetch, &scratch, &candidates);
  } else {
    // Exact backend: the batched scoring stage runs one M=batch GEMM over
    // the factorized head per flush; each row is bitwise the model's
    // ScoreInto entries (tensor/gemm.h M-blocking invariance), ranked in
    // TopNIndices order.
    switch (scorer_->Score(query, fetch, &candidates, request.deadline_ns)) {
      case EncodeStatus::kOk:
        break;
      case EncodeStatus::kRejected:
        return ServeStatus::kOverloaded;
      case EncodeStatus::kShutdown:
        return ServeStatus::kShutdown;
      case EncodeStatus::kError:
        return ServeStatus::kError;
      case EncodeStatus::kDeadlineExceeded:
        // The scoring stage counted this under its own prefix
        // (serve.score.deadline_expired); the daemon-wide total must see
        // it too.  The encode stage needs no such mirror — its prefix is
        // "serve", so its queue already increments the total itself.
        deadline_counter_->Increment();
        return ServeStatus::kDeadlineExceeded;
    }
  }

  out->reserve(static_cast<size_t>(request.k));
  for (const eval::ScoredItem& item : candidates) {
    if (static_cast<int32_t>(out->size()) >= request.k) break;
    if (options_.exclude_seen && seen.count(item.index) > 0) continue;
    out->push_back(item);
  }
  return ServeStatus::kOk;
}

}  // namespace serve
}  // namespace vsan
