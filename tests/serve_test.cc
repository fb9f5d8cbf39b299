// Serving-plane tests (src/serve/): encoded-state cache LRU semantics and
// byte budget, dynamic-batching coalescing / partial flush / overload
// rejection / drain-on-stop, batched-encode bitwise equality against the
// per-query path (vsan override, sasrec override, default fallback),
// batched-scoring bitwise equality against the per-request head scan (both
// head layouts, per-caller fetch sizes), service responses
// bitwise-identical to the offline oracle (full scoring + TopNIndices;
// RetrievalIndex::Search for the quantized backend), and the HTTP daemon
// end to end: readiness gating, JSON round-trip, cache hits, HTTP 429
// under queue overflow, and graceful shutdown answering in-flight
// requests.  Labeled `serve` (reproduce.sh selector); the batcher/cache
// concurrency also runs under the ASan and TSan builds.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/vsan.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/retrieval.h"
#include "models/gru4rec.h"
#include "models/sasrec.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/daemon.h"
#include "serve/service.h"
#include "serve/state_cache.h"
#include "tensor/int8_dot.h"

namespace vsan {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// HashHistory / EncodedStateCache

TEST(HashHistoryTest, DistinguishesContentAndOrder) {
  EXPECT_EQ(HashHistory({1, 2, 3}), HashHistory({1, 2, 3}));
  EXPECT_NE(HashHistory({1, 2, 3}), HashHistory({3, 2, 1}));
  EXPECT_NE(HashHistory({1, 2, 3}), HashHistory({1, 2}));
  EXPECT_NE(HashHistory({}), HashHistory({0}));
}

TEST(EncodedStateCacheTest, LruEvictionUnderByteBudget) {
  const std::vector<float> q1 = {1.0f, 2.0f};
  // Each entry charges sizeof(float)*2 + 96 = 104 bytes; budget 220 holds
  // exactly two.
  EncodedStateCache cache(220);
  cache.Insert(0, 1, 11, q1);
  cache.Insert(0, 2, 22, {3.0f, 4.0f});
  EXPECT_EQ(cache.stats().entries, 2);

  // Touch user 1 so user 2 becomes the LRU tail, then overflow.
  std::vector<float> out;
  EXPECT_TRUE(cache.Lookup(0, 1, 11, &out));
  EXPECT_EQ(out, q1);
  cache.Insert(0, 3, 33, {5.0f, 6.0f});

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_TRUE(cache.Lookup(0, 1, 11, &out));   // refreshed -> survived
  EXPECT_FALSE(cache.Lookup(0, 2, 22, &out));  // LRU tail -> evicted
  EXPECT_TRUE(cache.Lookup(0, 3, 33, &out));
  EXPECT_EQ(out, std::vector<float>({5.0f, 6.0f}));
}

TEST(EncodedStateCacheTest, KeyIsUserAndHistoryHash) {
  EncodedStateCache cache(1 << 20);
  cache.Insert(0, 7, HashHistory({1, 2}), {1.0f});
  std::vector<float> out;
  // Same user, different history: miss (the stale-state invalidation rule).
  EXPECT_FALSE(cache.Lookup(0, 7, HashHistory({1, 2, 9}), &out));
  // Different user, same history: miss.
  EXPECT_FALSE(cache.Lookup(0, 8, HashHistory({1, 2}), &out));
  EXPECT_TRUE(cache.Lookup(0, 7, HashHistory({1, 2}), &out));
}

TEST(EncodedStateCacheTest, ZeroBudgetDisablesCaching) {
  EncodedStateCache cache(0);
  cache.Insert(0, 1, 11, {1.0f});
  std::vector<float> out;
  EXPECT_FALSE(cache.Lookup(0, 1, 11, &out));
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(EncodedStateCacheTest, KeyedByGenerationAndPurgeable) {
  // The stale-cache-on-swap regression (state_cache.cc once admitted it
  // would serve a pre-swap encoding after a model swap): an entry written
  // under generation 0 must be invisible to generation 1, and a publish-
  // time purge must reclaim superseded bytes.
  EncodedStateCache cache(1 << 20);
  const std::vector<float> old_q = {1.0f, 2.0f};
  const std::vector<float> new_q = {9.0f, 8.0f};
  cache.Insert(0, 7, 11, old_q);
  std::vector<float> out;
  // The new generation can never hit the old generation's encoding...
  EXPECT_FALSE(cache.Lookup(1, 7, 11, &out));
  // ...while the old generation (an in-flight request) still can.
  EXPECT_TRUE(cache.Lookup(0, 7, 11, &out));
  EXPECT_EQ(out, old_q);
  // Both generations may coexist under the same (user, hash).
  cache.Insert(1, 7, 11, new_q);
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_TRUE(cache.Lookup(1, 7, 11, &out));
  EXPECT_EQ(out, new_q);

  // Publish-time purge drops everything below the new generation and
  // returns the byte accounting to just the survivors.
  EXPECT_EQ(cache.PurgeGenerationsBelow(1), 1);
  EXPECT_FALSE(cache.Lookup(0, 7, 11, &out));
  EXPECT_TRUE(cache.Lookup(1, 7, 11, &out));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, static_cast<int64_t>(2 * sizeof(float)) + 96);
}

// ---------------------------------------------------------------------------
// RequestBatcher

// Encode function that records every batch it sees and can be gated shut
// so tests control exactly when a flush completes.
struct RecordingEncoder {
  int64_t dim = 2;
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = true;
  std::vector<size_t> batch_sizes;
  std::atomic<int> encodes_started{0};
  // Rows carried into the encoder (counted before the gate, so rows held by
  // a gated flush are included).
  std::atomic<int> rows_started{0};

  RequestBatcher::EncodeFn fn() {
    return [this](const std::vector<std::vector<int32_t>>& fold_ins,
                  std::vector<float>* queries) {
      encodes_started.fetch_add(1);
      rows_started.fetch_add(static_cast<int>(fold_ins.size()));
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return gate_open; });
      batch_sizes.push_back(fold_ins.size());
      queries->resize(fold_ins.size() * static_cast<size_t>(dim));
      for (size_t i = 0; i < fold_ins.size(); ++i) {
        // query = [first item, history length]: lets callers verify they
        // received their own slice of the batched result.
        (*queries)[i * 2] = static_cast<float>(fold_ins[i][0]);
        (*queries)[i * 2 + 1] = static_cast<float>(fold_ins[i].size());
      }
      return true;
    };
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      gate_open = true;
    }
    cv.notify_all();
  }
  void WaitForEncodeStart(int n) {
    while (encodes_started.load() < n) std::this_thread::yield();
  }
};

TEST(RequestBatcherTest, CoalescesConcurrentRequestsIntoOneFlush) {
  RecordingEncoder encoder;
  RequestBatcher::Options options;
  options.max_batch = 4;
  options.max_wait_us = 200 * 1000;  // far longer than the test runs
  RequestBatcher batcher(encoder.fn(), encoder.dim, options);
  batcher.Start();

  std::vector<std::thread> callers;
  std::vector<std::vector<float>> queries(4);
  std::vector<EncodeStatus> statuses(4, EncodeStatus::kError);
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&, i] {
      const std::vector<int32_t> history(static_cast<size_t>(i + 1),
                                         10 * (i + 1));
      statuses[static_cast<size_t>(i)] =
          batcher.Encode(history, &queries[static_cast<size_t>(i)]);
    });
  }
  for (std::thread& t : callers) t.join();
  batcher.Stop();

  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(statuses[static_cast<size_t>(i)], EncodeStatus::kOk);
    EXPECT_EQ(queries[static_cast<size_t>(i)][0],
              static_cast<float>(10 * (i + 1)));
    EXPECT_EQ(queries[static_cast<size_t>(i)][1], static_cast<float>(i + 1));
  }
  // The four requests arrived while the flush window was open, so they
  // coalesced: strictly fewer flushes than requests (the common case is 1,
  // but a caller landing after the first cv wakeup can split the batch).
  size_t total = 0;
  for (size_t s : encoder.batch_sizes) total += s;
  EXPECT_EQ(total, 4u);
  EXPECT_LT(encoder.batch_sizes.size(), 4u);
}

TEST(RequestBatcherTest, MaxWaitFlushesPartialBatch) {
  RecordingEncoder encoder;
  RequestBatcher::Options options;
  options.max_batch = 64;  // never reached
  options.max_wait_us = 500;
  RequestBatcher batcher(encoder.fn(), encoder.dim, options);
  batcher.Start();
  std::vector<float> query;
  ASSERT_EQ(batcher.Encode({42}, &query), EncodeStatus::kOk);
  EXPECT_EQ(query[0], 42.0f);
  batcher.Stop();
  ASSERT_EQ(encoder.batch_sizes.size(), 1u);
  EXPECT_EQ(encoder.batch_sizes[0], 1u);
}

TEST(RequestBatcherTest, QueueFullRejects) {
  RecordingEncoder encoder;
  encoder.Close();
  RequestBatcher::Options options;
  options.max_batch = 1;
  options.max_wait_us = 0;
  options.max_queue = 1;
  RequestBatcher batcher(encoder.fn(), encoder.dim, options);
  obs::MetricsRegistry::Global().GetCounter("serve.rejected")->Reset();
  batcher.Start();

  // First request: popped by the flush thread, blocked in the encoder.
  std::vector<float> q1, q2, q3;
  EncodeStatus s1 = EncodeStatus::kError;
  std::thread t1([&] { s1 = batcher.Encode({1}, &q1); });
  encoder.WaitForEncodeStart(1);
  // Second request: sits in the queue (depth 1 of 1).
  EncodeStatus s2 = EncodeStatus::kError;
  std::thread t2([&] { s2 = batcher.Encode({2}, &q2); });
  while (batcher.queue_depth() < 1) std::this_thread::yield();
  // Third request: queue full -> immediate rejection, counted.
  EXPECT_EQ(batcher.Encode({3}, &q3), EncodeStatus::kRejected);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("serve.rejected")->value(),
      1);

  encoder.Open();
  t1.join();
  t2.join();
  EXPECT_EQ(s1, EncodeStatus::kOk);
  EXPECT_EQ(s2, EncodeStatus::kOk);
  batcher.Stop();
}

TEST(RequestBatcherTest, StopDrainsQueueAndAnswersEveryCaller) {
  RecordingEncoder encoder;
  encoder.Close();
  RequestBatcher::Options options;
  options.max_batch = 2;
  options.max_wait_us = 0;
  options.max_queue = 64;
  RequestBatcher batcher(encoder.fn(), encoder.dim, options);
  batcher.Start();

  constexpr int kCallers = 6;
  std::vector<std::thread> callers;
  std::vector<std::vector<float>> queries(kCallers);
  std::vector<EncodeStatus> statuses(kCallers, EncodeStatus::kError);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      statuses[static_cast<size_t>(i)] = batcher.Encode(
          {i + 1}, &queries[static_cast<size_t>(i)]);
    });
  }
  // Wait until every caller is provably admitted — sliced into the gated
  // encoder or sitting in the queue — before stopping.  Waiting on
  // encode-start alone races: a caller that reaches Submit after Stop is
  // turned away with kShutdown.  The slice removes rows from the queue
  // (under the queue lock) strictly before the encoder counts them, so
  // this sum never double-counts.
  while (encoder.rows_started.load() + batcher.queue_depth() < kCallers) {
    std::this_thread::yield();
  }

  // Stop with the gate still shut: the drain must wait for the in-flight
  // flush and then work through the backlog, answering everyone.
  std::thread stopper([&] { batcher.Stop(); });
  encoder.Open();
  stopper.join();
  for (std::thread& t : callers) t.join();

  for (int i = 0; i < kCallers; ++i) {
    ASSERT_EQ(statuses[static_cast<size_t>(i)], EncodeStatus::kOk) << i;
    EXPECT_EQ(queries[static_cast<size_t>(i)][0], static_cast<float>(i + 1));
  }
  // After Stop, new submissions are turned away.
  std::vector<float> late;
  EXPECT_EQ(batcher.Encode({9}, &late), EncodeStatus::kShutdown);
}

// ---------------------------------------------------------------------------
// ScoreBatcher

// A batched scoring flush (one M=batch GEMM over the head) must produce,
// for every row, bitwise the candidates of the per-request ascending-FMA
// scan — in both head layouts, with per-caller fetch sizes.
TEST(ScoreBatcherTest, BatchedGemmBitwiseEqualsPerQueryScan) {
  const int64_t dim = 12;
  const int64_t rows = 201;  // row 0 is the padding item
  std::mt19937 rng(5);
  std::uniform_real_distribution<float> uniform(-1.0f, 1.0f);
  std::vector<float> weights(static_cast<size_t>(rows * dim));
  std::vector<float> bias(static_cast<size_t>(rows));
  for (float& w : weights) w = uniform(rng);
  for (float& b : bias) b = uniform(rng);
  constexpr int kCallers = 8;
  std::vector<std::vector<float>> queries(kCallers);
  for (auto& q : queries) {
    q.resize(static_cast<size_t>(dim));
    for (float& v : q) v = uniform(rng);
  }

  for (const bool items_are_rows : {true, false}) {
    FactorizedHead head;
    head.dim = dim;
    head.num_rows = rows;
    head.weights = weights.data();  // reinterpreted [dim, rows] when strided
    head.items_are_rows = items_are_rows;
    head.bias = bias.data();

    ScoreBatcher::Options options;
    options.max_batch = kCallers;
    options.max_wait_us = 200 * 1000;  // coalesce all callers
    options.metric_prefix = "serve.score";
    ScoreBatcher scorer(head, options);
    scorer.Start();

    std::vector<std::vector<eval::ScoredItem>> tops(kCallers);
    std::vector<EncodeStatus> statuses(kCallers, EncodeStatus::kError);
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i) {
      callers.emplace_back([&, i] {
        statuses[static_cast<size_t>(i)] =
            scorer.Score(queries[static_cast<size_t>(i)], /*fetch=*/5 + i,
                         &tops[static_cast<size_t>(i)]);
      });
    }
    for (std::thread& t : callers) t.join();
    scorer.Stop();
    EXPECT_LT(scorer.flushes(), kCallers);  // they coalesced

    for (int i = 0; i < kCallers; ++i) {
      ASSERT_EQ(statuses[static_cast<size_t>(i)], EncodeStatus::kOk) << i;
      // Oracle: the inline per-request scan.
      const std::vector<float>& q = queries[static_cast<size_t>(i)];
      eval::TopKCollector collector(5 + i);
      for (int64_t row = 1; row < rows; ++row) {
        float score = items_are_rows
                          ? internal::DotFma(q.data(), weights.data() +
                                             row * dim, dim)
                          : internal::DotFmaStrided(q.data(),
                                                    weights.data() + row,
                                                    dim, rows);
        score += bias[static_cast<size_t>(row)];
        collector.Offer(static_cast<int32_t>(row), score);
      }
      std::vector<eval::ScoredItem> expected;
      collector.DrainSortedTo(&expected);
      const std::vector<eval::ScoredItem>& got = tops[static_cast<size_t>(i)];
      ASSERT_EQ(got.size(), expected.size()) << i;
      for (size_t r = 0; r < expected.size(); ++r) {
        ASSERT_EQ(got[r].index, expected[r].index) << i << " rank " << r;
        ASSERT_EQ(got[r].score, expected[r].score) << i << " rank " << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// EncodeBatchInto bitwise equality

template <typename Model>
void ExpectBatchEncodeBitwiseEqual(const Model& model,
                                   const std::vector<std::vector<int32_t>>&
                                       fold_ins,
                                   int64_t dim) {
  std::vector<float> batched;
  ASSERT_TRUE(model.EncodeBatchInto(fold_ins, &batched));
  ASSERT_EQ(batched.size(), fold_ins.size() * static_cast<size_t>(dim));
  for (size_t i = 0; i < fold_ins.size(); ++i) {
    std::vector<float> single;
    ASSERT_TRUE(model.EncodeQueryInto(fold_ins[i], &single));
    ASSERT_EQ(single.size(), static_cast<size_t>(dim));
    for (int64_t j = 0; j < dim; ++j) {
      ASSERT_EQ(single[static_cast<size_t>(j)],
                batched[i * static_cast<size_t>(dim) +
                        static_cast<size_t>(j)])
          << "query " << i << " dim " << j;
    }
  }
}

std::vector<std::vector<int32_t>> MixedLengthFoldIns(int32_t num_items) {
  return {
      {1},
      {5, 17, 3},
      {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},  // longer than short max_len
      {num_items, 1, num_items / 2},
      {4, 9, 16, 25},
  };
}

TEST(EncodeBatchIntoTest, VsanBatchedForwardBitwiseEqualsPerQuery) {
  data::SyntheticConfig data_config;
  data_config.num_users = 50;
  data_config.num_items = 80;
  data_config.seed = 9;
  const data::SequenceDataset dataset = data::GenerateSynthetic(data_config);
  core::VsanConfig config;
  config.max_len = 8;
  config.d = 8;
  core::Vsan model(config);
  TrainOptions train;
  train.epochs = 1;
  train.batch_size = 16;
  model.Fit(dataset, train);
  ExpectBatchEncodeBitwiseEqual(model, MixedLengthFoldIns(80), config.d);
}

TEST(EncodeBatchIntoTest, SasRecBatchedForwardBitwiseEqualsPerQuery) {
  data::SyntheticConfig data_config;
  data_config.num_users = 50;
  data_config.num_items = 80;
  data_config.seed = 11;
  const data::SequenceDataset dataset = data::GenerateSynthetic(data_config);
  models::SasRec::Config config;
  config.max_len = 8;
  config.d = 8;
  models::SasRec model(config);
  TrainOptions train;
  train.epochs = 1;
  train.batch_size = 16;
  model.Fit(dataset, train);
  ExpectBatchEncodeBitwiseEqual(model, MixedLengthFoldIns(80), config.d);
}

TEST(EncodeBatchIntoTest, DefaultFallbackMatchesPerQuery) {
  // Gru4Rec does not override EncodeBatchInto: the base-class loop must
  // produce exactly the concatenated per-query vectors.
  data::SyntheticConfig data_config;
  data_config.num_users = 40;
  data_config.num_items = 60;
  data_config.seed = 13;
  const data::SequenceDataset dataset = data::GenerateSynthetic(data_config);
  models::Gru4Rec::Config config;
  config.max_len = 8;
  config.d = 8;
  config.hidden = 8;
  models::Gru4Rec model(config);
  TrainOptions train;
  train.epochs = 1;
  train.batch_size = 16;
  model.Fit(dataset, train);
  ExpectBatchEncodeBitwiseEqual(model, MixedLengthFoldIns(60), config.d);
}

// ---------------------------------------------------------------------------
// RecommendService vs the offline oracle

class ServiceOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticConfig data_config;
    data_config.num_users = 60;
    data_config.num_items = 100;
    data_config.seed = 21;
    dataset_ = data::GenerateSynthetic(data_config);
    core::VsanConfig config;
    config.max_len = 10;
    config.d = 12;
    model_ = std::make_unique<core::Vsan>(config);
    TrainOptions train;
    train.epochs = 1;
    train.batch_size = 16;
    model_->Fit(dataset_, train);
  }

  std::unique_ptr<RequestBatcher> MakeBatcher(int32_t max_batch) {
    RequestBatcher::Options options;
    options.max_batch = max_batch;
    options.max_wait_us = 200;
    auto batcher = std::make_unique<RequestBatcher>(
        [this](const std::vector<std::vector<int32_t>>& fold_ins,
               std::vector<float>* queries) {
          return model_->EncodeBatchInto(fold_ins, queries);
        },
        12, options);
    batcher->Start();
    return batcher;
  }

  std::unique_ptr<ScoreBatcher> MakeScorer(int32_t max_batch) {
    FactorizedHead head;
    EXPECT_TRUE(model_->GetFactorizedHead(&head));
    ScoreBatcher::Options options;
    options.max_batch = max_batch;
    options.max_wait_us = 200;
    options.metric_prefix = "serve.score";
    auto scorer = std::make_unique<ScoreBatcher>(head, options);
    scorer->Start();
    return scorer;
  }

  data::SequenceDataset dataset_;
  std::unique_ptr<core::Vsan> model_;
};

TEST_F(ServiceOracleTest, ExactBackendBitwiseEqualsFullScoringTopN) {
  auto batcher = MakeBatcher(4);
  auto scorer = MakeScorer(4);
  EncodedStateCache cache(1 << 20);
  ServiceOptions options;
  options.exclude_seen = false;
  RecommendService service(model_.get(), model_->num_items(),
                           /*index=*/nullptr, batcher.get(), scorer.get(),
                           &cache, options);

  for (int32_t user = 0; user < 10; ++user) {
    RecommendRequest request;
    request.user_id = user;
    request.history = dataset_.sequence(user);
    request.k = 10;
    RecommendResult result;
    ASSERT_EQ(service.Recommend(request, &result), ServeStatus::kOk);
    ASSERT_EQ(result.items.size(), 10u);

    // Offline oracle: the model's full score vector ranked by the
    // evaluator's own top-n.  Served items, order, and scores must all be
    // bitwise-identical.
    std::vector<float> scores;
    model_->ScoreInto(request.history, &scores);
    const std::vector<int32_t> expected = eval::TopNIndices(
        scores, std::vector<bool>(scores.size(), false), request.k);
    ASSERT_EQ(expected.size(), result.items.size());
    for (size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(result.items[r].index, expected[r]) << "rank " << r;
      ASSERT_EQ(result.items[r].score,
                scores[static_cast<size_t>(expected[r])])
          << "rank " << r;
    }
  }
  batcher->Stop();
}

TEST_F(ServiceOracleTest, QuantizedBackendBitwiseEqualsOfflineSearch) {
  FactorizedHead head;
  ASSERT_TRUE(model_->GetFactorizedHead(&head));
  eval::RetrievalOptions retrieval;
  retrieval.backend = eval::RetrievalBackend::kQuantized;
  const eval::RetrievalIndex index = eval::RetrievalIndex::Build(head,
                                                                 retrieval);
  auto batcher = MakeBatcher(4);
  EncodedStateCache cache(1 << 20);
  ServiceOptions options;  // exclude_seen = true, the serving default
  RecommendService service(model_.get(), model_->num_items(), &index,
                           batcher.get(), /*scorer=*/nullptr, &cache, options);

  for (int32_t user = 0; user < 10; ++user) {
    RecommendRequest request;
    request.user_id = user;
    request.history = dataset_.sequence(user);
    request.k = 10;
    RecommendResult result;
    ASSERT_EQ(service.Recommend(request, &result), ServeStatus::kOk);

    // Offline oracle: encode per-query, over-fetch the same index, apply
    // the same exclusion filter.
    std::vector<float> query;
    ASSERT_TRUE(model_->EncodeQueryInto(request.history, &query));
    std::vector<int32_t> seen_sorted = request.history;
    std::sort(seen_sorted.begin(), seen_sorted.end());
    eval::RetrievalIndex::Scratch scratch;
    std::vector<eval::ScoredItem> fetched;
    index.Search(query.data(),
                 request.k + static_cast<int32_t>(
                                 std::set<int32_t>(request.history.begin(),
                                                   request.history.end())
                                     .size()),
                 &scratch, &fetched);
    std::vector<eval::ScoredItem> expected;
    for (const eval::ScoredItem& item : fetched) {
      if (static_cast<int32_t>(expected.size()) >= request.k) break;
      if (std::binary_search(seen_sorted.begin(), seen_sorted.end(),
                             item.index)) {
        continue;
      }
      expected.push_back(item);
    }
    ASSERT_EQ(result.items.size(), expected.size());
    for (size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(result.items[r].index, expected[r].index) << "rank " << r;
      ASSERT_EQ(result.items[r].score, expected[r].score) << "rank " << r;
      // The serving default never recommends something already in the
      // user's history.
      EXPECT_FALSE(std::binary_search(seen_sorted.begin(), seen_sorted.end(),
                                      result.items[r].index));
    }
  }
  batcher->Stop();
}

TEST_F(ServiceOracleTest, CacheHitReturnsIdenticalResponse) {
  auto batcher = MakeBatcher(4);
  auto scorer = MakeScorer(4);
  EncodedStateCache cache(1 << 20);
  ServiceOptions options;
  RecommendService service(model_.get(), model_->num_items(),
                           /*index=*/nullptr, batcher.get(), scorer.get(),
                           &cache, options);
  RecommendRequest request;
  request.user_id = 3;
  request.history = dataset_.sequence(3);
  request.k = 8;
  RecommendResult cold, warm;
  ASSERT_EQ(service.Recommend(request, &cold), ServeStatus::kOk);
  ASSERT_EQ(service.Recommend(request, &warm), ServeStatus::kOk);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_EQ(cold.items.size(), warm.items.size());
  for (size_t r = 0; r < cold.items.size(); ++r) {
    EXPECT_EQ(cold.items[r].index, warm.items[r].index);
    EXPECT_EQ(cold.items[r].score, warm.items[r].score);
  }
  batcher->Stop();
}

TEST_F(ServiceOracleTest, RejectsMalformedRequests) {
  auto batcher = MakeBatcher(1);
  auto scorer = MakeScorer(1);
  EncodedStateCache cache(0);
  ServiceOptions options;
  options.max_k = 50;
  RecommendService service(model_.get(), model_->num_items(),
                           /*index=*/nullptr, batcher.get(), scorer.get(),
                           &cache, options);
  RecommendResult result;
  RecommendRequest request;
  request.user_id = 1;
  request.history = {1, 2, 3};
  request.k = 0;
  EXPECT_EQ(service.Recommend(request, &result), ServeStatus::kInvalid);
  request.k = 51;
  EXPECT_EQ(service.Recommend(request, &result), ServeStatus::kInvalid);
  request.k = 10;
  request.history = {};
  EXPECT_EQ(service.Recommend(request, &result), ServeStatus::kInvalid);
  request.history = {0};  // padding item is not a valid interaction
  EXPECT_EQ(service.Recommend(request, &result), ServeStatus::kInvalid);
  request.history = {model_->num_items() + 1};
  EXPECT_EQ(service.Recommend(request, &result), ServeStatus::kInvalid);
  batcher->Stop();
}

// ---------------------------------------------------------------------------
// ServeDaemon over HTTP (needs the real server: VSAN_OBS builds only)

#if VSAN_OBS_ENABLED

// Minimal deterministic model for daemon-level tests where the interesting
// behavior is queueing, not ranking: a gateable EncodeBatchInto lets tests
// hold the flush mid-encode and observe 429s and drains deterministically.
class StubModel : public SequentialRecommender {
 public:
  StubModel() : weights_(static_cast<size_t>(kRows * kDim)) {
    for (size_t i = 0; i < weights_.size(); ++i) {
      weights_[i] = 0.001f * static_cast<float>((i * 37) % 101);
    }
  }

  std::string name() const override { return "stub"; }
  void Fit(const data::SequenceDataset&, const TrainOptions&) override {}
  std::vector<float> Score(const std::vector<int32_t>&) const override {
    return std::vector<float>(static_cast<size_t>(kRows), 0.0f);
  }
  bool GetFactorizedHead(FactorizedHead* head) const override {
    head->dim = kDim;
    head->num_rows = kRows;
    head->weights = weights_.data();
    head->items_are_rows = true;
    head->bias = nullptr;
    return true;
  }
  bool EncodeQueryInto(const std::vector<int32_t>& fold_in,
                       std::vector<float>* query) const override {
    query->assign(static_cast<size_t>(kDim), 0.0f);
    for (size_t i = 0; i < fold_in.size(); ++i) {
      (*query)[i % static_cast<size_t>(kDim)] +=
          0.01f * static_cast<float>(fold_in[i]);
    }
    return true;
  }
  bool EncodeBatchInto(const std::vector<std::vector<int32_t>>& fold_ins,
                       std::vector<float>* queries) const override {
    encodes_started_.fetch_add(1);
    encode_rows_.fetch_add(static_cast<int>(fold_ins.size()));
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return gate_open_; });
    }
    return SequentialRecommender::EncodeBatchInto(fold_ins, queries);
  }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_open_ = false;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate_open_ = true;
    }
    cv_.notify_all();
  }
  void WaitForEncodeStart(int n) const {
    while (encodes_started_.load() < n) std::this_thread::yield();
  }
  // Requests the flush thread has sliced out of the queue and carried into
  // EncodeBatchInto (counted before the gate, so gated rows are included).
  int encode_rows() const { return encode_rows_.load(); }

  static constexpr int64_t kDim = 4;
  static constexpr int64_t kRows = 51;  // 50 items + padding row

 private:
  std::vector<float> weights_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool gate_open_ = true;
  mutable std::atomic<int> encodes_started_{0};
  mutable std::atomic<int> encode_rows_{0};
};

int PostRecommend(int port, const std::string& body, std::string* response) {
  int status = 0;
  EXPECT_TRUE(obs::HttpPost("127.0.0.1", port, "/recommend", body,
                            "application/json", &status, response));
  return status;
}

TEST(ServeDaemonTest, ReadinessGateAndJsonRoundTrip) {
  StubModel model;
  DaemonOptions options;
  ServeDaemon daemon(&model, 50, options);
  ASSERT_TRUE(daemon.StartHttp());

  // Before Activate: health says loading, traffic is refused.
  int status = 0;
  std::string body;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", daemon.port(), "/healthz", &status,
                           &body));
  EXPECT_EQ(status, 503);
  std::string response;
  EXPECT_EQ(PostRecommend(daemon.port(), "{\"user\": 1, \"history\": [1]}",
                          &response),
            503);

  daemon.Activate();
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", daemon.port(), "/healthz", &status,
                           &body));
  EXPECT_EQ(status, 200);

  EXPECT_EQ(PostRecommend(daemon.port(),
                          "{\"user\": 7, \"history\": [3, 1, 4], \"k\": 5}",
                          &response),
            200);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJson(response, &doc, &error)) << error;
  EXPECT_EQ(doc.NumberOr("user", -1), 7.0);
  const obs::JsonValue* items = doc.Find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->array.size(), 5u);

  // The JSON scores round-trip bitwise to what the service computes.
  RecommendRequest request;
  request.user_id = 7;
  request.history = {3, 1, 4};
  request.k = 5;
  RecommendResult oracle;
  ASSERT_EQ(daemon.service()->Recommend(request, &oracle), ServeStatus::kOk);
  for (size_t r = 0; r < 5; ++r) {
    const obs::JsonValue& item = items->array[r];
    EXPECT_EQ(item.NumberOr("item", -1),
              static_cast<double>(oracle.items[r].index));
    EXPECT_EQ(static_cast<float>(item.NumberOr("score", 0.0)),
              oracle.items[r].score);
  }

  // Malformed requests map to 400.
  EXPECT_EQ(PostRecommend(daemon.port(), "not json", &response), 400);
  EXPECT_EQ(PostRecommend(daemon.port(), "{\"user\": 1}", &response), 400);
  EXPECT_EQ(PostRecommend(daemon.port(),
                          "{\"user\": 1, \"history\": [9999]}", &response),
            400);
  // Cache hit on an identical repeat.
  EXPECT_EQ(PostRecommend(daemon.port(),
                          "{\"user\": 7, \"history\": [3, 1, 4], \"k\": 5}",
                          &response),
            200);
  EXPECT_NE(response.find("\"cache_hit\": true"), std::string::npos);
  daemon.Shutdown();
}

TEST(ServeDaemonTest, QueueOverflowReturns429) {
  StubModel model;
  model.CloseGate();
  DaemonOptions options;
  options.handler_threads = 4;
  options.cache_bytes = 0;  // every request must reach the batcher
  options.batcher.max_batch = 1;
  options.batcher.max_wait_us = 0;
  options.batcher.max_queue = 1;
  ServeDaemon daemon(&model, 50, options);
  obs::MetricsRegistry::Global().GetCounter("serve.rejected")->Reset();
  ASSERT_TRUE(daemon.StartHttp());
  daemon.Activate();

  // First request occupies the encoder; second fills the queue.
  std::string r1, r2;
  int s1 = 0, s2 = 0;
  std::thread t1([&] {
    s1 = PostRecommend(daemon.port(), "{\"user\": 1, \"history\": [1]}", &r1);
  });
  model.WaitForEncodeStart(1);
  std::thread t2([&] {
    s2 = PostRecommend(daemon.port(), "{\"user\": 2, \"history\": [2]}", &r2);
  });
  while (daemon.batcher()->queue_depth() < 1) std::this_thread::yield();

  // Third request: queue full -> HTTP 429, counted in serve.rejected.
  std::string r3;
  EXPECT_EQ(
      PostRecommend(daemon.port(), "{\"user\": 3, \"history\": [3]}", &r3),
      429);
  EXPECT_GE(
      obs::MetricsRegistry::Global().GetCounter("serve.rejected")->value(),
      1);

  model.OpenGate();
  t1.join();
  t2.join();
  EXPECT_EQ(s1, 200);
  EXPECT_EQ(s2, 200);
  daemon.Shutdown();
}

TEST(ServeDaemonTest, GracefulShutdownAnswersInFlightRequests) {
  StubModel model;
  model.CloseGate();
  DaemonOptions options;
  options.handler_threads = 3;
  options.cache_bytes = 0;
  options.batcher.max_batch = 2;
  options.batcher.max_wait_us = 0;
  ServeDaemon daemon(&model, 50, options);
  ASSERT_TRUE(daemon.StartHttp());
  daemon.Activate();

  // Three requests in flight, all blocked behind the encoder gate.
  std::vector<std::thread> clients;
  std::vector<int> statuses(3, 0);
  std::vector<std::string> responses(3);
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      statuses[static_cast<size_t>(i)] = PostRecommend(
          daemon.port(),
          "{\"user\": " + std::to_string(i) + ", \"history\": [" +
              std::to_string(i + 1) + "]}",
          &responses[static_cast<size_t>(i)]);
    });
  }
  // Wait until all three are provably admitted — sliced into the (gated)
  // encoder or sitting in its queue — before starting Shutdown.  Waiting on
  // encode-start alone races: a request still ahead of the handler's
  // readiness check when Shutdown flips it would be turned away with a 503.
  // The slice removes a request from the queue (under the queue lock)
  // strictly before the encoder counts it, so this sum never double-counts.
  while (model.encode_rows() + daemon.batcher()->queue_depth() < 3) {
    std::this_thread::yield();
  }

  // Shutdown while they are in flight; open the gate so the drain can run.
  std::thread shutdown([&] { daemon.Shutdown(); });
  model.OpenGate();
  shutdown.join();
  for (std::thread& t : clients) t.join();

  // Every accepted request received a real 200 with a full body — nothing
  // was dropped on the floor by the SIGTERM path.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(statuses[static_cast<size_t>(i)], 200) << i;
    EXPECT_NE(responses[static_cast<size_t>(i)].find("\"items\": ["),
              std::string::npos)
        << i;
  }
}

#endif  // VSAN_OBS_ENABLED

}  // namespace
}  // namespace serve
}  // namespace vsan
