// Chaos-injection suite for the serving plane (src/serve/, VSAN_FAULT
// serve directives): every test drives the *shipped* daemon through a
// production failure — a stalled encoder, flush-thread scheduler jitter,
// mid-response connection resets, a corrupt checkpoint offered for hot
// reload, silent cache-write failures, malformed request bodies — and
// asserts the failure stays contained: every request receives a response
// (200 bitwise-identical to the offline oracle, or a clean 400/409/429/
// 504), the old model generation keeps serving across a failed reload, and
// a reload under concurrent load drops nothing.  Labeled `chaos` (the
// reproduce.sh chaos sweep runs these plain, under TSan, and under ASan),
// plus `serve`.

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/vsan.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/daemon.h"
#include "serve/service.h"
#include "serve/state_cache.h"
#include "util/fault.h"
#include "util/status.h"

namespace vsan {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// Fault-tap unit tests (no HTTP server needed)

TEST(FaultTapTest, SocketResetFiresEveryKth) {
  fault::SetSpecForTest("socket_reset_after_bytes=7,socket_reset_every=3");
  int64_t truncate_to = -1;
  EXPECT_FALSE(fault::ShouldResetSocketSend(&truncate_to));
  EXPECT_FALSE(fault::ShouldResetSocketSend(&truncate_to));
  EXPECT_TRUE(fault::ShouldResetSocketSend(&truncate_to));
  EXPECT_EQ(truncate_to, 7);
  EXPECT_FALSE(fault::ShouldResetSocketSend(&truncate_to));
  fault::SetSpecForTest(nullptr);
  EXPECT_FALSE(fault::ShouldResetSocketSend(&truncate_to));
}

TEST(FaultTapTest, SocketResetDefaultsToEveryResponse) {
  // `socket_reset_after_bytes=0` alone is armed (0 is a valid cut point:
  // send nothing, close) and fires on every response.
  fault::SetSpecForTest("socket_reset_after_bytes=0");
  int64_t truncate_to = -1;
  EXPECT_TRUE(fault::ShouldResetSocketSend(&truncate_to));
  EXPECT_EQ(truncate_to, 0);
  EXPECT_TRUE(fault::ShouldResetSocketSend(&truncate_to));
  fault::SetSpecForTest(nullptr);
}

TEST(FaultTapTest, CacheInsertDropFiresEveryKth) {
  fault::SetSpecForTest("cache_insert_fail_every=2");
  EXPECT_FALSE(fault::ShouldDropCacheInsert());
  EXPECT_TRUE(fault::ShouldDropCacheInsert());
  EXPECT_FALSE(fault::ShouldDropCacheInsert());
  EXPECT_TRUE(fault::ShouldDropCacheInsert());
  fault::SetSpecForTest(nullptr);
  EXPECT_FALSE(fault::ShouldDropCacheInsert());
}

TEST(FaultTapTest, CacheInsertDropOnlyCostsHitRate) {
  // A dropped insert is a miss on the next lookup, never a wrong payload.
  fault::SetSpecForTest("cache_insert_fail_every=2");
  EncodedStateCache cache(1 << 20);
  cache.Insert(0, 1, 11, {1.0f});  // insert #1: kept
  cache.Insert(0, 2, 22, {2.0f});  // insert #2: dropped
  std::vector<float> out;
  EXPECT_TRUE(cache.Lookup(0, 1, 11, &out));
  EXPECT_EQ(out, std::vector<float>({1.0f}));
  EXPECT_FALSE(cache.Lookup(0, 2, 22, &out));
  EXPECT_EQ(cache.stats().entries, 1);
  fault::SetSpecForTest(nullptr);
}

// ---------------------------------------------------------------------------
// Daemon-level chaos (needs the real HTTP server: VSAN_OBS builds only)

#if VSAN_OBS_ENABLED

// Like serve_test's PostRecommend but tolerant of transport failure: a
// mid-response reset comes back as -1 instead of an EXPECT failure, so the
// socket-reset tests can tell "cleanly cut" from "wrong answer".
int TryPost(int port, const std::string& path, const std::string& body,
            std::string* response) {
  int status = 0;
  if (!obs::HttpPost("127.0.0.1", port, path, body, "application/json",
                     &status, response)) {
    return -1;
  }
  return status;
}

int TryRecommend(int port, const std::string& body, std::string* response) {
  return TryPost(port, "/recommend", body, response);
}

std::string RequestBody(int64_t user, const std::vector<int32_t>& history,
                        int32_t k) {
  std::string body = "{\"user\": " + std::to_string(user) +
                     ", \"k\": " + std::to_string(k) + ", \"history\": [";
  for (size_t i = 0; i < history.size(); ++i) {
    if (i > 0) body += ", ";
    body += std::to_string(history[i]);
  }
  body += "]}";
  return body;
}

// Trains the same tiny VSAN as serve_test's oracle fixture and saves it as
// a checkpoint, so reload tests can round-trip the real VSANCKP1 path and
// every response can be checked bitwise against the in-memory model.
class ChaosServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::SetSpecForTest(nullptr);
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
    // One checkpoint per test: ctest runs each case as its own process, so
    // a shared path would let one case's Save race another's reload.
    const char* test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    checkpoint_ = ::testing::TempDir() + "/serve_chaos_" + test + ".ckpt";
    ASSERT_TRUE(model_->Save(checkpoint_).ok());
  }

  void TearDown() override { fault::SetSpecForTest(nullptr); }

  DaemonOptions ChaosOptions() {
    DaemonOptions options;
    options.handler_threads = 4;
    options.batcher.max_batch = 4;
    options.batcher.max_wait_us = 200;
    // Generous: overload shedding has its own tests; chaos runs want every
    // accepted request to complete so "bitwise or clean error" is sharp.
    options.batcher.max_queue = 64;
    options.service.exclude_seen = false;
    options.checkpoint_path = checkpoint_;
    options.loader = [](const std::string& path, LoadedModel* out) {
      auto loaded = core::Vsan::Load(path);
      if (!loaded.ok()) return loaded.status();
      std::unique_ptr<core::Vsan> fresh = std::move(loaded).value();
      out->num_items = fresh->num_items();
      out->model =
          std::shared_ptr<const SequentialRecommender>(std::move(fresh));
      return Status::Ok();
    };
    return options;
  }

  // Asserts `response` carries exactly the offline oracle for this history:
  // same items, same order, bitwise-identical scores (the %.9g float round
  // trip).  Holds across reloads too — every generation loads the same
  // checkpoint, so the forward pass is bit-for-bit reproducible.
  void VerifyBitwise(const std::string& response,
                     const std::vector<int32_t>& history, int32_t k) {
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::ParseJson(response, &doc, &error))
        << error << " in: " << response;
    const obs::JsonValue* items = doc.Find("items");
    ASSERT_NE(items, nullptr) << response;
    std::vector<float> scores;
    model_->ScoreInto(history, &scores);
    const std::vector<int32_t> expected = eval::TopNIndices(
        scores, std::vector<bool>(scores.size(), false), k);
    ASSERT_EQ(items->array.size(), expected.size());
    for (size_t r = 0; r < expected.size(); ++r) {
      const obs::JsonValue& item = items->array[r];
      ASSERT_EQ(item.NumberOr("item", -1),
                static_cast<double>(expected[r]))
          << "rank " << r;
      ASSERT_EQ(static_cast<float>(item.NumberOr("score", 0.0)),
                scores[static_cast<size_t>(expected[r])])
          << "rank " << r;
    }
  }

  data::SequenceDataset dataset_;
  std::unique_ptr<core::Vsan> model_;
  std::string checkpoint_;
};

TEST_F(ChaosServeTest, MalformedBodyFuzzMatrix) {
  DaemonOptions options = ChaosOptions();
  options.service.max_history = 16;
  ServeDaemon daemon(model_.get(), model_->num_items(), options);
  ASSERT_TRUE(daemon.StartHttp());
  daemon.Activate();

  const std::string valid = "{\"user\": 1, \"history\": [3, 1, 4], \"k\": 5}";
  std::string response;
  ASSERT_EQ(TryRecommend(daemon.port(), valid, &response), 200);

  std::vector<std::string> bad = {
      // Not JSON / not an object.
      "", " ", "not json at all", "null", "true", "42", "\"a string\"",
      "[1, 2, 3]", "{", "}", "{]", "{\"user\": }", "{}",
      // Missing fields.
      "{\"user\": 1}", "{\"history\": [1]}",
      // Wrong-typed or out-of-range user.
      "{\"user\": -1, \"history\": [1]}",
      "{\"user\": \"1\", \"history\": [1]}",
      "{\"user\": 1.5, \"history\": [1]}",
      "{\"user\": true, \"history\": [1]}",
      "{\"user\": null, \"history\": [1]}",
      "{\"user\": 1e300, \"history\": [1]}",
      // Wrong-typed history / items.
      "{\"user\": 1, \"history\": 1}",
      "{\"user\": 1, \"history\": \"1,2\"}",
      "{\"user\": 1, \"history\": {\"a\": 1}}",
      "{\"user\": 1, \"history\": [\"1\"]}",
      "{\"user\": 1, \"history\": [1.5]}",
      "{\"user\": 1, \"history\": [null]}",
      "{\"user\": 1, \"history\": [[1]]}",
      "{\"user\": 1, \"history\": [99999999999]}",
      // Semantically invalid ids and k (the service's own 400s).
      "{\"user\": 1, \"history\": [0]}",
      "{\"user\": 1, \"history\": [101]}",
      "{\"user\": 1, \"history\": [1], \"k\": 0}",
      "{\"user\": 1, \"history\": [1], \"k\": -3}",
      "{\"user\": 1, \"history\": [1], \"k\": \"5\"}",
      "{\"user\": 1, \"history\": [1], \"k\": 2.5}",
      "{\"user\": 1, \"history\": [1], \"k\": 99999999999}",
      // Bad deadlines.
      "{\"user\": 1, \"history\": [1], \"deadline_us\": -1}",
      "{\"user\": 1, \"history\": [1], \"deadline_us\": \"soon\"}",
      "{\"user\": 1, \"history\": [1], \"deadline_us\": 1.5}",
  };
  // Deeply nested values must hit the parser's recursion cap, not the
  // process's stack guard.
  std::string deep_array(400, '[');
  deep_array.append(400, ']');
  bad.push_back(deep_array);
  std::string deep_history = "{\"user\": 1, \"history\": ";
  deep_history.append(300, '[');
  deep_history.append(300, ']');
  deep_history += "}";
  bad.push_back(deep_history);
  std::string deep_object;
  for (int i = 0; i < 300; ++i) deep_object += "{\"a\": ";
  deep_object += "1";
  deep_object.append(300, '}');
  bad.push_back(deep_object);
  // History over the semantic cap gets its own clear 400.
  std::string long_history = "{\"user\": 1, \"history\": [";
  for (int i = 0; i < 17; ++i) {
    if (i > 0) long_history += ", ";
    long_history += "1";
  }
  long_history += "]}";
  bad.push_back(long_history);
  // Every proper prefix of a valid body is truncated JSON.
  for (size_t len = 0; len < valid.size(); ++len) {
    bad.push_back(valid.substr(0, len));
  }

  for (const std::string& body : bad) {
    const int status = TryRecommend(daemon.port(), body, &response);
    EXPECT_EQ(status, 400) << "body: " << body.substr(0, 80);
  }
  // The matrix left no mark: the valid body still round-trips bitwise.
  ASSERT_EQ(TryRecommend(daemon.port(), valid, &response), 200);
  VerifyBitwise(response, {3, 1, 4}, 5);
  daemon.Shutdown();
}

TEST_F(ChaosServeTest, EncodeStallTripsDeadlinesWith504) {
  DaemonOptions options = ChaosOptions();
  // Daemon-wide default deadline: requests carrying none inherit it.
  options.service.default_deadline_us = 2000;
  ServeDaemon daemon(model_.get(), model_->num_items(), options);
  ASSERT_TRUE(daemon.StartHttp());
  daemon.Activate();
  obs::Counter* expired =
      obs::MetricsRegistry::Global().GetCounter("serve.deadline_expired");
  const int64_t expired_before = expired->value();

  // Every encode flush now takes 30ms against a 2ms budget, so a request
  // must come back 504 whichever way it expires: mid-flush (the service's
  // post-encode check), queued behind a stalled flush (the flush-loop shed
  // sweep), or late on arrival (the submit-time check).
  fault::SetSpecForTest("serve_encode_stall_ms=30");
  std::vector<int> statuses(3, 0);
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      std::string response;
      std::string body = RequestBody(i, {static_cast<int32_t>(i + 1)}, 5);
      body.insert(body.size() - 1, ", \"deadline_us\": 2000");
      statuses[static_cast<size_t>(i)] =
          TryRecommend(daemon.port(), body, &response);
    });
  }
  // A fourth request exercises the default deadline (no deadline_us field).
  std::string response;
  EXPECT_EQ(TryRecommend(daemon.port(), RequestBody(9, {9}, 5), &response),
            504);
  for (std::thread& t : clients) t.join();
  for (const int status : statuses) EXPECT_EQ(status, 504);
  EXPECT_GE(expired->value() - expired_before, 4);

  // Stall gone: an explicit deadline_us of 0 opts out of the default and
  // the same request completes bitwise.
  fault::SetSpecForTest(nullptr);
  std::string body = RequestBody(9, {9}, 5);
  body.insert(body.size() - 1, ", \"deadline_us\": 0");
  ASSERT_EQ(TryRecommend(daemon.port(), body, &response), 200);
  VerifyBitwise(response, {9}, 5);
  daemon.Shutdown();
}

TEST_F(ChaosServeTest, StallAndJitterNeverCorruptResponses) {
  ServeDaemon daemon(model_.get(), model_->num_items(), ChaosOptions());
  ASSERT_TRUE(daemon.StartHttp());
  daemon.Activate();

  // Slow encoder plus flush-thread scheduler jitter, concurrent clients,
  // no deadlines: latency may be awful, answers may not be.
  fault::SetSpecForTest("serve_encode_stall_ms=2,serve_flush_delay_ms=1");
  constexpr int kClients = 4;
  constexpr int kPerClient = 5;
  std::vector<int> statuses(kClients * kPerClient, 0);
  std::vector<std::string> responses(kClients * kPerClient);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const int64_t user = c * kPerClient + r;
        const size_t slot = static_cast<size_t>(user);
        statuses[slot] = TryRecommend(
            daemon.port(),
            RequestBody(user, dataset_.sequence(static_cast<int32_t>(user)),
                        10),
            &responses[slot]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients * kPerClient; ++i) {
    const size_t slot = static_cast<size_t>(i);
    ASSERT_EQ(statuses[slot], 200) << "request " << i;
    VerifyBitwise(responses[slot], dataset_.sequence(i), 10);
  }
  daemon.Shutdown();
}

TEST_F(ChaosServeTest, SocketResetsAreVisibleFailuresNeverWrongAnswers) {
  ServeDaemon daemon(model_.get(), model_->num_items(), ChaosOptions());
  ASSERT_TRUE(daemon.StartHttp());
  daemon.Activate();
  const std::string body = RequestBody(7, dataset_.sequence(7), 10);
  std::string response;
  ASSERT_EQ(TryRecommend(daemon.port(), body, &response), 200);

  // Every second response is cut to zero bytes and the connection closed.
  // The client must see each request either fail visibly (reset) or
  // succeed bitwise — never a mangled 200 — and the server must shrug the
  // dead connections off.
  fault::SetSpecForTest("socket_reset_after_bytes=0,socket_reset_every=2");
  int resets = 0;
  int oks = 0;
  for (int i = 0; i < 10; ++i) {
    const int status = TryRecommend(daemon.port(), body, &response);
    if (status == -1) {
      ++resets;
      continue;
    }
    ASSERT_EQ(status, 200);
    VerifyBitwise(response, dataset_.sequence(7), 10);
    ++oks;
  }
  EXPECT_GE(resets, 1);
  EXPECT_GE(oks, 1);

  // Disarmed, the daemon is fully healthy: /healthz and a bitwise answer.
  fault::SetSpecForTest(nullptr);
  int status = 0;
  ASSERT_TRUE(obs::HttpGet("127.0.0.1", daemon.port(), "/healthz", &status,
                           &response));
  EXPECT_EQ(status, 200);
  ASSERT_EQ(TryRecommend(daemon.port(), body, &response), 200);
  VerifyBitwise(response, dataset_.sequence(7), 10);
  daemon.Shutdown();
}

TEST_F(ChaosServeTest, CacheInsertFailuresNeverChangeAnswers) {
  ServeDaemon daemon(model_.get(), model_->num_items(), ChaosOptions());
  ASSERT_TRUE(daemon.StartHttp());
  daemon.Activate();

  // Half the encoded-state cache writes silently vanish.  Repeated and
  // interleaved identical requests must stay bitwise-correct whether they
  // hit, miss, or miss-because-the-insert-was-dropped.
  fault::SetSpecForTest("cache_insert_fail_every=2");
  std::string response;
  for (int round = 0; round < 3; ++round) {
    for (const int32_t user : {5, 6}) {
      ASSERT_EQ(TryRecommend(daemon.port(),
                             RequestBody(user, dataset_.sequence(user), 10),
                             &response),
                200);
      VerifyBitwise(response, dataset_.sequence(user), 10);
    }
  }
  daemon.Shutdown();
}

TEST_F(ChaosServeTest, CorruptReloadRejectedOldGenerationKeepsServing) {
  ServeDaemon daemon(model_.get(), model_->num_items(), ChaosOptions());
  ASSERT_TRUE(daemon.StartHttp());
  daemon.Activate();
  obs::Counter* reload_failures =
      obs::MetricsRegistry::Global().GetCounter("serve.reload_failures");
  const int64_t failures_before = reload_failures->value();

  const std::string body = RequestBody(3, dataset_.sequence(3), 10);
  std::string response;
  ASSERT_EQ(TryRecommend(daemon.port(), body, &response), 200);
  EXPECT_NE(response.find("\"generation\": 0"), std::string::npos);
  VerifyBitwise(response, dataset_.sequence(3), 10);

  // Offer a corrupted copy for reload (a copy, so the pristine original
  // can still be reloaded afterwards).  The CRC'd loader must reject it
  // and generation 0 must keep serving, bit-for-bit.
  const std::string scratch = ::testing::TempDir() + "/serve_chaos_bad.ckpt";
  {
    std::ifstream in(checkpoint_, std::ios::binary);
    std::ofstream out(scratch, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    ASSERT_TRUE(in.good() && out.good());
  }
  fault::SetSpecForTest("corrupt_reload_bytes=8");
  EXPECT_EQ(TryPost(daemon.port(), "/reload",
                    "{\"checkpoint\": \"" + scratch + "\"}", &response),
            409);
  EXPECT_EQ(daemon.generation(), 0);
  EXPECT_EQ(reload_failures->value() - failures_before, 1);
  ASSERT_EQ(TryRecommend(daemon.port(), body, &response), 200);
  EXPECT_NE(response.find("\"generation\": 0"), std::string::npos);
  VerifyBitwise(response, dataset_.sequence(3), 10);

  // Malformed reload bodies are client errors, not failed reloads.
  EXPECT_EQ(TryPost(daemon.port(), "/reload", "not json", &response), 400);
  EXPECT_EQ(TryPost(daemon.port(), "/reload", "{\"checkpoint\": 7}",
                    &response),
            400);

  // Disarmed, the pristine checkpoint swaps in as generation 1 and serves
  // the same bits (same file, deterministic forward pass).
  fault::SetSpecForTest(nullptr);
  ASSERT_EQ(TryPost(daemon.port(), "/reload", "", &response), 200);
  EXPECT_NE(response.find("\"generation\": 1"), std::string::npos);
  EXPECT_EQ(daemon.generation(), 1);
  ASSERT_EQ(TryRecommend(daemon.port(), body, &response), 200);
  EXPECT_NE(response.find("\"generation\": 1"), std::string::npos);
  VerifyBitwise(response, dataset_.sequence(3), 10);
  daemon.Shutdown();
}

TEST_F(ChaosServeTest, HotReloadUnderLoadDropsNothing) {
  ServeDaemon daemon(model_.get(), model_->num_items(), ChaosOptions());
  ASSERT_TRUE(daemon.StartHttp());
  daemon.Activate();
  obs::Gauge* generation_gauge =
      obs::MetricsRegistry::Global().GetGauge("serve.model_generation");

  // Three client threads hammer /recommend while the main thread swaps the
  // model three times.  The zero-downtime contract: every single request
  // is answered 200 with the oracle's bits (all generations load the same
  // checkpoint), and each response names a generation that existed.
  constexpr int kClients = 3;
  constexpr int kPerClient = 16;
  constexpr int kReloads = 3;
  std::vector<int> statuses(kClients * kPerClient, 0);
  std::vector<std::string> responses(kClients * kPerClient);
  std::atomic<int> completed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        const int64_t user = c * kPerClient + r;
        const size_t slot = static_cast<size_t>(user);
        statuses[slot] = TryRecommend(
            daemon.port(),
            RequestBody(user, dataset_.sequence(static_cast<int32_t>(user)),
                        10),
            &responses[slot]);
        completed.fetch_add(1);
      }
    });
  }
  for (int g = 1; g <= kReloads; ++g) {
    // Space the swaps through the traffic so every generation serves some.
    while (completed.load() < g * (kClients * kPerClient / (kReloads + 1))) {
      std::this_thread::yield();
    }
    int64_t generation = -1;
    ASSERT_TRUE(daemon.Reload("", &generation).ok());
    EXPECT_EQ(generation, g);
  }
  for (std::thread& t : clients) t.join();

  for (int i = 0; i < kClients * kPerClient; ++i) {
    const size_t slot = static_cast<size_t>(i);
    ASSERT_EQ(statuses[slot], 200) << "request " << i << " was dropped";
    VerifyBitwise(responses[slot], dataset_.sequence(i), 10);
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::ParseJson(responses[slot], &doc, &error)) << error;
    const double generation = doc.NumberOr("generation", -1.0);
    EXPECT_GE(generation, 0.0);
    EXPECT_LE(generation, static_cast<double>(kReloads));
  }
  EXPECT_EQ(daemon.generation(), kReloads);
  EXPECT_EQ(generation_gauge->value(), static_cast<double>(kReloads));
  daemon.Shutdown();
}

TEST_F(ChaosServeTest, ShutdownDuringStallAnswersInFlight) {
  DaemonOptions options = ChaosOptions();
  options.batcher.max_batch = 1;  // one flush per request: progress is
                                  // observable as flushes + queue_depth
  ServeDaemon daemon(model_.get(), model_->num_items(), options);
  ASSERT_TRUE(daemon.StartHttp());
  daemon.Activate();

  // Shutdown races a flush thread that is mid-stall with more work queued
  // behind it.  The graceful-drain contract holds anyway: all three
  // accepted requests complete with the oracle's bits.
  fault::SetSpecForTest("serve_encode_stall_ms=20");
  std::vector<int> statuses(3, 0);
  std::vector<std::string> responses(3);
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      const size_t slot = static_cast<size_t>(i);
      statuses[slot] = TryRecommend(
          daemon.port(), RequestBody(i, dataset_.sequence(i), 10),
          &responses[slot]);
    });
  }
  // All three submitted: each is either a taken flush or still queued.
  while (daemon.batcher()->flushes() + daemon.batcher()->queue_depth() < 3) {
    std::this_thread::yield();
  }
  daemon.Shutdown();
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < 3; ++i) {
    const size_t slot = static_cast<size_t>(i);
    ASSERT_EQ(statuses[slot], 200) << "in-flight request " << i;
    VerifyBitwise(responses[slot], dataset_.sequence(i), 10);
  }
}

#endif  // VSAN_OBS_ENABLED

}  // namespace
}  // namespace serve
}  // namespace vsan
