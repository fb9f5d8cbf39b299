// The traced run: the same seeded inputs as the untraced run, replayed with
// a tracer session open, timed layer by layer.  Three sources feed the
// per-layer metrics:
//   - spans the library already records (train/*, nn/*, ops/*, gemm/*,
//     pool/*, data/*, eval/*), turned into per-step totals and self times;
//   - the metrics registry and the cache's own counters (batch sizes,
//     queue waits, hits, rejections);
//   - calls this program makes into each layer's public functions and times
//     itself (ServeDaemon, RecommendService, the two batchers, Reload,
//     EncodeBatchInto, Gemm, TopKCollector, Reparameterize).
// Serving runs on an in-process ServeDaemon built with vsan_serve's
// defaults, so its threads record into the same session.  Every session's
// ring buffers are sized from a short calibration run, and the run fails
// if any span was dropped.  Each session is written as a Chrome trace
// next to the run's JSON record.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "autograd/ops.h"
#include "data/batcher.h"
#include "eval/evaluator.h"
#include "eval/topk.h"
#include "loadgen.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report.h"
#include "serve/daemon.h"
#include "tensor/gemm.h"
#include "tensor/pool.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace vsan {
namespace e2e {
namespace {

constexpr int64_t kTracedSteps = 8;

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Per-name span statistics of one session.
struct SpanTable {
  struct Entry {
    std::vector<double> dur_ms;
    double total_ms = 0.0;
    double self_ms = 0.0;  // minus direct children on the same thread
  };
  std::map<std::string, Entry> by_name;
  int64_t dropped = 0;

  const Entry& Get(const std::string& name) const {
    static const Entry kEmpty;
    const auto it = by_name.find(name);
    return it == by_name.end() ? kEmpty : it->second;
  }
  double Total(const std::string& name) const { return Get(name).total_ms; }
  double Self(const std::string& name) const { return Get(name).self_ms; }
  double P(const std::string& name, double p) const {
    std::vector<double> d = Get(name).dur_ms;
    return Percentile(&d, p);
  }
};

// Spans nest properly per thread, and Collect() orders parents before
// children, so one stack per thread finds each span's direct parent.
SpanTable Tabulate(const std::vector<obs::SpanEvent>& events) {
  SpanTable table;
  std::vector<double> self(events.size());
  std::map<uint32_t, std::vector<size_t>> open;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::SpanEvent& e = events[i];
    self[i] = Ms(e.dur_ns);
    std::vector<size_t>& stack = open[e.tid];
    while (!stack.empty()) {
      const obs::SpanEvent& top = events[stack.back()];
      if (top.start_ns + top.dur_ns > e.start_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) self[stack.back()] -= Ms(e.dur_ns);
    stack.push_back(i);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    SpanTable::Entry& entry = table.by_name[events[i].name];
    entry.dur_ms.push_back(Ms(events[i].dur_ns));
    entry.total_ms += Ms(events[i].dur_ns);
    entry.self_ms += self[i];
  }
  return table;
}

// Runs `work` in a tracer session whose per-thread rings hold `capacity`
// events, writes the session as a Chrome trace to `path`, and tabulates it.
SpanTable Traced(int64_t capacity, const std::string& path,
                 const std::function<void()>& work) {
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::TracerOptions options;
  options.buffer_capacity = capacity;
  tracer.StartSession(options);
  work();
  tracer.StopSession();
  if (!path.empty()) obs::ExportChromeTrace(path);
  SpanTable table = Tabulate(tracer.Collect());
  table.dropped = tracer.DroppedEvents();
  return table;
}

// Ring capacity for a session expected to do `scale` times the work of
// `sample`: the busiest thread's event count in a traced run of `sample`,
// scaled with a margin.  The calibration session grows until it drops
// nothing itself.
int64_t CalibrateCapacity(const std::function<void()>& sample, double scale) {
  for (int64_t capacity = 1 << 14;; capacity *= 4) {
    obs::Tracer& tracer = obs::Tracer::Global();
    obs::TracerOptions options;
    options.buffer_capacity = capacity;
    tracer.StartSession(options);
    sample();
    tracer.StopSession();
    if (tracer.DroppedEvents() > 0) continue;
    std::map<uint32_t, int64_t> per_thread;
    for (const obs::SpanEvent& e : tracer.Collect()) ++per_thread[e.tid];
    int64_t busiest = 1;
    for (const auto& [tid, count] : per_thread) busiest = std::max(busiest, count);
    return static_cast<int64_t>(1.5 * scale * static_cast<double>(busiest)) + 4096;
  }
}

// Median wall time of `reps` calls, in milliseconds.
double MedianMs(int reps, const std::function<void()>& call) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    Stopwatch timer;
    call();
    ms.push_back(timer.ElapsedMillis());
  }
  return Median(ms);
}

// Forward GEMM FLOPs of one VSAN training step under the SASRec per-block
// cost model: per self-attention block 2*B*n*d^2 for each of Q, K, V and
// the two FFN layers plus 2*B*n^2*d for each of QK^T and AV; the latent
// head's two d x d projections; the output projection over every target
// row.  Backward costs two forward GEMMs each, so a step is 3x forward.
double StepGemmFlops(const core::VsanConfig& c, double batch,
                     double target_rows, double num_rows) {
  const double n = static_cast<double>(c.max_len);
  const double d = static_cast<double>(c.d);
  const double blocks = c.h1 + c.h2;
  const double per_block = 2.0 * batch * n * d * d * 5.0 + 2.0 * 2.0 * batch * n * n * d;
  const double latent = 2.0 * 2.0 * batch * n * d * d;
  const double output = 2.0 * target_rows * num_rows * d;
  return 3.0 * (blocks * per_block + latent + output);
}

int ServeStatusCode(serve::ServeStatus status) {
  switch (status) {
    case serve::ServeStatus::kOk:
      return 200;
    case serve::ServeStatus::kInvalid:
      return 400;
    case serve::ServeStatus::kOverloaded:
      return 429;
    case serve::ServeStatus::kDeadlineExceeded:
      return 504;
    default:
      return 500;
  }
}

double HistogramMean(const obs::HistogramSnapshot& h) {
  return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

}  // namespace

Report RunTraced(const RunContext& ctx) {
  const WorkloadSpec& spec = *ctx.spec;
  const std::string& prefix = ctx.work_prefix;
  Report report;
  int64_t dropped = 0;

  const Inputs inputs = MakeInputs(spec, ctx.seed);
  const core::VsanConfig config = ModelConfig(spec);
  const data::SequenceDataset train =
      TrainSubset(inputs.split, kTracedSteps * kBatchSize);
  const TrainOptions fit_options = FitOptions(ctx.seed);

  // --- Training: core train loop, nn, autograd, optim, tensor, data ------
  // The same seeded Fit untraced, traced, and untraced again: identical
  // work, so the traced wall time over the mean untraced one is the
  // tracer's overhead on training.  The calibration Fit runs first and
  // warms the tensor pool for all three.
  const int64_t train_capacity = CalibrateCapacity(
      [&] {
        core::Vsan probe(config);
        probe.Fit(TrainSubset(inputs.split, kBatchSize), fit_options);
      },
      static_cast<double>(kTracedSteps));
  core::Vsan model(config);
  Stopwatch untraced_timer;
  model.Fit(train, fit_options);
  double untraced_fit_s = untraced_timer.ElapsedSeconds();

  const pool::PoolStats pool_before = pool::GetStats();
  double traced_fit_s = 0.0;
  const SpanTable fit = Traced(train_capacity, prefix + ".trace-train.json", [&] {
    Stopwatch timer;
    model.Fit(train, fit_options);
    traced_fit_s = timer.ElapsedSeconds();
  });
  const pool::PoolStats pool_after = pool::GetStats();
  dropped += fit.dropped;
  {
    core::Vsan again(config);
    Stopwatch timer;
    again.Fit(train, fit_options);
    untraced_fit_s = 0.5 * (untraced_fit_s + timer.ElapsedSeconds());
  }

  const double steps =
      std::max<double>(1.0, static_cast<double>(fit.Get("train/step").dur_ms.size()));
  auto per_step = [&](double total_ms) { return total_ms / steps; };

  // Target rows per step, exactly as the batcher emits them.
  double target_rows = 0.0;
  {
    data::SequenceBatcher::Options options;
    options.max_len = config.max_len;
    options.batch_size = kBatchSize;
    data::SequenceBatcher batcher(&train, options);
    batcher.NewEpoch();
    data::TrainBatch batch;
    while (batcher.NextBatch(&batch)) {
      for (int32_t t : batch.next_targets) target_rows += t != -1 ? 1.0 : 0.0;
    }
    target_rows /= steps;
  }
  const double gemm_wall_ms =
      fit.Total("gemm/gemm") + fit.Total("gemm/batched_gemm");
  const double step_flops =
      StepGemmFlops(config, static_cast<double>(kBatchSize), target_rows,
                    inputs.corpus.num_items() + 1.0);

  // Reparameterize has no span of its own; time it at the step's shape.
  double reparameterize_ms = 0.0;
  {
    Rng rng(ctx.seed);
    const int64_t rows = kBatchSize * config.max_len;
    const Variable mu(Tensor::RandomNormal({rows, config.d}, &rng), true);
    const Variable logvar(Tensor::RandomNormal({rows, config.d}, &rng, 0.1f), true);
    reparameterize_ms = MedianMs(20, [&] {
      Variable z = ops::Reparameterize(mu, logvar, &rng, /*sample=*/true);
      (void)z;
    });
  }

  // --- Eval ----------------------------------------------------------------
  const eval::EvalOptions eval_options;
  const std::vector<data::HeldOutUser> eval_sample(
      inputs.split.test.begin(),
      inputs.split.test.begin() +
          std::min<size_t>(32, inputs.split.test.size()));
  const int64_t eval_capacity = CalibrateCapacity(
      [&] { eval::EvaluateRanking(model, eval_sample, eval_options); },
      static_cast<double>(inputs.split.test.size()) / eval_sample.size());
  double evaluate_s = 0.0;
  const SpanTable evaluation =
      Traced(eval_capacity, prefix + ".trace-eval.json", [&] {
        Stopwatch timer;
        eval::EvaluateRanking(model, inputs.split.test, eval_options);
        evaluate_s = timer.ElapsedSeconds();
      });
  dropped += evaluation.dropped;

  // --- Serving: an in-process daemon with vsan_serve's defaults ----------
  const std::string checkpoint = prefix + ".ckpt";
  if (!model.Save(checkpoint).ok()) {
    report.correct = false;
    return report;
  }
  auto loaded = core::Vsan::Load(checkpoint);
  if (!loaded.ok()) {
    report.correct = false;
    return report;
  }
  const std::unique_ptr<core::Vsan> served = std::move(loaded).value();
  serve::DaemonOptions daemon_options;
  daemon_options.checkpoint_path = checkpoint;
  daemon_options.loader = [](const std::string& path, serve::LoadedModel* out) {
    auto reloaded = core::Vsan::Load(path);
    if (!reloaded.ok()) return reloaded.status();
    std::unique_ptr<core::Vsan> fresh = std::move(reloaded).value();
    out->num_items = fresh->num_items();
    out->model = std::shared_ptr<const SequentialRecommender>(std::move(fresh));
    return Status::Ok();
  };
  serve::ServeDaemon daemon(served.get(), served->num_items(), daemon_options);
  if (!daemon.StartHttp()) {
    report.correct = false;
    return report;
  }
  daemon.Activate();
  const int port = daemon.port();

  RequestStream stream(spec, inputs.corpus, ctx.seed);
  const Slo slo;
  const SendFn http = [port](const Request& request, std::string* response) {
    int status = 0;
    return obs::HttpPost("127.0.0.1", port, "/recommend", request.body,
                         "application/json", &status, response)
               ? status
               : 0;
  };
  const SendFn in_process = [&daemon](const Request& request, std::string*) {
    serve::RecommendRequest r;
    r.user_id = request.user;
    r.history = request.history;
    r.k = request.k;
    serve::RecommendResult result;
    return ServeStatusCode(daemon.service()->Recommend(r, &result));
  };
  const double replay_s = 0.1 * ctx.seconds;
  std::vector<OracleCase> cases;
  auto replay = [&](const SendFn& send, double seconds,
                    std::vector<double>* service_ms) {
    const Schedule schedule = MakeSchedule(&stream, kNominalRate, seconds);
    std::vector<ShotResult> shots;
    const PhaseResult phase =
        RunPhase(schedule, kNominalRate, send, ctx.load_threads, slo, &shots);
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    KeepOracleCases(schedule, shots, &cases);
    for (const ShotResult& shot : shots) {
      if (service_ms != nullptr && shot.sent) service_ms->push_back(shot.service_ms);
    }
    return phase;
  };

  replay(http, replay_s, nullptr);  // warm-up
  const PhaseResult untraced_http = replay(http, replay_s, nullptr);

  const int64_t serve_capacity = CalibrateCapacity(
      [&] {
        const Schedule schedule = MakeSchedule(&stream, kNominalRate, 0.2);
        RunPhase(schedule, kNominalRate, http, ctx.load_threads, slo);
      },
      (3.0 * replay_s + 2.0) / 0.2);
  obs::MetricsRegistry::Global().Reset();
  const serve::CacheStats cache_before = daemon.cache()->stats();
  std::vector<double> rtt_ms;
  std::vector<double> recommend_ms;
  std::vector<double> encode_stage_ms;
  std::vector<double> score_stage_ms;
  PhaseResult traced_http;
  std::map<std::string, obs::HistogramSnapshot> histograms;
  serve::CacheStats cache_after;
  const SpanTable serving =
      Traced(serve_capacity, prefix + ".trace-serve.json", [&] {
        traced_http = replay(http, replay_s, &rtt_ms);
        histograms = obs::MetricsRegistry::Global().SnapshotHistograms();
        cache_after = daemon.cache()->stats();
        replay(in_process, replay_s, &recommend_ms);
        // Each stage alone, one request at a time: the flush wait a lone
        // request pays shows here.
        const int calls = static_cast<int>(kNominalRate * replay_s / 5.0);
        std::vector<float> query;
        std::vector<eval::ScoredItem> top;
        for (int i = 0; i < calls; ++i) {
          const Request request = stream.Next();
          Stopwatch encode_timer;
          daemon.batcher()->Encode(request.history, &query);
          encode_stage_ms.push_back(encode_timer.ElapsedMillis());
          Stopwatch score_timer;
          daemon.scorer()->Score(query,
                                 request.k + static_cast<int32_t>(request.history.size()),
                                 &top);
          score_stage_ms.push_back(score_timer.ElapsedMillis());
        }
      });
  dropped += serving.dropped;

  // Hot reloads under light in-process traffic: how long a swap takes and
  // how many cached encodings each one purges.
  std::vector<double> reload_ms;
  std::vector<double> purged;
  for (int i = 0; i < 4; ++i) {
    replay(in_process, 0.25, nullptr);
    const int64_t entries = daemon.cache()->stats().entries;
    Stopwatch timer;
    if (!daemon.Reload("").ok()) ++report.failed;
    reload_ms.push_back(timer.ElapsedMillis());
    purged.push_back(
        static_cast<double>(entries - daemon.cache()->stats().entries));
  }
  const std::map<std::string, int64_t> counters =
      obs::MetricsRegistry::Global().SnapshotCounters();
  daemon.Shutdown();
  std::remove(checkpoint.c_str());
  const int64_t mismatches = CountOracleMismatches(*served, cases);
  report.failed += mismatches;

  // --- Model encode, score GEMM and top-k at the measured batch mix -------
  const obs::HistogramSnapshot& encode_batches = histograms["serve.batch_size"];
  const obs::HistogramSnapshot& score_batches = histograms["serve.score.batch_size"];
  std::vector<double> encode_ms;
  int64_t encoded = 0;
  {
    Rng rng(MixSeed(ctx.seed, 6));
    std::vector<double> weights(encode_batches.buckets.begin(),
                                encode_batches.buckets.end());
    if (encode_batches.count == 0) weights.assign(1, 1.0);
    std::vector<float> queries;
    for (int i = 0; i < 200; ++i) {
      const int64_t batch = rng.Categorical(weights) + 1;
      std::vector<std::vector<int32_t>> histories;
      for (int64_t b = 0; b < batch; ++b) histories.push_back(stream.Next().history);
      Stopwatch timer;
      served->EncodeBatchInto(histories, &queries);
      encode_ms.push_back(timer.ElapsedMillis());
      encoded += batch;
    }
  }
  double encode_total_ms = 0.0;
  for (double ms : encode_ms) encode_total_ms += ms;

  FactorizedHead head;
  served->GetFactorizedHead(&head);
  const int64_t score_batch =
      std::max<int64_t>(1, std::lround(HistogramMean(score_batches)));
  std::vector<float> gemm_a(static_cast<size_t>(score_batch * head.dim), 0.01f);
  std::vector<float> gemm_c(static_cast<size_t>(score_batch * head.num_rows));
  const double score_gemm_ms = MedianMs(50, [&] {
    std::fill(gemm_c.begin(), gemm_c.end(), 0.0f);
    Gemm(gemm_a.data(), head.weights, gemm_c.data(), score_batch, head.num_rows,
         head.dim, /*trans_a=*/false, /*trans_b=*/head.items_are_rows);
  });
  const double score_flops = 2.0 * score_batch * head.num_rows * head.dim;
  const double score_bytes =
      4.0 * (score_batch * head.dim + head.num_rows * head.dim +
             score_batch * head.num_rows);
  const int64_t ceiling_n = 256;
  std::vector<float> square(ceiling_n * ceiling_n, 0.01f);
  std::vector<float> square_c(ceiling_n * ceiling_n);
  const double ceiling_ms = MedianMs(20, [&] {
    Gemm(square.data(), square.data(), square_c.data(), ceiling_n, ceiling_n,
         ceiling_n, false, false);
  });
  const double ceiling_gflops =
      2.0 * ceiling_n * ceiling_n * ceiling_n / (ceiling_ms * 1e6);
  const double score_gflops = score_flops / (score_gemm_ms * 1e6);

  eval::TopKCollector collector;
  std::vector<eval::ScoredItem> topk;
  const int32_t fetch = 10 + spec.history_cap;
  const double topk_us = 1000.0 * MedianMs(50, [&] {
    collector.Reset(fetch);
    for (int64_t row = 1; row < head.num_rows; ++row) {
      const float bias = head.bias != nullptr ? head.bias[row] : 0.0f;
      collector.Offer(static_cast<int32_t>(row),
                      gemm_c[static_cast<size_t>(row)] + bias);
    }
    topk.clear();
    collector.DrainSortedTo(&topk);
  });

  // --- Report -------------------------------------------------------------
  report.attempted += static_cast<int64_t>(reload_ms.size());
  report.correct = dropped == 0 && mismatches == 0 && report.failed == 0;

  const double rtt_p50 = Percentile(&rtt_ms, 50.0);
  const double recommend_p50 = Percentile(&recommend_ms, 50.0);
  report.Add("serve.http_rtt_ms.p50", rtt_p50, "ms");
  report.Add("serve.http_rtt_ms.p99", Percentile(&rtt_ms, 99.0), "ms");
  report.Add("serve.recommend_ms.p50", recommend_p50, "ms");
  report.Add("serve.recommend_ms.p99", Percentile(&recommend_ms, 99.0), "ms");
  report.Add("serve.transport_ms.p50", rtt_p50 - recommend_p50, "ms");
  const obs::HistogramSnapshot& encode_wait = histograms["serve.queue_wait_us"];
  const obs::HistogramSnapshot& score_wait = histograms["serve.score.queue_wait_us"];
  report.Add("serve.encode.queue_wait_us.p50", encode_wait.Percentile(50.0), "us");
  report.Add("serve.encode.queue_wait_us.p99", encode_wait.Percentile(99.0), "us");
  report.Add("serve.encode.batch_size.mean", HistogramMean(encode_batches), "count");
  report.Add("serve.score.queue_wait_us.p50", score_wait.Percentile(50.0), "us");
  report.Add("serve.score.queue_wait_us.p99", score_wait.Percentile(99.0), "us");
  report.Add("serve.score.batch_size.mean", HistogramMean(score_batches), "count");
  report.Add("serve.encode_stage_ms.p50", Median(encode_stage_ms), "ms");
  report.Add("serve.score_stage_ms.p50", Median(score_stage_ms), "ms");
  const int64_t lookups = (cache_after.hits - cache_before.hits) +
                          (cache_after.misses - cache_before.misses);
  report.Add("serve.cache.hit_ratio",
             lookups > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) /
                               static_cast<double>(lookups)
                         : 0.0,
             "1");
  report.Add("serve.cache.purged_per_reload", Median(purged), "count");
  report.Add("serve.reload_inproc_ms", Median(reload_ms), "ms");
  report.Add("models.encode_batch_ms.p50", Median(encode_ms), "ms");
  report.Add("models.encode_us_per_query",
             1000.0 * encode_total_ms / static_cast<double>(encoded), "us");
  report.Add("tensor.score_gemm_ms", score_gemm_ms, "ms");
  report.Add("tensor.score_gemm_gflops", score_gflops, "GFLOP/s");
  report.Add("tensor.score_gemm_bytes", score_bytes, "B");
  report.Add("tensor.score_gemm_ceiling_share", score_gflops / ceiling_gflops, "1");
  report.Add("tensor.gemm_ceiling_gflops", ceiling_gflops, "GFLOP/s");
  report.Add("eval.topk_us", topk_us, "us");
  report.Add("tensor.gemm.self_ms_per_step", per_step(fit.Total("gemm/kernel")), "ms");
  report.Add("tensor.gemm.pack_ms_per_step",
             per_step(fit.Total("gemm/pack_a") + fit.Total("gemm/pack_b")), "ms");
  report.Add("tensor.gemm.gflops_per_step",
             step_flops / (per_step(gemm_wall_ms) * 1e6), "GFLOP/s");
  report.Add("core.train_step_ms.p50", fit.P("train/step", 50.0), "ms");
  report.Add("core.train_step_ms.p99", fit.P("train/step", 99.0), "ms");
  report.Add("core.train_forward_ms.p50", fit.P("train/forward", 50.0), "ms");
  report.Add("core.train_backward_ms.p50", fit.P("train/backward", 50.0), "ms");
  report.Add("optim.step_ms.p50", fit.P("train/optimizer", 50.0), "ms");
  report.Add("nn.attention_block_ms", per_step(fit.Total("nn/attention_block")), "ms");
  report.Add("nn.embedding_ms", per_step(fit.Total("nn/embedding_lookup")), "ms");
  report.Add("autograd.softmax_xent_ms", per_step(fit.Total("ops/softmax_xent")), "ms");
  report.Add("autograd.latent_ms",
             per_step(fit.Total("ops/kl_standard_normal")) + reparameterize_ms, "ms");
  report.Add("autograd.layer_norm_ms", per_step(fit.Total("ops/layer_norm")), "ms");
  report.Add("autograd.backward_ms", per_step(fit.Self("autograd/backward")), "ms");
  const int64_t pool_hits = pool_after.hits - pool_before.hits;
  const int64_t pool_misses = pool_after.misses - pool_before.misses;
  report.Add("tensor.pool.hit_ratio",
             pool_hits + pool_misses > 0
                 ? static_cast<double>(pool_hits) / static_cast<double>(pool_hits + pool_misses)
                 : 0.0,
             "1");
  report.Add("tensor.pool.system_allocs", static_cast<double>(pool_misses), "count");
  report.Add("util.pool.queue_wait_ms", per_step(fit.Total("pool/queue_wait")), "ms");
  report.Add("util.pool.busy_share",
             fit.Total("pool/shard") /
                 (1000.0 * traced_fit_s * std::max(1, ThreadPool::Global()->num_threads() - 1)),
             "1");
  report.Add("data.next_batch_ms", per_step(fit.Total("data/next_batch")), "ms");
  report.Add("eval.evaluate_ranking_s", evaluate_s, "s");
  report.Add("eval.score_user_ms.p50", evaluation.P("eval/score_user", 50.0), "ms");
  const double step_total = fit.Total("train/step");
  report.Add("obs.trace.step_coverage",
             step_total > 0.0 ? 1.0 - fit.Self("train/step") / step_total : 0.0, "1");
  report.Add("obs.trace.overhead.train", traced_fit_s / untraced_fit_s - 1.0, "1");
  report.Add("obs.trace.overhead.serve",
             traced_http.p50_ms / untraced_http.p50_ms - 1.0, "1");

  auto counter = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  report.Info("obs.trace.dropped", static_cast<double>(dropped), "count");
  report.Info("serve.rejected",
              counter("serve.rejected") + counter("serve.score.rejected"), "count");
  report.Info("serve.deadline_expired", counter("serve.deadline_expired"), "count");
  report.Info("oracle_checked", static_cast<double>(cases.size()), "count");
  report.Info("oracle_mismatches", static_cast<double>(mismatches), "count");
  report.Info("train_target_rows_per_step", target_rows, "count");
  report.Info("train_gemm_gflop_per_step", step_flops * 1e-9, "GFLOP");
  report.Info("process_peak_rss_mb", PeakRssMb(), "MiB");
  return report;
}

}  // namespace e2e
}  // namespace vsan
