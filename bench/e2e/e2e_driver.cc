// End-to-end benchmark driver: one run of one workload, untraced (the
// end-to-end metrics) or traced (the per-layer breakdown, layers.cc).
//
//   e2e_driver --workload=serve_fresh --seed=1 --seconds=20 --trace=0
//              --serve-binary=<build>/vsan/tools/vsan_serve
//
// Prints `<workload> <metric> <value> <unit>` for every metric, then one
// JSON result line (the last line of stdout), and saves the full record to
// <out>/<workload>.seed<N>.trace<T>.json for compare.py.  Exits 1 when an
// output fails its correctness check, 2 on bad arguments or a build that
// is not Release.  run.sh builds the binaries and calls this.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "eval/evaluator.h"
#include "loadgen.h"
#include "obs/http_server.h"
#include "optim/lr_schedule.h"
#include "report.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace vsan {
namespace e2e {
namespace {

constexpr double kWarmupS = 2.0;
// Set-up is timed several times per run and the median reported: a
// daemon launch takes tens of milliseconds, within reach of one
// scheduling hiccup; corpus synthesis takes most of a second.
constexpr int kServeSetupRepeats = 15;
constexpr int kTrainSetupRepeats = 3;
constexpr int64_t kPrepUsers = 8 * kBatchSize;  // checkpoint Fit: 8 steps

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// Starts vsan_serve with its default flags (only the checkpoint and an
// ephemeral port are passed, so a changed default is measured) and waits
// for /healthz to answer 200.  Returns seconds from launch to that answer,
// or -1 on failure.
double LaunchDaemon(const RunContext& ctx, const std::string& checkpoint,
                    ChildProcess* child, int* port) {
  Stopwatch timer;
  if (!child->Start({ctx.serve_binary, "--checkpoint=" + checkpoint,
                     "--port=0"},
                    ctx.work_prefix + ".serve.log")) {
    return -1.0;
  }
  std::string ready;
  if (!child->WaitForLine("READY port=", 60000, &ready)) return -1.0;
  *port = std::atoi(ready.c_str() + std::strlen("READY port="));
  while (timer.ElapsedSeconds() < 60.0) {
    int status = 0;
    std::string body;
    if (obs::HttpGet("127.0.0.1", *port, "/healthz", &status, &body) &&
        status == 200) {
      return timer.ElapsedSeconds();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1.0;
}

}  // namespace

Report RunServe(const RunContext& ctx) {
  const WorkloadSpec& spec = *ctx.spec;
  Report report;

  // Checkpoint: a seeded Fit on a user subset over the full catalog.  Its
  // cost is reported but is not a metric: it is the benchmark's own
  // preparation, not the daemon's.
  Stopwatch prep;
  const Inputs inputs = MakeInputs(spec, ctx.seed);
  const std::string checkpoint = ctx.work_prefix + ".ckpt";
  {
    core::Vsan model(ModelConfig(spec));
    model.Fit(TrainSubset(inputs.split, kPrepUsers), FitOptions(ctx.seed));
    if (!model.Save(checkpoint).ok()) {
      std::cerr << "error: cannot write " << checkpoint << "\n";
      report.correct = false;
      return report;
    }
  }
  RequestStream stream(spec, inputs.corpus, ctx.seed);
  report.Info("prep_s", prep.ElapsedSeconds(), "s");

  // Set-up: launch to first healthy answer, median of several launches;
  // the last daemon serves the run.
  // Replacing the handle terminates the previous launch first.
  std::vector<double> setup;
  std::unique_ptr<ChildProcess> daemon;
  int port = 0;
  for (int i = 0; i < kServeSetupRepeats; ++i) {
    daemon = std::make_unique<ChildProcess>();
    const double seconds = LaunchDaemon(ctx, checkpoint, daemon.get(), &port);
    if (seconds < 0.0) {
      std::cerr << "error: vsan_serve did not become healthy (see "
                << ctx.work_prefix << ".serve.log)\n";
      report.correct = false;
      return report;
    }
    setup.push_back(seconds);
  }

  const SendFn send = [port](const Request& request, std::string* response) {
    int status = 0;
    const bool ok =
        request.reload
            ? obs::HttpPost("127.0.0.1", port, "/reload", "",
                            "application/json", &status, response)
            : obs::HttpPost("127.0.0.1", port, "/recommend", request.body,
                            "application/json", &status, response);
    return ok ? status : 0;
  };
  const Slo slo;
  std::vector<OracleCase> cases;
  int64_t reloads_failed = 0;
  auto run = [&](const Schedule& schedule, double rate,
                 double abandon_lateness_ms = 200.0) {
    std::vector<ShotResult> shots;
    PhaseResult phase = RunPhase(schedule, rate, send, ctx.load_threads, slo,
                                 &shots, abandon_lateness_ms);
    KeepOracleCases(schedule, shots, &cases);
    report.attempted +=
        phase.attempted + static_cast<int64_t>(phase.reload_ms.size());
    report.failed += phase.failed;
    reloads_failed += phase.reload_failed;
    return phase;
  };

  run(MakeSchedule(&stream, kNominalRate, kWarmupS), kNominalRate);

  // Saturation: every connection kept busy back to back for a fixed time.
  // Any higher arrival rate builds a backlog, so this is the highest rate
  // the daemon sustains; it is the gated throughput because it repeats
  // within a few percent, where the SLO search below does not.
  const double burst_s = 0.15 * ctx.seconds;
  const PhaseResult burst = run(
      MakeBurst(&stream, static_cast<int64_t>(5000 * burst_s)), 0.0,
      1000.0 * burst_s);
  const double saturation = burst.attempted / burst.elapsed_s;

  // SLO search (reported, not gated): bisection between half and just
  // above the saturation rate.
  const int bisections = 3;
  const double probe_s = 0.45 * ctx.seconds / bisections;
  const RateSearch search = SearchMaxRate(
      0.5 * saturation, 1.05 * saturation, slo,
      [&](double rate) {
        return run(MakeSchedule(&stream, rate, probe_s), rate);
      },
      bisections);

  // Peak memory is read before the nominal phase: serve_returning's
  // reloads strand a superseded model's pooled buffers in whichever
  // handler thread released them, so the peak after reloads depends on
  // thread scheduling.  It is reported separately.
  const double rss = PeakRssMb(daemon->pid());

  // Nominal phase, last: fixed rate, latency percentiles.  serve_returning
  // also reloads the same checkpoint four times while serving.
  const double nominal_s = 0.4 * ctx.seconds;
  std::vector<double> reloads_at;
  if (spec.reloads) {
    for (double f : {0.2, 0.4, 0.6, 0.8}) reloads_at.push_back(f * nominal_s);
  }
  const PhaseResult nominal = run(
      MakeSchedule(&stream, kNominalRate, nominal_s, reloads_at), kNominalRate);

  const double rss_end = PeakRssMb(daemon->pid());
  const int exit_code = daemon->Terminate();

  // The oracle reads the same checkpoint file the daemon served.
  const auto oracle = core::Vsan::Load(checkpoint);
  const int64_t mismatches =
      oracle.ok() ? CountOracleMismatches(*oracle.value(), cases)
                  : static_cast<int64_t>(cases.size());
  std::remove(checkpoint.c_str());

  report.failed += mismatches + reloads_failed;
  report.correct = mismatches == 0 && !cases.empty() && exit_code == 0 &&
                   report.failed == 0;

  report.Add("setup_s", Median(setup), "s");
  report.Add("latency_p50_ms", nominal.p50_ms, "ms");
  report.Add("latency_p90_ms", nominal.p90_ms, "ms");
  report.Add("throughput_per_s", saturation, "1/s");
  report.Add("peak_rss_mb", rss, "MiB");

  report.Info("nominal_requests", static_cast<double>(nominal.attempted),
              "count");
  report.Info("nominal_meets_slo", nominal.meets_slo ? 1.0 : 0.0, "bool");
  report.Info("lateness_p99_ms", nominal.lateness_p99_ms, "ms");
  report.Info("lateness_growth_ms", nominal.lateness_growth_ms, "ms");
  if (spec.reloads) report.Info("reload_ms", Median(nominal.reload_ms), "ms");
  report.Info("latency_p99_ms", nominal.p99_ms, "ms");
  report.Info("slo_max_rate_per_s", search.max_rate, "1/s");
  report.Info("peak_rss_end_mb", rss_end, "MiB");
  report.Info("error_ratio",
              report.attempted > 0
                  ? static_cast<double>(report.failed) / report.attempted
                  : 1.0,
              "1");
  report.Info("oracle_checked", static_cast<double>(cases.size()), "count");
  report.Info("oracle_mismatches", static_cast<double>(mismatches), "count");

  std::ostringstream details;
  details << "\"load_threads\": " << ctx.load_threads
          << ", \"setup_runs_s\": [";
  for (size_t i = 0; i < setup.size(); ++i) {
    details << (i > 0 ? ", " : "") << Num(setup[i]);
  }
  details << "], \"probes\": [";
  for (size_t i = 0; i < search.probes.size(); ++i) {
    const PhaseResult& p = search.probes[i];
    details << (i > 0 ? ", " : "") << "{\"rate\": " << Num(p.rate)
            << ", \"p99_ms\": " << Num(p.p99_ms) << ", \"attempted\": "
            << p.attempted << ", \"unsent\": " << p.unsent
            << ", \"lateness_growth_ms\": " << Num(p.lateness_growth_ms)
            << ", \"meets_slo\": " << (p.meets_slo ? "true" : "false") << "}";
  }
  details << "]";
  report.details = details.str();
  return report;
}

namespace {

// Stamps the start of every training step: Fit asks its LR schedule for
// the rate exactly once per step, before the step's forward pass.
class StepClock : public optim::LrSchedule {
 public:
  explicit StepClock(float lr) : lr_(lr) {}
  float LearningRate(int64_t) const override {
    starts_.push_back(std::chrono::steady_clock::now());
    return lr_;
  }
  // Step durations in ms; the last step ends at `end`.
  std::vector<double> StepMs(std::chrono::steady_clock::time_point end) const {
    std::vector<double> ms;
    for (size_t i = 0; i < starts_.size(); ++i) {
      const auto stop = i + 1 < starts_.size() ? starts_[i + 1] : end;
      ms.push_back(
          std::chrono::duration<double, std::milli>(stop - starts_[i]).count());
    }
    return ms;
  }

 private:
  const float lr_;
  mutable std::vector<std::chrono::steady_clock::time_point> starts_;
};

}  // namespace

Report RunTrainEval(const RunContext& ctx) {
  const WorkloadSpec& spec = *ctx.spec;
  Report report;

  // Set-up: corpus synthesis plus the strong split, median of several.
  std::vector<double> setup;
  Inputs inputs;
  for (int i = 0; i < kTrainSetupRepeats; ++i) {
    Stopwatch timer;
    inputs = MakeInputs(spec, ctx.seed);
    setup.push_back(timer.ElapsedSeconds());
  }

  // Fixed work sized by --seconds: two training steps per second of budget.
  const int64_t steps = std::max<int64_t>(4, std::lround(2.0 * ctx.seconds));
  const data::SequenceDataset train =
      TrainSubset(inputs.split, steps * kBatchSize);
  core::Vsan model(ModelConfig(spec));
  TrainOptions options = FitOptions(ctx.seed);
  const StepClock clock(options.learning_rate);
  options.lr_schedule = &clock;
  double loss = std::numeric_limits<double>::quiet_NaN();
  options.epoch_callback = [&loss](const EpochStats& stats) {
    loss = stats.loss;
  };
  Stopwatch fit_timer;
  model.Fit(train, options);
  const double fit_s = fit_timer.ElapsedSeconds();
  std::vector<double> step_ms =
      clock.StepMs(std::chrono::steady_clock::now());

  // Ranking throughput: the whole held-out set in one call (users spread
  // over the thread pool), median of three passes.
  const eval::EvalOptions eval_options;
  std::vector<double> users_per_s;
  double ndcg10 = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    Stopwatch timer;
    const eval::EvalResult result =
        eval::EvaluateRanking(model, inputs.split.test, eval_options);
    users_per_s.push_back(inputs.split.test.size() / timer.ElapsedSeconds());
    ndcg10 = result.ndcg.at(10);
  }

  report.attempted = static_cast<int64_t>(step_ms.size() + users_per_s.size());
  const bool finite = std::isfinite(loss) && std::isfinite(ndcg10);
  report.failed = finite ? 0 : 1;
  report.correct = finite;

  report.Add("setup_s", Median(setup), "s");
  report.Add("latency_p50_ms", Percentile(&step_ms, 50.0), "ms");
  report.Add("latency_p90_ms", Percentile(&step_ms, 90.0), "ms");
  report.Add("throughput_per_s", train.num_users() / fit_s, "1/s");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");

  report.Info("train_steps", static_cast<double>(step_ms.size()), "count");
  report.Info("eval_users_per_s", Median(users_per_s), "1/s");
  report.Info("step_p75_ms", Percentile(&step_ms, 75.0), "ms");
  report.Info("train_loss_final", loss, "nats");
  report.Info("eval_ndcg10", ndcg10, "1");
  report.Info("error_ratio", static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted),
              "1");
  return report;
}

namespace {

int Usage() {
  std::cerr << "usage: e2e_driver --workload=W --serve-binary=PATH "
               "[--seed=1] [--seconds=20] [--trace=0|1] [--out=DIR]\n"
               "workloads:";
  for (const WorkloadSpec& spec : AllWorkloads()) std::cerr << " " << spec.name;
  std::cerr << "\n";
  return 2;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string workload = flags.GetString("workload");
  const int64_t seed = flags.GetInt("seed", 1);
  const double seconds = flags.GetDouble("seconds", 20.0);
  const bool traced = flags.GetInt("trace", 0) != 0 || flags.GetBool("traced");
  const std::string out_dir = flags.GetString("out", ".bench_build/e2e-runs");
  RunContext ctx;
  ctx.serve_binary = flags.GetString("serve-binary");
  ctx.spec = FindWorkload(workload);
  if (ctx.spec == nullptr || !flags.UnqueriedFlags().empty() ||
      !(seconds > 0.0) || seed < 0 ||
      (ctx.spec->serve && ctx.serve_binary.empty())) {
    return Usage();
  }
  ctx.seed = static_cast<uint64_t>(seed);
  ctx.seconds = seconds;
  ctx.host = ProbeHost();
  if (ctx.host.build_type != "Release") {
    std::cerr << "error: refusing to measure a '" << ctx.host.build_type
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  // The load generator is this one process: one sender thread per
  // connection, never more of either than the host has cores.
  ctx.load_threads = std::min(4, ctx.host.nproc);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string stem = workload + ".seed" + std::to_string(seed) +
                           ".trace" + (traced ? "1" : "0");
  ctx.work_prefix = out_dir + "/" + stem;

  const double ref_before_ms = ReferenceLoopMs();
  const CpuTimes cpu_before = ReadCpuTimes();
  Report report = traced ? RunTraced(ctx)
                  : ctx.spec->serve ? RunServe(ctx)
                                    : RunTrainEval(ctx);
  const CpuTimes cpu_after = ReadCpuTimes();
  const uint64_t ticks = cpu_after.total - cpu_before.total;
  report.Info("host_steal_share",
              ticks > 0 ? static_cast<double>(cpu_after.steal - cpu_before.steal) /
                              static_cast<double>(ticks)
                        : 0.0,
              "1");
  report.Info("host_ref_loop_ms", 0.5 * (ref_before_ms + ReferenceLoopMs()),
              "ms");

  bool finite = true;
  for (const std::vector<Metric>* list : {&report.metrics, &report.info}) {
    for (const Metric& m : *list) {
      std::cout << workload << " " << m.name << " " << m.value << " "
                << m.unit << "\n";
    }
  }
  for (const Metric& m : report.metrics) finite = finite && std::isfinite(m.value);
  const bool correct = report.correct && finite;

  std::ofstream record(ctx.work_prefix + ".json");
  record << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
         << ", \"seconds\": " << Num(seconds) << ", \"trace\": "
         << (traced ? 1 : 0) << ", \"host\": " << ctx.host.ToJson()
         << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed
         << ", \"metrics\": " << MetricsJson(report.metrics)
         << ", \"info\": " << MetricsJson(report.info)
         << (report.details.empty() ? "" : ", " + report.details) << "}\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<int64_t>(1, report.attempted)
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << MetricsJson(report.metrics) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace vsan

int main(int argc, char** argv) { return vsan::e2e::Main(argc, argv); }
