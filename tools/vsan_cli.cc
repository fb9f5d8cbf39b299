// Command-line interface to the library: train, evaluate, checkpoint, and
// query any of the nine models without writing C++.
//
//   vsan_cli train --dataset=beauty --model=vsan --epochs=20 --save=m.ckpt
//   vsan_cli train --dataset=ratings.dat --format=movielens --model=sasrec
//   vsan_cli recommend --load=m.ckpt --history=12,7,33 --topn=10
//   vsan_cli inspect --load=m.ckpt --history=12,7,33
//
// Datasets: "beauty" / "ml1m" synthesize the Table II presets at --scale;
// any other value is treated as a ratings file parsed per --format
// (movielens | amazon-csv) and preprocessed per Sec. V-A.

#include <iostream>
#include <memory>

#include "core/vsan.h"
#include "data/loaders.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/metrics.h"
#include "models/bpr.h"
#include "models/caser.h"
#include "models/fpmc.h"
#include "models/gru4rec.h"
#include "models/pop.h"
#include "models/sasrec.h"
#include "models/svae.h"
#include "models/transrec.h"
#include "obs/http_server.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace vsan {
namespace {

int Usage() {
  std::cerr <<
      "usage: vsan_cli <command> [flags]\n"
      "commands:\n"
      "  train      --dataset=beauty|ml1m|<file> [--format=movielens|amazon-csv]\n"
      "             [--min-rating=4] [--k-core=5]\n"
      "             [--model=vsan|sasrec|gru4rec|caser|svae|pop|bpr|fpmc|transrec]\n"
      "             [--scale=0.05] [--epochs=20] [--d=32] [--max-len=30]\n"
      "             [--h1=1] [--h2=1] [--k=1] [--beta=0.002] [--dropout=0.2]\n"
      "             [--lr=0.001] [--batch=64] [--seed=7] [--heldout=50]\n"
      "             [--save=path (vsan only)]\n"
      "             [--telemetry_out=train.jsonl] [--trace_out=trace.json]\n"
      "             [--checkpoint_dir=dir] [--checkpoint_every=1] [--resume]\n"
      "             [--on_divergence=skip|abort|rollback]\n"
      "             [--metrics-port=9108] [--profile_out=train.folded]\n"
      "  evaluate   --load=ckpt [--dataset, --format, --min-rating, --k-core,\n"
      "             --scale, --heldout and --seed as for train]\n"
      "             [--retrieval=exact|quantized|ivf] [--clusters=0]\n"
      "             [--nprobe=8] [--metrics-port=9108]\n"
      "  recommend  --load=ckpt --history=1,2,3 [--topn=10]\n"
      "  inspect    --load=ckpt --history=1,2,3\n";
  return 2;
}

// Call once a command has read every flag it takes: a flag left over is a
// typo or belongs to another command, and silently ignoring it would run
// something other than what was asked.
bool HasUnknownFlags(const FlagParser& flags) {
  const std::vector<std::string> unknown = flags.UnqueriedFlags();
  if (unknown.empty()) return false;
  std::cerr << "error: unknown flag --" << unknown.front() << "\n";
  return true;
}

// Dataset and split flags shared by train and evaluate.  The file-only
// ones are read even for the synthetic presets, so every command can check
// for unknown flags before it does any work.
struct DatasetFlags {
  std::string dataset;
  double scale = 0.0;
  std::string format;
  data::PreprocessOptions pre;
  data::SplitOptions split;
};

DatasetFlags ReadDatasetFlags(const FlagParser& flags) {
  DatasetFlags out;
  out.dataset = flags.GetString("dataset", "beauty");
  out.scale = flags.GetDouble("scale", 0.05);
  out.format = flags.GetString("format", "movielens");
  out.pre.min_rating = flags.GetDouble("min-rating", 4.0);
  out.pre.k_core = static_cast<int32_t>(flags.GetInt("k-core", 5));
  const int32_t heldout = static_cast<int32_t>(flags.GetInt("heldout", 50));
  out.split.num_validation_users = heldout;
  out.split.num_test_users = heldout;
  out.split.seed = flags.GetInt("seed", 7);
  return out;
}

Result<data::SequenceDataset> LoadDataset(const DatasetFlags& flags) {
  if (flags.dataset == "beauty") {
    return data::GenerateSynthetic(data::BeautyLikeConfig(flags.scale));
  }
  if (flags.dataset == "ml1m") {
    return data::GenerateSynthetic(data::ML1MLikeConfig(flags.scale));
  }
  return data::LoadRatingsFile(flags.dataset, flags.format, flags.pre);
}

// Reads every model flag whichever model is chosen (see DatasetFlags).
std::unique_ptr<SequentialRecommender> MakeModel(const FlagParser& flags) {
  const std::string name = flags.GetString("model", "vsan");
  const int64_t d = flags.GetInt("d", 32);
  const int64_t max_len = flags.GetInt("max-len", 30);
  const float dropout = static_cast<float>(flags.GetDouble("dropout", 0.2));
  const int32_t h1 = static_cast<int32_t>(flags.GetInt("h1", 1));
  const int32_t h2 = static_cast<int32_t>(flags.GetInt("h2", 1));
  const int32_t next_k = static_cast<int32_t>(flags.GetInt("k", 1));
  const float beta = static_cast<float>(flags.GetDouble("beta", 0.002));
  if (name == "pop") return std::make_unique<models::Pop>();
  if (name == "bpr") return std::make_unique<models::Bpr>(models::Bpr::Config{.d = d});
  if (name == "fpmc") {
    return std::make_unique<models::Fpmc>(models::Fpmc::Config{.d = d});
  }
  if (name == "transrec") {
    return std::make_unique<models::TransRec>(models::TransRec::Config{.d = d});
  }
  if (name == "gru4rec") {
    models::Gru4Rec::Config cfg;
    cfg.max_len = max_len;
    cfg.d = d;
    cfg.hidden = d;
    cfg.dropout = dropout;
    return std::make_unique<models::Gru4Rec>(cfg);
  }
  if (name == "caser") {
    models::Caser::Config cfg;
    cfg.d = d;
    cfg.dropout = dropout;
    return std::make_unique<models::Caser>(cfg);
  }
  if (name == "svae") {
    models::Svae::Config cfg;
    cfg.max_len = max_len;
    cfg.d = d;
    cfg.hidden = d;
    cfg.latent = d / 2;
    cfg.dropout = dropout;
    return std::make_unique<models::Svae>(cfg);
  }
  if (name == "sasrec") {
    models::SasRec::Config cfg;
    cfg.max_len = max_len;
    cfg.d = d;
    cfg.num_blocks = h1;
    cfg.dropout = dropout;
    return std::make_unique<models::SasRec>(cfg);
  }
  if (name == "vsan") {
    core::VsanConfig cfg;
    cfg.max_len = max_len;
    cfg.d = d;
    cfg.h1 = h1;
    cfg.h2 = h2;
    cfg.next_k = next_k;
    cfg.dropout = dropout;
    cfg.beta_max = beta;
    return std::make_unique<core::Vsan>(cfg);
  }
  return nullptr;
}

// --metrics-port=N: expose /metrics, /healthz, and /trace on localhost:N
// for the duration of the command (obs/http_server.h; vsan_top attaches
// here).  Returns false when the port cannot be bound; a zero/absent flag
// leaves the server off.
bool MaybeStartMetricsServer(int64_t port, obs::HttpServer* server) {
  if (port <= 0) return true;
  obs::HttpServerOptions options;
  options.port = static_cast<int>(port);
  if (!server->Start(options)) {
    std::cerr << "error: cannot bind --metrics-port " << port
              << " (built with -DVSAN_OBS=OFF, or port in use)\n";
    return false;
  }
  std::cout << "metrics on http://127.0.0.1:" << server->port()
            << "/metrics\n";
  return true;
}

std::vector<int32_t> ParseHistory(const std::string& csv) {
  std::vector<int32_t> items;
  std::string token;
  for (char c : csv + ",") {
    if (c == ',') {
      if (!token.empty()) items.push_back(std::atoi(token.c_str()));
      token.clear();
    } else {
      token += c;
    }
  }
  return items;
}

int Train(const FlagParser& flags) {
  const DatasetFlags data_flags = ReadDatasetFlags(flags);
  std::unique_ptr<SequentialRecommender> model = MakeModel(flags);
  TrainOptions train_opts;
  train_opts.epochs = static_cast<int32_t>(flags.GetInt("epochs", 20));
  train_opts.batch_size = flags.GetInt("batch", 64);
  train_opts.learning_rate = static_cast<float>(flags.GetDouble("lr", 1e-3));
  train_opts.seed = data_flags.split.seed + 101;
  // Crash safety: periodic full checkpoints and resume (see nn/checkpoint.h).
  train_opts.checkpoint_dir = flags.GetString("checkpoint_dir");
  train_opts.checkpoint_every_n_epochs =
      static_cast<int32_t>(flags.GetInt("checkpoint_every", 1));
  train_opts.resume = flags.GetBool("resume", false);
  const std::string on_divergence = flags.GetString("on_divergence", "skip");
  const std::string telemetry_out = flags.GetString("telemetry_out");
  const int64_t metrics_port = flags.GetInt("metrics-port", 0);
  const std::string trace_out = flags.GetString("trace_out");
  const std::string profile_out = flags.GetString("profile_out");
  const std::string save_path = flags.GetString("save");
  if (HasUnknownFlags(flags)) return Usage();

  if (model == nullptr) {
    std::cerr << "error: unknown --model\n";
    return Usage();
  }
  if (on_divergence == "abort") {
    train_opts.divergence_policy = DivergencePolicy::kAbort;
  } else if (on_divergence == "rollback") {
    train_opts.divergence_policy =
        DivergencePolicy::kRollbackToLastCheckpoint;
  } else if (on_divergence == "skip") {
    train_opts.divergence_policy = DivergencePolicy::kSkipBatch;
  } else {
    std::cerr << "error: --on_divergence must be skip|abort|rollback\n";
    return Usage();
  }
  auto* vsan_model = dynamic_cast<core::Vsan*>(model.get());
  if (!save_path.empty() && vsan_model == nullptr) {
    std::cerr << "error: --save currently supports --model=vsan only\n";
    return 1;
  }

  Result<data::SequenceDataset> dataset = LoadDataset(data_flags);
  if (!dataset.ok()) {
    std::cerr << "error: " << dataset.status().ToString() << "\n";
    return 1;
  }
  std::cout << dataset.value().Summary("dataset") << "\n";
  const data::StrongSplit split =
      data::MakeStrongSplit(dataset.value(), data_flags.split);

  train_opts.epoch_callback = [](const EpochStats& stats) {
    std::cout << "epoch " << stats.epoch << " loss "
              << FormatDouble(stats.loss, 4) << " ("
              << FormatDouble(stats.wall_ms, 1) << " ms, " << stats.batches
              << " batches)\n";
  };

  // Per-epoch JSONL telemetry (loss decomposition, grad norm, timings).
  std::unique_ptr<obs::TelemetryRecorder> telemetry;
  if (!telemetry_out.empty()) {
    telemetry = std::make_unique<obs::TelemetryRecorder>(telemetry_out);
    if (!telemetry->ok()) {
      std::cerr << "error: cannot open --telemetry_out " << telemetry_out
                << "\n";
      return 1;
    }
    train_opts.telemetry = telemetry.get();
  }

  obs::HttpServer metrics_server;
  if (!MaybeStartMetricsServer(metrics_port, &metrics_server)) return 1;

  // Chrome-trace span capture around training (open in Perfetto).
  if (!trace_out.empty()) obs::Tracer::Global().StartSession({});

  // Sampling CPU profiler around training (obs/profiler.h); the folded
  // stacks feed flamegraph.pl / speedscope directly.
  if (!profile_out.empty() && !obs::SamplingProfiler::Global().Start()) {
    std::cerr << "error: cannot start profiler for --profile_out "
              << "(built with -DVSAN_OBS=OFF?)\n";
    return 1;
  }

  model->Fit(split.train, train_opts);

  if (!profile_out.empty()) {
    const obs::ProfileStats stats = obs::SamplingProfiler::Global().Stop();
    if (!obs::SamplingProfiler::Global().WriteFolded(profile_out)) {
      std::cerr << "error: cannot write --profile_out " << profile_out << "\n";
      return 1;
    }
    std::cout << "wrote " << stats.samples << " profile samples to "
              << profile_out << " ("
              << FormatDouble(100.0 * stats.any_symbolized_fraction, 1)
              << "% symbolized)\n";
  }

  if (!trace_out.empty()) {
    obs::Tracer::Global().StopSession();
    if (!obs::ExportChromeTrace(trace_out)) {
      std::cerr << "error: cannot write --trace_out " << trace_out << "\n";
      return 1;
    }
    std::cout << "wrote trace to " << trace_out << "\n";
  }

  const eval::EvalResult val =
      eval::EvaluateRanking(*model, split.validation, {});
  const eval::EvalResult test = eval::EvaluateRanking(*model, split.test, {});
  std::cout << model->name() << " validation: " << val.ToString() << "\n";
  std::cout << model->name() << " test:       " << test.ToString() << "\n";

  if (!save_path.empty()) {
    const Status s = vsan_model->Save(save_path);
    if (!s.ok()) {
      std::cerr << "error: " << s.ToString() << "\n";
      return 1;
    }
    std::cout << "saved checkpoint to " << save_path << "\n";
  }
  return 0;
}

int Evaluate(const FlagParser& flags) {
  const std::string load = flags.GetString("load");
  const DatasetFlags data_flags = ReadDatasetFlags(flags);
  // Retrieval backend for the ranking pass (eval/retrieval.h): "exact" is
  // the full-scoring oracle; "quantized" / "ivf" trade exactness for speed
  // and fall back to exact when the model exposes no factorized head.
  eval::EvalOptions eval_opts;
  const std::string backend = flags.GetString("retrieval", "exact");
  eval_opts.retrieval.clusters =
      static_cast<int32_t>(flags.GetInt("clusters", 0));
  eval_opts.retrieval.nprobe = static_cast<int32_t>(flags.GetInt("nprobe", 8));
  const int64_t metrics_port = flags.GetInt("metrics-port", 0);
  if (HasUnknownFlags(flags)) return Usage();
  if (!eval::ParseRetrievalBackend(backend, &eval_opts.retrieval.backend)) {
    std::cerr << "error: --retrieval must be exact|quantized|ivf\n";
    return Usage();
  }

  auto loaded = core::Vsan::Load(load);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status().ToString() << "\n";
    return 1;
  }
  Result<data::SequenceDataset> dataset = LoadDataset(data_flags);
  if (!dataset.ok()) {
    std::cerr << "error: " << dataset.status().ToString() << "\n";
    return 1;
  }
  if (dataset.value().num_items() > loaded.value()->num_items()) {
    std::cerr << "error: dataset has " << dataset.value().num_items()
              << " items but the checkpoint was trained on "
              << loaded.value()->num_items() << "\n";
    return 1;
  }
  const data::StrongSplit split =
      data::MakeStrongSplit(dataset.value(), data_flags.split);
  obs::HttpServer metrics_server;
  if (!MaybeStartMetricsServer(metrics_port, &metrics_server)) return 1;
  const eval::EvalResult r =
      eval::EvaluateRanking(*loaded.value(), split.test, eval_opts);
  std::cout << loaded.value()->name() << " test: " << r.ToString() << "\n";
  return 0;
}

int Recommend(const FlagParser& flags) {
  const std::string load = flags.GetString("load");
  const std::vector<int32_t> history =
      ParseHistory(flags.GetString("history"));
  const int32_t topn = static_cast<int32_t>(flags.GetInt("topn", 10));
  if (HasUnknownFlags(flags)) return Usage();
  if (history.empty()) {
    std::cerr << "error: --history=1,2,3 required\n";
    return Usage();
  }
  auto loaded = core::Vsan::Load(load);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status().ToString() << "\n";
    return 1;
  }
  const std::vector<float> scores = loaded.value()->Score(history);
  std::vector<bool> excluded(scores.size(), false);
  excluded[data::kPaddingItem] = true;
  for (int32_t item : history) {
    if (item >= 0 && item < static_cast<int32_t>(excluded.size())) {
      excluded[item] = true;
    }
  }
  for (int32_t item : eval::TopNIndices(scores, excluded, topn)) {
    std::cout << item << "\t" << FormatDouble(scores[item], 4) << "\n";
  }
  return 0;
}

int Inspect(const FlagParser& flags) {
  const std::string load = flags.GetString("load");
  const std::vector<int32_t> history =
      ParseHistory(flags.GetString("history"));
  if (HasUnknownFlags(flags)) return Usage();
  if (history.empty()) {
    std::cerr << "error: --history=1,2,3 required\n";
    return Usage();
  }
  auto loaded = core::Vsan::Load(load);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status().ToString() << "\n";
    return 1;
  }
  const core::PosteriorStats stats =
      loaded.value()->InspectPosterior(history);
  std::cout << "mean sigma " << FormatDouble(stats.MeanSigma(), 4) << "\n";
  std::cout << "dim\tmu\tsigma\n";
  for (size_t i = 0; i < stats.mu.size(); ++i) {
    std::cout << i << "\t" << FormatDouble(stats.mu[i], 4) << "\t"
              << FormatDouble(stats.sigma[i], 4) << "\n";
  }
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string command = flags.positional()[0];
  if (command == "train") return Train(flags);
  if (command == "evaluate") return Evaluate(flags);
  if (command == "recommend") return Recommend(flags);
  if (command == "inspect") return Inspect(flags);
  return Usage();
}

}  // namespace
}  // namespace vsan

int main(int argc, char** argv) { return vsan::Main(argc, argv); }
