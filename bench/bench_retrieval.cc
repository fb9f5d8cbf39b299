// Recall-vs-speedup curves for the fast-retrieval backends (run via
// tools/run_bench.sh --retrieval, which lands the JSON in
// BENCH_retrieval.json).
//
// Three item tables, each named by the records' "table" field:
//   * uniform_mips     — an EmbeddingMips catalog (default 10^6 items,
//                        d = 64) of uniform-random vectors with no cluster
//                        structure, queried by 20 synthetic users: the
//                        production-scale stress case.
//   * vsan_ml1m_like   — the item table of VSAN (d = 64) trained 3 epochs
//                        on the ML-1M-like preset (3,516 items).
//   * vsan_beauty_like — the same for the Beauty-like preset (12,069
//                        items), trained 10 epochs: fewer leave the top-10
//                        close to the popularity (bias) ranking, which any
//                        backend finds at its narrowest setting.
// The trained tables are queried by 500 held-out users' encoded fold-ins.
// Learned item geometry is clustered where uniform vectors are not, which
// is what decides whether IVF earns its keep.
//
// For every table the harness measures single-thread per-query latency and
// recall@10 against the exact head scan (FactorizedHead::ScoreQueries +
// TopNIndices, the evaluator's scoring path minus the encoder), which is
// both the speed baseline and the recall oracle:
//   * exact      — the head scan itself; recall 1.0 by definition.
//   * quantized  — int8 scan + streaming top-k.
//   * ivf        — coarse quantizer at several probe widths, tracing the
//                  recall/speed frontier; nprobe == clusters is the
//                  oracle-equivalent end of the curve.
// distinct_top10_items counts the distinct items across all queries' exact
// top-10s (10 would mean every user gets the same, bias-only list).
//
// Output: a JSON array on stdout, one record per configuration.

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/vsan.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/retrieval.h"
#include "models/embedding_mips.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace vsan {
namespace {

struct IvfSweep {
  int32_t clusters = 0;
  int32_t kmeans_iters = 5;
  std::vector<int32_t> nprobes;
};

double Recall10(const std::vector<eval::ScoredItem>& got,
                const std::vector<int32_t>& want) {
  int hits = 0;
  for (const auto& g : got) {
    for (int32_t w : want) {
      if (g.index == w) {
        ++hits;
        break;
      }
    }
  }
  return want.empty() ? 1.0 : static_cast<double>(hits) / want.size();
}

// Sweeps exact / quantized / IVF over one item table, single-thread,
// printing one JSON record per configuration (`first` tracks the comma).
void Sweep(const std::string& table, const FactorizedHead& head,
           const std::vector<std::vector<float>>& queries,
           const IvfSweep& ivf, bool* first) {
  ThreadPool::SetGlobalNumThreads(1);
  const int64_t items = head.num_rows - 1;
  const int num_queries = static_cast<int>(queries.size());

  std::fprintf(stderr, "[%s] exact head scan over %d queries...\n",
               table.c_str(), num_queries);
  std::vector<std::vector<int32_t>> exact_top10;
  double exact_us = 0.0;
  {
    std::vector<float> scores(static_cast<size_t>(head.num_rows));
    std::vector<bool> excluded;
    Stopwatch timer;
    for (const auto& query : queries) {
      head.ScoreQueries(query.data(), /*count=*/1, scores.data());
      excluded.assign(scores.size(), false);
      excluded[0] = true;
      exact_top10.push_back(eval::TopNIndices(scores, excluded, 10));
    }
    exact_us = timer.ElapsedNanos() * 1e-3 / num_queries;
  }
  std::set<int32_t> distinct;
  for (const auto& top : exact_top10) distinct.insert(top.begin(), top.end());
  const int64_t distinct_top10 = static_cast<int64_t>(distinct.size());
  const auto record = [&](const char* backend, int32_t clusters,
                          int32_t nprobe, double build_ms, double query_us,
                          double recall) {
    std::printf("%s  {\"table\": \"%s\", \"backend\": \"%s\", "
                "\"items\": %lld, \"d\": %lld, \"clusters\": %d, "
                "\"nprobe\": %d, \"build_ms\": %.1f, "
                "\"mean_query_us\": %.1f, \"speedup_vs_exact\": %.2f, "
                "\"recall_at_10\": %.4f, \"distinct_top10_items\": %lld}",
                *first ? "" : ",\n", table.c_str(), backend,
                static_cast<long long>(items),
                static_cast<long long>(head.dim), clusters, nprobe, build_ms,
                query_us, exact_us / query_us, recall,
                static_cast<long long>(distinct_top10));
    *first = false;
  };
  record("exact", 0, 0, 0.0, exact_us, 1.0);

  const auto measure = [&](const eval::RetrievalIndex& index,
                           double* query_us) {
    eval::RetrievalIndex::Scratch scratch;
    std::vector<eval::ScoredItem> got;
    double recall_sum = 0.0;
    Stopwatch timer;
    for (int q = 0; q < num_queries; ++q) {
      index.Search(queries[q].data(), 10, &scratch, &got);
      recall_sum += Recall10(got, exact_top10[q]);
    }
    *query_us = timer.ElapsedNanos() * 1e-3 / num_queries;
    return recall_sum / num_queries;
  };

  {
    std::fprintf(stderr, "[%s] quantized backend...\n", table.c_str());
    eval::RetrievalOptions opts;
    opts.backend = eval::RetrievalBackend::kQuantized;
    Stopwatch build_timer;
    const eval::RetrievalIndex index = eval::RetrievalIndex::Build(head, opts);
    const double build_ms = build_timer.ElapsedNanos() * 1e-6;
    double query_us = 0.0;
    const double recall = measure(index, &query_us);
    record("quantized", 0, 0, build_ms, query_us, recall);
  }

  eval::RetrievalOptions opts;
  opts.backend = eval::RetrievalBackend::kIvf;
  opts.clusters = ivf.clusters;
  opts.kmeans_iters = ivf.kmeans_iters;
  std::fprintf(stderr, "[%s] ivf build (%d clusters)...\n", table.c_str(),
               opts.clusters);
  Stopwatch build_timer;
  eval::RetrievalIndex index = eval::RetrievalIndex::Build(head, opts);
  const double build_ms = build_timer.ElapsedNanos() * 1e-6;
  for (int32_t nprobe : ivf.nprobes) {
    index.set_nprobe(nprobe);
    double query_us = 0.0;
    const double recall = measure(index, &query_us);
    record("ivf", opts.clusters, nprobe, build_ms, query_us, recall);
  }
}

void SweepUniform(int64_t num_items, int64_t d, int num_queries,
                  bool* first) {
  std::fprintf(stderr, "building catalog: %lld items, d=%lld\n",
               static_cast<long long>(num_items), static_cast<long long>(d));
  models::EmbeddingMips::Config config;
  config.d = d;
  models::EmbeddingMips model(config);
  model.FitCatalog(static_cast<int32_t>(num_items));
  FactorizedHead head;
  model.GetFactorizedHead(&head);

  std::vector<std::vector<float>> queries;
  Rng rng(53);
  for (int q = 0; q < num_queries; ++q) {
    std::vector<int32_t> fold_in;
    for (int i = 0; i < 8; ++i) {
      fold_in.push_back(static_cast<int32_t>(rng.UniformInt(1, num_items)));
    }
    queries.emplace_back();
    model.EncodeQueryInto(fold_in, &queries.back());
  }
  Sweep("uniform_mips", head, queries,
        {.clusters = 256, .kmeans_iters = 2, .nprobes = {1, 4, 16, 64, 256}},
        first);
}

// Trains VSAN (d = 64, all pool threads) on a full-scale preset and sweeps
// its item table with 500 held-out users' encoded fold-ins.
void SweepTrainedVsan(const std::string& table,
                      const data::SyntheticConfig& corpus, int64_t max_len,
                      int32_t epochs, const IvfSweep& ivf, bool* first) {
  ThreadPool::SetGlobalNumThreads(ThreadPool::DefaultNumThreads());
  const data::SequenceDataset dataset = data::GenerateSynthetic(corpus);
  data::SplitOptions split_opts;
  split_opts.num_test_users = 500;
  split_opts.seed = 7;
  const data::StrongSplit split = data::MakeStrongSplit(dataset, split_opts);
  core::VsanConfig config;
  config.max_len = max_len;
  config.d = 64;
  core::Vsan model(config);
  TrainOptions train;
  train.epochs = epochs;
  train.batch_size = 64;
  train.seed = 108;
  std::fprintf(stderr, "[%s] training vsan: %d items, %d epochs...\n",
               table.c_str(), dataset.num_items(), epochs);
  model.Fit(split.train, train);

  std::vector<std::vector<float>> queries;
  for (const data::HeldOutUser& user : split.test) {
    queries.emplace_back();
    model.EncodeQueryInto(user.fold_in, &queries.back());
  }
  FactorizedHead head;
  model.GetFactorizedHead(&head);
  Sweep(table, head, queries, ivf, first);
}

int Run(int64_t num_items, int64_t d, int num_queries) {
  std::printf("[\n");
  bool first = true;
  SweepUniform(num_items, d, num_queries, &first);
  SweepTrainedVsan("vsan_ml1m_like", data::ML1MLikeConfig(1.0),
                   /*max_len=*/50, /*epochs=*/3,
                   {.clusters = 64, .nprobes = {1, 2, 4, 8, 16, 32, 64}},
                   &first);
  SweepTrainedVsan("vsan_beauty_like", data::BeautyLikeConfig(1.0),
                   /*max_len=*/10, /*epochs=*/10,
                   {.clusters = 256, .nprobes = {1, 4, 8, 16, 32, 64, 256}},
                   &first);
  std::printf("\n]\n");
  return 0;
}

}  // namespace
}  // namespace vsan

int main(int argc, char** argv) {
  int64_t items = 1'000'000;
  int64_t d = 64;
  int queries = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--items=", 8) == 0) {
      items = std::atoll(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--d=", 4) == 0) {
      d = std::atoll(argv[i] + 4);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      queries = std::atoi(argv[i] + 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--items=N] [--d=N] [--queries=N]\n"
                   "  (sizes the uniform_mips table; the trained VSAN "
                   "tables are fixed)\n",
                   argv[0]);
      return 2;
    }
  }
  return vsan::Run(items, d, queries);
}
