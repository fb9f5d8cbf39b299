#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "data/synthetic.h"
#include "eval/metrics.h"
#include "obs/json.h"

namespace vsan {
namespace e2e {
namespace {

std::string RecommendBody(int64_t user, const std::vector<int32_t>& history,
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

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> all;
    WorkloadSpec fresh;
    fresh.name = "serve_fresh";
    fresh.serve = true;
    all.push_back(fresh);

    WorkloadSpec returning = fresh;
    returning.name = "serve_returning";
    returning.repeat_share = 0.8;
    returning.reloads = true;
    all.push_back(returning);

    WorkloadSpec longhist;
    longhist.name = "serve_longhist";
    longhist.serve = true;
    longhist.ml1m = true;
    longhist.max_len = 50;
    longhist.history_cap = 50;
    all.push_back(longhist);

    WorkloadSpec train;
    train.name = "train_eval";
    train.ml1m = true;
    train.max_len = 50;
    train.test_users = 1500;
    train.history_cap = 50;
    all.push_back(train);
    return all;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  data::SyntheticConfig config = spec.ml1m ? data::ML1MLikeConfig(1.0)
                                           : data::BeautyLikeConfig(1.0);
  config.seed = MixSeed(config.seed, seed);
  Inputs inputs;
  inputs.corpus = data::GenerateSynthetic(config);
  data::SplitOptions split;
  split.num_test_users = spec.test_users;
  split.seed = MixSeed(seed, 1);
  inputs.split = data::MakeStrongSplit(inputs.corpus, split);
  return inputs;
}

data::SequenceDataset TrainSubset(const data::StrongSplit& split,
                                  int64_t users) {
  data::SequenceDataset subset(split.train.num_items());
  const int64_t n = std::min<int64_t>(users, split.train.num_users());
  for (int32_t u = 0; u < n; ++u) subset.AddUser(split.train.sequence(u));
  return subset;
}

core::VsanConfig ModelConfig(const WorkloadSpec& spec) {
  core::VsanConfig config;
  config.max_len = spec.max_len;
  config.d = kDim;
  return config;
}

TrainOptions FitOptions(uint64_t seed) {
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = kBatchSize;
  options.seed = MixSeed(seed, 2);
  return options;
}

RequestStream::RequestStream(const WorkloadSpec& spec,
                             const data::SequenceDataset& corpus,
                             uint64_t seed)
    : spec_(spec),
      num_items_(corpus.num_items()),
      rng_(MixSeed(seed, 3)),
      arrival_rng_(MixSeed(seed, 4)),
      sample_rng_(MixSeed(seed, 5)) {
  const int32_t users = corpus.num_users();
  histories_.resize(static_cast<size_t>(users));
  for (int32_t u = 0; u < users; ++u) {
    std::vector<int32_t>& h = histories_[static_cast<size_t>(u)];
    h = corpus.sequence(u);
    if (static_cast<int32_t>(h.size()) > spec_.history_cap) {
      h.erase(h.begin(), h.end() - spec_.history_cap);
    }
  }
  user_order_.resize(static_cast<size_t>(users));
  std::iota(user_order_.begin(), user_order_.end(), 0);
  rng_.Shuffle(&user_order_);
  zipf_cdf_.resize(static_cast<size_t>(users));
  double total = 0.0;
  for (int32_t r = 0; r < users; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 1.2);
    zipf_cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : zipf_cdf_) c /= total;
}

Request RequestStream::Next() {
  const double u = rng_.Uniform();
  const size_t rank = std::min<size_t>(
      zipf_cdf_.size() - 1,
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
          zipf_cdf_.begin());
  Request request;
  request.user = user_order_[rank];
  std::vector<int32_t>& history = histories_[static_cast<size_t>(request.user)];
  if (!(rng_.Uniform() < spec_.repeat_share)) {
    history.push_back(static_cast<int32_t>(rng_.UniformInt(1, num_items_)));
    if (static_cast<int32_t>(history.size()) > spec_.history_cap) {
      history.erase(history.begin());
    }
  }
  request.history = history;
  request.sampled = sample_rng_.Uniform() < 0.05;
  request.body = RecommendBody(request.user, request.history, request.k);
  return request;
}

int64_t CountOracleMismatches(const SequentialRecommender& model,
                              const std::vector<OracleCase>& cases) {
  std::vector<std::vector<int32_t>> histories;
  histories.reserve(cases.size());
  for (const OracleCase& c : cases) histories.push_back(c.history);
  const std::vector<std::vector<float>> scores = ScoreBatch(model, histories);
  int64_t mismatches = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const OracleCase& c = cases[i];
    std::vector<bool> excluded(scores[i].size(), false);
    for (int32_t item : c.history) excluded[static_cast<size_t>(item)] = true;
    const std::vector<int32_t> expected =
        eval::TopNIndices(scores[i], excluded, c.k);

    obs::JsonValue doc;
    std::string error;
    const obs::JsonValue* items = nullptr;
    if (obs::ParseJson(c.response, &doc, &error) && doc.is_object()) {
      items = doc.Find("items");
    }
    bool same = items != nullptr && items->is_array() &&
                items->array.size() == expected.size();
    for (size_t r = 0; same && r < expected.size(); ++r) {
      const obs::JsonValue& item = items->array[r];
      // %.9g round-trips fp32, so the parsed score narrows back to the
      // exact float the daemon computed.
      const float served = static_cast<float>(item.NumberOr("score", -1e30));
      const float want = scores[i][static_cast<size_t>(expected[r])];
      same = item.NumberOr("item", -1.0) == expected[r] &&
             std::memcmp(&served, &want, sizeof(float)) == 0;
    }
    if (!same) ++mismatches;
  }
  return mismatches;
}

}  // namespace e2e
}  // namespace vsan
