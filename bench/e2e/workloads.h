#ifndef VSAN_BENCH_E2E_WORKLOADS_H_
#define VSAN_BENCH_E2E_WORKLOADS_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/vsan.h"
#include "data/split.h"
#include "util/rng.h"

// The four benchmark workloads: their inputs (synthetic corpus, strong
// split, VSAN shape) and the serving request stream, all derived from the
// run's --seed.  See README.md for why each workload exists.

namespace vsan {
namespace e2e {

struct WorkloadSpec {
  std::string name;
  bool serve = false;     // serve_* (HTTP against vsan_serve) vs train_eval
  bool ml1m = false;      // ML-1M-like corpus (else Beauty-like)
  int64_t max_len = 10;   // VSAN n
  int32_t test_users = 300;     // strong-split held-out users
  int32_t history_cap = 20;     // longest history a request carries
  double repeat_share = 0.0;    // share of requests replaying a history
  bool reloads = false;         // POST /reload during the nominal phase
};

// Null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

// Mini-batch size and embedding width of every Fit the benchmark runs.
constexpr int64_t kBatchSize = 64;
constexpr int64_t kDim = 64;

// The nominal arrival rate of every serve workload, in requests per second.
constexpr double kNominalRate = 250.0;

struct Inputs {
  data::SequenceDataset corpus;  // every user, full catalog, scale 1.0
  data::StrongSplit split;
};

// Corpus and strong split for `spec`, both seeded from `seed`.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

// The first `users` training users of `split` (catalog size preserved).
data::SequenceDataset TrainSubset(const data::StrongSplit& split,
                                  int64_t users);

core::VsanConfig ModelConfig(const WorkloadSpec& spec);
TrainOptions FitOptions(uint64_t seed);

// One POST the load generator may send.
struct Request {
  int64_t user = 0;
  std::vector<int32_t> history;
  int32_t k = 10;
  bool reload = false;   // POST /reload with an empty body
  bool sampled = false;  // response is checked against the offline oracle
  std::string body;
};

// Deterministic request stream for a serve workload: users are drawn by
// Zipf(1.2) popularity over a seed-permuted user order; each request either
// replays the user's current history (probability repeat_share) or extends
// it by one uniformly drawn item.  One request in 20, drawn from a separate
// stream, is marked for the oracle check.  Every value depends only on the
// seed and the call count.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, const data::SequenceDataset& corpus,
                uint64_t seed);

  Request Next();
  // Inter-arrival gap of a unit-rate Poisson process (Exp(1)); a phase at
  // rate r scales these by 1/r.
  double NextGap() { return -std::log(1.0 - arrival_rng_.Uniform()); }

 private:
  const WorkloadSpec spec_;
  const int32_t num_items_;
  std::vector<std::vector<int32_t>> histories_;
  std::vector<int32_t> user_order_;
  std::vector<double> zipf_cdf_;
  Rng rng_;
  Rng arrival_rng_;
  Rng sample_rng_;
};

// A served /recommend response kept for the correctness check.
struct OracleCase {
  std::vector<int32_t> history;
  int32_t k = 10;
  std::string response;
};

// Recomputes every case offline — ScoreInto, drop the history's items,
// eval::TopNIndices — and counts responses whose item ids or fp32 scores
// differ in any bit (a response that does not parse counts too).
int64_t CountOracleMismatches(const SequentialRecommender& model,
                              const std::vector<OracleCase>& cases);

}  // namespace e2e
}  // namespace vsan

#endif  // VSAN_BENCH_E2E_WORKLOADS_H_
