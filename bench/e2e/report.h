#ifndef VSAN_BENCH_E2E_REPORT_H_
#define VSAN_BENCH_E2E_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "host.h"
#include "workloads.h"

// What one benchmark run hands back to main(): the metrics BENCHMARK.json
// names (end-to-end in an untraced run, per-layer in a traced one), the
// informational values printed beside them, and the correctness verdict.

namespace vsan {
namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;  // the JSON result's "metrics"
  std::vector<Metric> info;     // printed and saved, never gated
  std::string details;          // extra JSON members for the saved record

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Info(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
};

struct RunContext {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 20.0;
  HostInfo host;
  int load_threads = 4;         // sender threads == connections
  std::string serve_binary;     // path of vsan_serve
  std::string work_prefix;      // <out dir>/<workload>.seed<N>.trace<T>
};

// Runs of each kind; layers.cc holds the traced one.
Report RunServe(const RunContext& ctx);
Report RunTrainEval(const RunContext& ctx);
Report RunTraced(const RunContext& ctx);

}  // namespace e2e
}  // namespace vsan

#endif  // VSAN_BENCH_E2E_REPORT_H_
