#ifndef VSAN_BENCH_E2E_LOADGEN_H_
#define VSAN_BENCH_E2E_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workloads.h"

// Open-loop load generation.  A phase's schedule (arrival offsets and
// request bodies) is fixed before the phase starts; a fixed set of sender
// threads, each holding at most one connection, takes requests in due
// order and sleeps until each is due.  A request that finds every sender
// busy waits, and that wait is part of its latency: latency runs from the
// due time, not from the send.  Lateness (send - due) is the generator's
// own backlog and is reported separately.

namespace vsan {
namespace e2e {

// Sends one request; returns the HTTP status (0 = transport failure) and
// fills `*response`.  Called concurrently from every sender thread.
using SendFn = std::function<int(const Request& request, std::string* response)>;

struct Schedule {
  std::vector<Request> requests;
  std::vector<double> offsets_s;  // due time relative to the phase start
};

// Draws the requests of a `seconds`-long phase at `rate` per second from
// `stream`; a POST /reload is inserted at each offset in `reloads_at_s`.
Schedule MakeSchedule(RequestStream* stream, double rate, double seconds,
                      const std::vector<double>& reloads_at_s = {});

// `count` requests all due at the phase start: run with an abandon
// lateness of T ms, the senders work back to back for T ms (closed loop).
Schedule MakeBurst(RequestStream* stream, int64_t count);

struct ShotResult {
  bool sent = false;  // false: the phase was abandoned before this was due
  int status = 0;
  double latency_ms = 0.0;   // done - due
  double lateness_ms = 0.0;  // sent - due
  double service_ms = 0.0;   // done - sent
  std::string response;
};

// Appends the oracle-sampled requests of a phase that were answered with
// a response body (in-process sends return none) to `cases`.
void KeepOracleCases(const Schedule& schedule,
                     const std::vector<ShotResult>& shots,
                     std::vector<OracleCase>* cases);

// Service-level objective a phase must meet: p99 latency, no failed
// requests, and no growing backlog.  The backlog test compares the mean
// lateness of a phase's last and first quarters; below 5 ms that
// difference is ordinary queueing noise in a two-second probe near
// saturation, while a rate even 1% above capacity grows it by more.
struct Slo {
  double p99_ms = 25.0;
  double max_lateness_growth_ms = 5.0;
};

struct PhaseResult {
  double rate = 0.0;
  double elapsed_s = 0.0;  // phase start to the last response
  int64_t attempted = 0;  // /recommend requests sent
  int64_t failed = 0;     // sent but not answered 200
  int64_t unsent = 0;     // dropped when the phase was abandoned
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double lateness_p99_ms = 0.0;
  // Mean lateness of the last quarter of the phase minus the first.
  double lateness_growth_ms = 0.0;
  std::vector<double> reload_ms;  // send -> response of each POST /reload
  int64_t reload_failed = 0;
  bool meets_slo = false;
};

// Runs `schedule` starting a few milliseconds from now.  A phase whose
// lateness exceeds `abandon_lateness_ms` is overloaded beyond doubt: the
// remaining requests are dropped (unsent) so an overloaded probe cannot
// run long.  `results` (optional) receives one entry per request.
PhaseResult RunPhase(const Schedule& schedule, double rate, const SendFn& send,
                     int threads, const Slo& slo,
                     std::vector<ShotResult>* results = nullptr,
                     double abandon_lateness_ms = 200.0);

struct RateSearch {
  double max_rate = 0.0;
  std::vector<PhaseResult> probes;
};

// Highest rate meeting the SLO, by `bisections` probes between `lo_rate`
// (assumed to meet it) and `hi_rate` (assumed to miss it).  The answer is
// interpolated inside the final bracket on log p99, so it is not quantized
// to the probe grid.
RateSearch SearchMaxRate(double lo_rate, double hi_rate, const Slo& slo,
                         const std::function<PhaseResult(double)>& probe,
                         int bisections);

// Nearest-rank-interpolated percentile of `values` (sorted in place).
double Percentile(std::vector<double>* values, double p);
double Median(std::vector<double> values);

}  // namespace e2e
}  // namespace vsan

#endif  // VSAN_BENCH_E2E_LOADGEN_H_
