#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

namespace vsan {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double MeanLateness(const std::vector<double>& lateness, size_t begin,
                    size_t end) {
  if (end <= begin) return 0.0;
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) sum += lateness[i];
  return sum / static_cast<double>(end - begin);
}

}  // namespace

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double rank = p / 100.0 * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*values)[lo] * (1.0 - frac) + (*values)[hi] * frac;
}

double Median(std::vector<double> values) { return Percentile(&values, 50.0); }

Schedule MakeSchedule(RequestStream* stream, double rate, double seconds,
                      const std::vector<double>& reloads_at_s) {
  Schedule schedule;
  size_t next_reload = 0;
  double t = stream->NextGap() / rate;
  while (t < seconds) {
    while (next_reload < reloads_at_s.size() && reloads_at_s[next_reload] <= t) {
      Request reload;
      reload.reload = true;
      schedule.requests.push_back(std::move(reload));
      schedule.offsets_s.push_back(reloads_at_s[next_reload++]);
    }
    schedule.requests.push_back(stream->Next());
    schedule.offsets_s.push_back(t);
    t += stream->NextGap() / rate;
  }
  return schedule;
}

Schedule MakeBurst(RequestStream* stream, int64_t count) {
  Schedule schedule;
  for (int64_t i = 0; i < count; ++i) {
    schedule.requests.push_back(stream->Next());
    schedule.offsets_s.push_back(0.0);
  }
  return schedule;
}

void KeepOracleCases(const Schedule& schedule,
                     const std::vector<ShotResult>& shots,
                     std::vector<OracleCase>* cases) {
  for (size_t i = 0; i < shots.size(); ++i) {
    const Request& request = schedule.requests[i];
    if (request.sampled && shots[i].status == 200 && !shots[i].response.empty()) {
      cases->push_back({request.history, request.k, shots[i].response});
    }
  }
}

PhaseResult RunPhase(const Schedule& schedule, double rate, const SendFn& send,
                     int threads, const Slo& slo,
                     std::vector<ShotResult>* results,
                     double abandon_lateness_ms) {
  const size_t n = schedule.requests.size();
  std::vector<ShotResult> local;
  std::vector<ShotResult>& out = results != nullptr ? *results : local;
  out.assign(n, ShotResult{});

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::atomic<size_t> next{0};
  std::atomic<bool> abandoned{false};
  // Each index is claimed by exactly one sender and written only by it;
  // the results are read after every sender has joined.
  auto sender = [&] {
    std::string response;
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= n) return;
      if (abandoned.load(std::memory_order_relaxed)) continue;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule.offsets_s[i]));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      const double lateness = Ms(sent - due);
      if (lateness > abandon_lateness_ms) {
        abandoned.store(true, std::memory_order_relaxed);
        continue;
      }
      response.clear();
      const Request& request = schedule.requests[i];
      const int status = send(request, &response);
      const Clock::time_point done = Clock::now();
      ShotResult& shot = out[i];
      shot.sent = true;
      shot.status = status;
      shot.latency_ms = Ms(done - due);
      shot.lateness_ms = lateness;
      shot.service_ms = Ms(done - sent);
      if (request.sampled) shot.response = response;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(sender);
  sender();
  for (std::thread& t : pool) t.join();

  PhaseResult phase;
  phase.rate = rate;
  phase.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::vector<double> latency;
  std::vector<double> lateness;  // in due order
  for (size_t i = 0; i < n; ++i) {
    const ShotResult& shot = out[i];
    const Request& request = schedule.requests[i];
    if (request.reload) {
      if (!shot.sent) continue;
      phase.reload_ms.push_back(shot.service_ms);
      if (shot.status != 200) ++phase.reload_failed;
      continue;
    }
    if (!shot.sent) {
      ++phase.unsent;
      continue;
    }
    ++phase.attempted;
    if (shot.status != 200) ++phase.failed;
    latency.push_back(shot.latency_ms);
    lateness.push_back(shot.lateness_ms);
  }
  const size_t quarter = lateness.size() / 4;
  phase.lateness_growth_ms =
      MeanLateness(lateness, lateness.size() - quarter, lateness.size()) -
      MeanLateness(lateness, 0, quarter);
  phase.lateness_p99_ms = Percentile(&lateness, 99.0);
  phase.p50_ms = Percentile(&latency, 50.0);
  phase.p90_ms = Percentile(&latency, 90.0);
  phase.p99_ms = Percentile(&latency, 99.0);
  phase.meets_slo = phase.attempted > 0 && phase.failed == 0 &&
                    phase.unsent == 0 && phase.reload_failed == 0 &&
                    phase.p99_ms <= slo.p99_ms &&
                    phase.lateness_growth_ms <= slo.max_lateness_growth_ms;
  return phase;
}

RateSearch SearchMaxRate(double lo_rate, double hi_rate, const Slo& slo,
                         const std::function<PhaseResult(double)>& probe,
                         int bisections) {
  RateSearch search;
  std::optional<PhaseResult> lo;
  std::optional<PhaseResult> hi;
  for (int b = 0; b < bisections; ++b) {
    const double rate = 0.5 * (lo_rate + hi_rate);
    search.probes.push_back(probe(rate));
    const PhaseResult& result = search.probes.back();
    if (result.meets_slo) {
      lo = result;
      lo_rate = rate;
    } else {
      hi = result;
      hi_rate = rate;
    }
  }
  double frac = 0.0;
  if (lo && hi && hi->p99_ms > slo.p99_ms && lo->p99_ms > 0.0) {
    frac = (std::log(slo.p99_ms) - std::log(lo->p99_ms)) /
           (std::log(hi->p99_ms) - std::log(lo->p99_ms));
    frac = std::clamp(frac, 0.0, 1.0);
  }
  search.max_rate = lo_rate + frac * (hi_rate - lo_rate);
  return search;
}

}  // namespace e2e
}  // namespace vsan
