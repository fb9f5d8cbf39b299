// Online serving daemon: loads a VSAN checkpoint, optionally builds a
// quantized/IVF retrieval index, and serves per-user top-k recommendations
// over HTTP with dynamic request batching and an encoded-state cache
// (src/serve/).
//
//   vsan_serve --checkpoint=m.ckpt --port=8080 --retrieval=quantized
//
// Routes (see serve/daemon.h): POST /recommend, POST /reload (hot checkpoint
// swap), GET /healthz (503 until the checkpoint and index are loaded),
// GET /metrics (Prometheus, including the serve.* instruments vsan_top
// renders).
//
// Once serving, the process prints a machine-parsable line
//
//   READY port=<port> model=vsan items=<n>
//
// so scripts (tools/run_bench.sh --serve) can wait for readiness and
// discover an ephemeral port.  SIGTERM/SIGINT trigger a graceful shutdown:
// the HTTP server stops accepting, in-flight requests complete, the batch
// queue drains, then the process exits 0.  SIGHUP hot-reloads the current
// checkpoint path in place (same as POST /reload with no body): the new
// generation is built while the old one serves, then swapped in with zero
// downtime; a corrupt checkpoint is rejected and the old model keeps
// serving.

#include <atomic>
#include <csignal>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/vsan.h"
#include "eval/retrieval.h"
#include "obs/trace.h"
#include "serve/daemon.h"
#include "util/flags.h"

#if defined(_WIN32)
#error "vsan_serve is POSIX-only (signalfd-free sigwait shutdown)"
#endif
#include <unistd.h>

namespace vsan {
namespace {

int Usage() {
  std::cerr <<
      "usage: vsan_serve --checkpoint=m.ckpt [flags]\n"
      "  --port=0               listen port (0 = ephemeral, see READY line)\n"
      "  --threads=4            HTTP handler threads\n"
      "  --max-batch=32         dynamic batching: flush at this many requests\n"
      "  --max-wait-us=2000     ... or when the oldest waited this long\n"
      "  --max-queue=256        reject (HTTP 429) beyond this backlog\n"
      "  --cache-mb=64          encoded-state cache budget (0 disables)\n"
      "  --retrieval=exact      exact|quantized|ivf top-k backend\n"
      "  --clusters=0 --nprobe=8  ivf parameters (eval/retrieval.h)\n"
      "  --k-max=1000           largest accepted per-request k\n"
      "  --max-history=1024     reject (HTTP 400) histories longer than this\n"
      "  --deadline-us=0        default per-request deadline (0 = none;\n"
      "                         requests may override via deadline_us)\n"
      "  --include-seen         do not filter the user's history from results\n";
  return 2;
}

std::atomic<int> g_signal{0};
std::atomic<bool> g_reload{false};

void OnSignal(int sig) { g_signal.store(sig); }

void OnHup(int) { g_reload.store(true); }

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const std::string checkpoint = flags.GetString("checkpoint");
  if (checkpoint.empty()) return Usage();

#if !VSAN_OBS_ENABLED
  std::cerr << "error: vsan_serve needs the HTTP server; rebuild with "
               "-DVSAN_OBS=ON\n";
  return 1;
#endif

  auto loaded = core::Vsan::Load(checkpoint);
  if (!loaded.ok()) {
    std::cerr << "error: " << loaded.status().ToString() << "\n";
    return 1;
  }
  std::unique_ptr<core::Vsan> model = std::move(loaded).value();

  serve::DaemonOptions options;
  options.port = static_cast<int>(flags.GetInt("port", 0));
  options.handler_threads = static_cast<int>(flags.GetInt("threads", 4));
  options.batcher.max_batch =
      static_cast<int32_t>(flags.GetInt("max-batch", 32));
  options.batcher.max_wait_us = flags.GetInt("max-wait-us", 2000);
  options.batcher.max_queue =
      static_cast<int32_t>(flags.GetInt("max-queue", 256));
  options.cache_bytes = flags.GetInt("cache-mb", 64) << 20;
  options.service.max_k = static_cast<int32_t>(flags.GetInt("k-max", 1000));
  options.service.max_history =
      static_cast<int32_t>(flags.GetInt("max-history", 1024));
  options.service.default_deadline_us = flags.GetInt("deadline-us", 0);
  options.service.exclude_seen = !flags.GetBool("include-seen", false);
  const std::string backend = flags.GetString("retrieval", "exact");
  if (!eval::ParseRetrievalBackend(backend, &options.retrieval.backend)) {
    std::cerr << "error: --retrieval must be exact|quantized|ivf\n";
    return 1;
  }
  options.retrieval.clusters =
      static_cast<int32_t>(flags.GetInt("clusters", 0));
  options.retrieval.nprobe = static_cast<int32_t>(flags.GetInt("nprobe", 8));

  // Hot reload (POST /reload, SIGHUP): load through the same CRC-checked
  // VSANCKP1 path as startup.
  options.checkpoint_path = checkpoint;
  options.loader = [](const std::string& path, serve::LoadedModel* out) {
    auto reloaded = core::Vsan::Load(path);
    if (!reloaded.ok()) return reloaded.status();
    std::unique_ptr<core::Vsan> fresh = std::move(reloaded).value();
    out->num_items = fresh->num_items();
    out->model =
        std::shared_ptr<const SequentialRecommender>(std::move(fresh));
    return Status::Ok();
  };

  const std::vector<std::string> typos = flags.UnqueriedFlags();
  if (!typos.empty()) {
    std::cerr << "error: unknown flag --" << typos.front() << "\n";
    return Usage();
  }

  serve::ServeDaemon daemon(model.get(), model->num_items(), options);
  if (!daemon.StartHttp()) {
    std::cerr << "error: could not bind port " << options.port << "\n";
    return 1;
  }
  daemon.Activate();

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGHUP, OnHup);

  std::cout << "READY port=" << daemon.port() << " model=vsan items="
            << model->num_items() << " retrieval=" << backend << "\n"
            << std::flush;

  while (g_signal.load() == 0) {
    if (g_reload.exchange(false)) {
      int64_t generation = -1;
      const Status status = daemon.Reload("", &generation);
      if (status.ok()) {
        std::cerr << "SIGHUP: reloaded, generation " << generation << "\n";
      } else {
        std::cerr << "SIGHUP: reload failed (" << status.ToString()
                  << "), old generation keeps serving\n";
      }
    }
    usleep(50 * 1000);
  }
  std::cerr << "signal " << g_signal.load() << ": draining\n";
  daemon.Shutdown();

  const serve::CacheStats cache = daemon.cache()->stats();
  const int64_t lookups = cache.hits + cache.misses;
  std::cerr << "served: cache hits=" << cache.hits << "/" << lookups
            << " evictions=" << cache.evictions << "\n";
  return 0;
}

}  // namespace
}  // namespace vsan

int main(int argc, char** argv) { return vsan::Main(argc, argv); }
