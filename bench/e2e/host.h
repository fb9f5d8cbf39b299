#ifndef VSAN_BENCH_E2E_HOST_H_
#define VSAN_BENCH_E2E_HOST_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

// Host fingerprint, process memory readings, and the child-process handle
// e2e_driver uses to run the real vsan_serve binary.

namespace vsan {
namespace e2e {

struct HostInfo {
  int nproc = 1;
  std::string cpu_model;
  bool avx512 = false;
  bool avx512_vnni = false;
  bool avx512_bf16 = false;
  std::string build_type;
  bool obs = false;  // VSAN_OBS (span tracing compiled in)

  // One JSON object with every field above.
  std::string ToJson() const;
};

HostInfo ProbeHost();

// VmHWM (peak resident set) of `pid` in MiB (0 = this process); -1 when
// /proc cannot be read.
double PeakRssMb(pid_t pid = 0);

// Host-wide CPU time from the first line of /proc/stat, in clock ticks.
// `steal` is time the hypervisor ran something else while the machine's
// CPUs wanted to run; on a shared host it explains runs that read slow.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

// Median time of a fixed dependent floating-point loop, in milliseconds.
// It runs no library code, so when it moves between runs the host's speed
// moved (frequency, a busy sibling hyperthread), not the code under test.
double ReferenceLoopMs();

// A child process whose stdout is a pipe the parent can read lines from.
// The child gets SIGKILL if its parent dies first, so no daemon outlives
// an aborted benchmark; the destructor terminates and reaps it.
class ChildProcess {
 public:
  ChildProcess() = default;
  ~ChildProcess() { Terminate(); }
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  // Starts `argv[0]` with `argv`, stderr appended to `stderr_path`.
  bool Start(const std::vector<std::string>& argv,
             const std::string& stderr_path);

  // Reads stdout until a line starting with `prefix` arrives; false on EOF
  // or after `timeout_ms`.
  bool WaitForLine(const std::string& prefix, int64_t timeout_ms,
                   std::string* line);

  // SIGTERM, then SIGKILL if the child is still alive after `grace_ms`;
  // always reaps.  Returns the exit status (or -1 when killed/not started).
  int Terminate(int64_t grace_ms = 10000);

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;  // stdout bytes read past the last returned line
};

}  // namespace e2e
}  // namespace vsan

#endif  // VSAN_BENCH_E2E_HOST_H_
