#include "host.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/trace.h"  // VSAN_OBS_ENABLED

#ifndef VSAN_E2E_BUILD_TYPE
#define VSAN_E2E_BUILD_TYPE ""
#endif

namespace vsan {
namespace e2e {
namespace {

bool HasFlag(const std::string& flags, const std::string& flag) {
  std::istringstream in(flags);
  std::string word;
  while (in >> word) {
    if (word == flag) return true;
  }
  return false;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string HostInfo::ToJson() const {
  std::ostringstream out;
  out << "{\"nproc\": " << nproc << ", \"cpu_model\": \""
      << JsonEscape(cpu_model) << "\", \"avx512\": " << (avx512 ? "true" : "false")
      << ", \"avx512_vnni\": " << (avx512_vnni ? "true" : "false")
      << ", \"avx512_bf16\": " << (avx512_bf16 ? "true" : "false")
      << ", \"build_type\": \"" << JsonEscape(build_type)
      << "\", \"vsan_obs\": " << (obs ? "true" : "false") << "}";
  return out.str();
}

HostInfo ProbeHost() {
  HostInfo info;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  info.nproc = online > 0 ? static_cast<int>(online) : 1;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_first_of(" \t"));
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model" && line.rfind("model name", 0) == 0 &&
        info.cpu_model.empty()) {
      info.cpu_model = value;
    } else if (key == "flags") {
      info.avx512 = HasFlag(value, "avx512f");
      info.avx512_vnni = HasFlag(value, "avx512_vnni");
      info.avx512_bf16 = HasFlag(value, "avx512_bf16");
      break;  // the first processor's block is enough
    }
  }
  info.build_type = VSAN_E2E_BUILD_TYPE;
  info.obs = VSAN_OBS_ENABLED != 0;
  return info;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      if (fields >> kib) return kib / 1024.0;
    }
  }
  return -1.0;
}

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes times;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t ticks = 0;
    if (!(stat >> ticks)) break;
    times.total += ticks;
    if (field == 7) times.steal = ticks;
  }
  return times;
}

double ReferenceLoopMs() {
  std::vector<double> ms;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    double x = 1.0;
    for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 1e-9;
    volatile double sink = x;
    (void)sink;
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::nth_element(ms.begin(), ms.begin() + 2, ms.end());
  return ms[2];
}

bool ChildProcess::Start(const std::vector<std::string>& argv,
                         const std::string& stderr_path) {
  if (pid_ > 0 || argv.empty()) return false;
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) return false;
  const int err_fd =
      open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (err_fd < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return false;
  }
  // Everything the child touches is built before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    close(err_fd);
    return false;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);  // the parent died before prctl
    // dup2 clears close-on-exec on the copies only.
    dup2(pipe_fds[1], STDOUT_FILENO);
    dup2(err_fd, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  close(err_fd);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];
  pending_.clear();
  return true;
}

bool ChildProcess::WaitForLine(const std::string& prefix, int64_t timeout_ms,
                               std::string* line) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    size_t newline;
    while ((newline = pending_.find('\n')) != std::string::npos) {
      std::string candidate = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      if (candidate.rfind(prefix, 0) == 0) {
        *line = candidate;
        return true;
      }
    }
    const int64_t left_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                deadline - Clock::now())
                                .count();
    if (left_ms <= 0 || stdout_fd_ < 0) return false;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left_ms));
    if (ready <= 0) continue;  // timeout re-checked above; EINTR retries
    char buf[512];
    const ssize_t n = read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) return false;  // EOF: the child exited
    pending_.append(buf, static_cast<size_t>(n));
  }
}

int ChildProcess::Terminate(int64_t grace_ms) {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  int status = 0;
  pid_t reaped = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  while ((reaped = waitpid(pid_, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (reaped == 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    status = -1;
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = -1;
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

}  // namespace e2e
}  // namespace vsan
