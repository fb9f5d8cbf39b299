#ifndef VSAN_UTIL_LOGGING_H_
#define VSAN_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

// Lightweight logging and assertion macros in the spirit of glog.
//
// Library code does not use exceptions; programmer errors (shape mismatches,
// invalid arguments, broken invariants) terminate through VSAN_CHECK so that
// failures are loud and carry a source location.

namespace vsan {
namespace internal {

enum class LogSeverity { kInfo, kWarning, kError, kFatal };

// Accumulates one log line and emits it (with severity prefix) on
// destruction.  FATAL messages abort the process.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line)
      : severity_(severity) {
    const char* base = file;
    for (const char* p = file; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << SeverityTag() << " " << base << ":" << line << "] ";
  }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  ~LogMessage() {
    stream_ << "\n";
    std::cerr << stream_.str();
    if (severity_ == LogSeverity::kFatal) {
      std::cerr.flush();
      std::abort();
    }
  }

  std::ostream& stream() { return stream_; }

 private:
  const char* SeverityTag() const {
    switch (severity_) {
      case LogSeverity::kInfo:
        return "[I";
      case LogSeverity::kWarning:
        return "[W";
      case LogSeverity::kError:
        return "[E";
      case LogSeverity::kFatal:
        return "[F";
    }
    return "[?";
  }

  LogSeverity severity_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace vsan

// Each VSAN_LOG_* is a single expression statement; the temporary
// LogMessage emits the line at the end of the full expression.
#define VSAN_LOG_SEVERITY(severity) \
  ::vsan::internal::LogMessage(severity, __FILE__, __LINE__).stream()

#define VSAN_LOG_INFO VSAN_LOG_SEVERITY(::vsan::internal::LogSeverity::kInfo)
#define VSAN_LOG_WARNING \
  VSAN_LOG_SEVERITY(::vsan::internal::LogSeverity::kWarning)
#define VSAN_LOG_ERROR \
  VSAN_LOG_SEVERITY(::vsan::internal::LogSeverity::kError)
#define VSAN_LOG_FATAL \
  VSAN_LOG_SEVERITY(::vsan::internal::LogSeverity::kFatal)

// Fatal unless `condition` holds.  Usable as a stream:
//   VSAN_CHECK(a == b) << "details";
#define VSAN_CHECK(condition) \
  if (condition)              \
    ;                         \
  else                        \
    VSAN_LOG_FATAL << "Check failed: " #condition " "

#define VSAN_CHECK_EQ(a, b) \
  VSAN_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define VSAN_CHECK_NE(a, b) \
  VSAN_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define VSAN_CHECK_LT(a, b) \
  VSAN_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define VSAN_CHECK_LE(a, b) \
  VSAN_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define VSAN_CHECK_GT(a, b) \
  VSAN_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define VSAN_CHECK_GE(a, b) \
  VSAN_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

#ifdef NDEBUG
#define VSAN_DCHECK(condition) \
  while (false) VSAN_CHECK(condition)
#else
#define VSAN_DCHECK(condition) VSAN_CHECK(condition)
#endif

#endif  // VSAN_UTIL_LOGGING_H_
