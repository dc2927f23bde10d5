// Minimal leveled logger.
//
// Simulators emit diagnostics through this instead of std::cerr directly so
// tests can silence or capture them.  The default level is kWarn, keeping
// test and benchmark output clean; set SSVSP_LOG_LEVEL to
// debug|info|warn|error|off in the environment (read once at startup) or
// call setLogLevel to override.
//
// Lines are written to stderr under a mutex as one atomic write, stamped
// with the monotonic seconds since the first log call:
//
//   [ssvsp WARN +12.345s] message
#pragma once

#include <sstream>
#include <string>

namespace ssvsp {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

LogLevel logLevel();
void setLogLevel(LogLevel level);

/// Observer hook invoked (under the logging mutex, after the stderr write)
/// for every emitted line.  `elapsedSec` is the monotonic stamp printed on
/// the line.  Obs tracing installs one to mirror log lines into the trace;
/// nullptr clears it.
using LogSink = void (*)(LogLevel level, double elapsedSec,
                         const std::string& message);
void setLogSink(LogSink sink);

namespace detail {
void emitLog(LogLevel level, const std::string& message);
}

}  // namespace ssvsp

#define SSVSP_LOG(level, msg)                                      \
  do {                                                             \
    if (static_cast<int>(level) >=                                 \
        static_cast<int>(::ssvsp::logLevel())) {                   \
      std::ostringstream ssvsp_log_os_;                            \
      ssvsp_log_os_ << msg;                                        \
      ::ssvsp::detail::emitLog(level, ssvsp_log_os_.str());        \
    }                                                              \
  } while (0)

#define SSVSP_DEBUG(msg) SSVSP_LOG(::ssvsp::LogLevel::kDebug, msg)
#define SSVSP_INFO(msg) SSVSP_LOG(::ssvsp::LogLevel::kInfo, msg)
#define SSVSP_WARN(msg) SSVSP_LOG(::ssvsp::LogLevel::kWarn, msg)
#define SSVSP_ERROR(msg) SSVSP_LOG(::ssvsp::LogLevel::kError, msg)
