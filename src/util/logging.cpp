#include "util/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>

namespace ssvsp {

namespace {

LogLevel levelFromEnv() {
  const char* env = std::getenv("SSVSP_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
  return LogLevel::kWarn;
}

std::atomic<LogLevel>& levelSlot() {
  static std::atomic<LogLevel> level{levelFromEnv()};
  return level;
}

const char* levelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

std::mutex& logMutex() {
  static std::mutex m;
  return m;
}

std::atomic<LogSink>& sinkSlot() {
  static std::atomic<LogSink> sink{nullptr};
  return sink;
}

/// Monotonic epoch of the first log call; elapsed stamps are relative to it.
std::chrono::steady_clock::time_point logEpoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

LogLevel logLevel() { return levelSlot().load(std::memory_order_relaxed); }

void setLogLevel(LogLevel level) {
  levelSlot().store(level, std::memory_order_relaxed);
}

void setLogSink(LogSink sink) {
  sinkSlot().store(sink, std::memory_order_release);
}

namespace detail {
void emitLog(LogLevel level, const std::string& message) {
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    logEpoch())
          .count();
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "[ssvsp %s +%.3fs] ",
                levelName(level), elapsed);
  // One formatted write under the mutex so concurrent workers never
  // interleave mid-line; the sink runs under the same lock so mirrored
  // trace instants keep log order.
  std::lock_guard<std::mutex> lock(logMutex());
  std::cerr << prefix << message << '\n';
  if (const LogSink sink = sinkSlot().load(std::memory_order_acquire))
    sink(level, elapsed, message);
}
}  // namespace detail

}  // namespace ssvsp
