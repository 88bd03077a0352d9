// Leveled logging with a swappable sink. Quiet by default so tests and
// benches are clean; examples turn it on to narrate protocol activity.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace hcm {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

const char* to_string(LogLevel level);

using LogSink = std::function<void(LogLevel, const std::string& component,
                                   const std::string& message)>;

// Returns extra context to append to each log line (e.g. the active
// trace/span ids), or "" when none is in scope. Installed by the obs
// tracer; common/ stays free of an obs dependency.
using LogContextProvider = std::function<std::string()>;

// Process-wide log configuration. The level is an atomic (shard
// workers check it per call); sink and context provider are
// startup-only installs.
class Log {
 public:
  static LogLevel level();
  static void set_level(LogLevel level);
  static void set_sink(LogSink sink);  // nullptr restores stderr sink
  static void set_context_provider(LogContextProvider provider);
  static void write(LogLevel level, const std::string& component,
                    const std::string& message);
};

namespace log_detail {
inline void append(std::ostringstream&) {}
template <typename T, typename... Rest>
void append(std::ostringstream& os, const T& v, const Rest&... rest) {
  os << v;
  append(os, rest...);
}
}  // namespace log_detail

template <typename... Args>
void log_at(LogLevel level, const std::string& component, const Args&... args) {
  if (level < Log::level()) return;
  std::ostringstream os;
  log_detail::append(os, args...);
  Log::write(level, component, os.str());
}

template <typename... Args>
void log_debug(const std::string& c, const Args&... a) {
  log_at(LogLevel::kDebug, c, a...);
}
template <typename... Args>
void log_info(const std::string& c, const Args&... a) {
  log_at(LogLevel::kInfo, c, a...);
}
template <typename... Args>
void log_warn(const std::string& c, const Args&... a) {
  log_at(LogLevel::kWarn, c, a...);
}

}  // namespace hcm
