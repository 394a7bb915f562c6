/// \file logging.hpp
/// \brief Tiny leveled logger used by the long-running flows (fault
/// simulation, GA, serving) to report progress without pulling in a
/// dependency.
///
/// The threshold can be set programmatically with `set_level` or from
/// the environment via `FTDIAG_LOG={debug,info,warn,error,off}`
/// (mirroring `FTDIAG_THREADS`).  An explicit `set_level` call always
/// wins over the environment.
///
/// Messages may carry structured `key=value` fields appended after the
/// text, e.g.
///
///   log::info("net: listening", {{"host", "0.0.0.0"}, {"port", 4815}});
///   // -> [ftdiag info] net: listening host=0.0.0.0 port=4815
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace ftdiag::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// One structured `key=value` field; values with spaces are quoted when
/// rendered.  Numeric/bool constructors format the value for you.
struct Field {
  Field(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}
  Field(std::string k, const char* v) : key(std::move(k)), value(v) {}
  Field(std::string k, bool v) : key(std::move(k)), value(v ? "true" : "false") {}
  Field(std::string k, double v);
  /// One integral constructor template instead of per-width overloads so
  /// int / unsigned / size_t / int64_t all format without ambiguity.
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool> &&
                                        !std::is_same_v<T, char>>>
  Field(std::string k, T v) : key(std::move(k)), value(std::to_string(v)) {}

  std::string key;
  std::string value;
};
using Fields = std::vector<Field>;

/// Set the global threshold; messages below it are dropped.  Default:
/// kWarn (library is silent in tests unless something is wrong), unless
/// `FTDIAG_LOG` overrides it.  An explicit call here beats the env var.
void set_level(Level level);

/// Current threshold (resolves `FTDIAG_LOG` on first use).
[[nodiscard]] Level level();

/// Parse a level name ("debug", "info", ...).  Returns false on unknown
/// input and leaves `out` untouched.
[[nodiscard]] bool parse_level(const std::string& name, Level& out);

/// Emit a message at the given level to stderr (flushed per line).
void emit(Level level, const std::string& message);
void emit(Level level, const std::string& message, const Fields& fields);

void debug(const std::string& message);
void info(const std::string& message);
void warn(const std::string& message);
void error(const std::string& message);
void debug(const std::string& message, const Fields& fields);
void info(const std::string& message, const Fields& fields);
void warn(const std::string& message, const Fields& fields);
void error(const std::string& message, const Fields& fields);

}  // namespace ftdiag::log
