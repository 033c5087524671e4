#include "support/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "support/logging.hpp"

namespace flightnn::support {

std::optional<std::string> env_string(const char* name) {
  // Configuration reads happen during startup, before the thread pool
  // spins up; nothing in the process calls setenv.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  return std::string(value);
}

std::optional<long long> env_int(const char* name) {
  const auto raw = env_string(name);
  if (!raw) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(raw->c_str(), &end, 10);
  // strtoll skips leading whitespace; reject it like trailing whitespace so
  // the whole value must be the integer.
  const bool leading_space =
      std::isspace(static_cast<unsigned char>(raw->front())) != 0;
  if (leading_space || errno != 0 || end == raw->c_str() || *end != '\0') {
    log_warn() << name << "='" << *raw
               << "' is not an integer; ignoring the variable";
    return std::nullopt;
  }
  return value;
}

}  // namespace flightnn::support
