#pragma once

// Typed environment-variable access for runtime configuration knobs
// (FLIGHTNN_NUM_THREADS, FLIGHTNN_LOG_LEVEL, ...). Malformed values are
// reported once via the logging layer and treated as unset, so a typo in a
// deployment script degrades to the built-in default instead of silently
// picking up a garbage configuration.

#include <optional>
#include <string>

namespace flightnn::support {

// Raw lookup; nullopt when the variable is unset or empty.
std::optional<std::string> env_string(const char* name);

// Decimal integer lookup. Returns nullopt when unset or empty; logs a
// warning and returns nullopt when the value is not exactly one in-range
// decimal integer (no surrounding whitespace, no trailing bytes, no hex).
std::optional<long long> env_int(const char* name);

}  // namespace flightnn::support
