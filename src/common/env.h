// Environment-variable knobs: every ALLOY_* setting is read through these
// (the knob table is docs/operations.md). ALLOY_LOG_LEVEL, which names a
// level, is parsed by the logger itself.

#ifndef SRC_COMMON_ENV_H_
#define SRC_COMMON_ENV_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace asbase {

// String setting from env var `name`: `fallback` when unset or empty.
inline const char* EnvString(const char* name, const char* fallback) {
  const char* env = std::getenv(name);
  return env == nullptr || *env == '\0' ? fallback : env;
}

// Non-negative integer override from env var `name`: `fallback` when unset,
// empty, unparseable or negative. Like strtoll, it reads a leading number and
// ignores what follows ("12ms" reads 12).
inline int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* env = EnvString(name, nullptr);
  if (env == nullptr) {
    return fallback;
  }
  char* end = nullptr;
  const long long value = std::strtoll(env, &end, 10);
  return end == env || value < 0 ? fallback : static_cast<int64_t>(value);
}

// On/off switch from env var `name`: `fallback` when unset or empty, off
// when exactly "0", on for anything else.
inline bool EnvFlag(const char* name, bool fallback) {
  const char* env = EnvString(name, nullptr);
  return env == nullptr ? fallback : std::strcmp(env, "0") != 0;
}

}  // namespace asbase

#endif  // SRC_COMMON_ENV_H_
