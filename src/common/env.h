// Environment-variable knobs shared by the serving layers (the knob table
// is docs/operations.md).

#ifndef SRC_COMMON_ENV_H_
#define SRC_COMMON_ENV_H_

#include <cstdint>
#include <cstdlib>

namespace asbase {

// Non-negative integer override from env var `name`: `fallback` when unset,
// empty, unparseable or negative. Like strtoll, it reads a leading number and
// ignores what follows ("12ms" reads 12).
inline int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const long long value = std::strtoll(env, &end, 10);
  return end == env || value < 0 ? fallback : static_cast<int64_t>(value);
}

}  // namespace asbase

#endif  // SRC_COMMON_ENV_H_
