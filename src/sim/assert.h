// Always-on invariant checks. Simulation correctness depends on internal
// invariants (event ordering, radio state machines); violating them must
// abort loudly even in optimized builds rather than corrupt results.
#pragma once

#include <cstdio>
#include <cstdlib>

#define CMAP_ASSERT(cond, msg)                                              \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "CMAP_ASSERT failed at %s:%d: %s\n  %s\n",       \
                   __FILE__, __LINE__, #cond, msg);                         \
      std::abort();                                                         \
    }                                                                       \
  } while (0)

namespace cmap::sim {

/// Config validation: when `ok` is false, abort naming the offending
/// field, e.g. "invalid CmapConfig::nvpkt = 65", followed by `why` when
/// given.
inline void require_valid(bool ok, const char* config, const char* field,
                          double value, const char* why = nullptr) {
  if (ok) return;
  std::fprintf(stderr, "invalid %s::%s = %g%s%s\n", config, field, value,
               why != nullptr ? ": " : "", why != nullptr ? why : "");
  std::abort();
}

}  // namespace cmap::sim
