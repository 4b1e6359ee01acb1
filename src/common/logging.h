#ifndef HYPER_COMMON_LOGGING_H_
#define HYPER_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>

namespace hyper::internal_logging {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr) {
  std::fprintf(stderr, "[hyper] CHECK failed at %s:%d: %s\n", file, line,
               expr);
  std::abort();
}

}  // namespace hyper::internal_logging

/// Invariant check for conditions that indicate a programming error (not a
/// user error — user errors surface as Status). Enabled in all build types:
/// the cost is negligible next to the work the library does per call.
#define HYPER_CHECK(cond)                                             \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::hyper::internal_logging::CheckFailed(__FILE__, __LINE__,      \
                                             #cond);                  \
    }                                                                 \
  } while (0)

/// Check for hot paths, compiled out only when NDEBUG is defined. The
/// repository's builds never define it (the Release flags are plain -O2, in
/// the top-level and the perfbench CMakeLists alike), so DCHECKs run in
/// every build, benchmarks included, and the tests rely on them (e.g.
/// prob::BlockAccumulator::MergeSegment's segment-order check).
#ifndef NDEBUG
#define HYPER_DCHECK(cond) HYPER_CHECK(cond)
#else
#define HYPER_DCHECK(cond) \
  do {                     \
  } while (0)
#endif

#endif  // HYPER_COMMON_LOGGING_H_
