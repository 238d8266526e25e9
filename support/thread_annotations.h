// Clang thread-safety-analysis annotations (no-ops elsewhere).
//
// The macros mirror the standard set (Abseil / LLVM docs): capabilities
// name lockable things, GUARDED_BY binds state to a capability, and
// REQUIRES/EXCLUDES state a function's locking preconditions. Under
// clang the CI builds with -Wthread-safety -Werror=thread-safety-analysis,
// so a member annotated POPS_GUARDED_BY(mu_) that is touched without
// mu_ held is a compile error, not a TSan lottery ticket. Under gcc and
// MSVC every macro expands to nothing.
//
// support/mutex.h provides the annotated Mutex/MutexLock pair these
// macros are designed around; serve/traffic_server.h is the worked
// example. Single-threaded hot-path classes (RoutingEngine,
// EdgeColorer, Network) are marked POPS_THREAD_COMPATIBLE instead: the
// caller owns the synchronization, one instance per thread — the
// BatchRouter discipline.
#pragma once

#if defined(__clang__)
#define POPS_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define POPS_THREAD_ANNOTATION_ATTRIBUTE(x)
#endif

/// Declares a class to be a capability (e.g. a mutex wrapper).
#define POPS_CAPABILITY(x) POPS_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Declares an RAII class that acquires on construction and releases
/// on destruction.
#define POPS_SCOPED_CAPABILITY \
  POPS_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// The annotated member may only be read or written while holding the
/// given capability.
#define POPS_GUARDED_BY(x) POPS_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// The function must be called with the listed capabilities held.
#define POPS_REQUIRES(...) \
  POPS_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// The function must be called with the listed capabilities NOT held
/// (it acquires them itself; prevents self-deadlock).
#define POPS_EXCLUDES(...) \
  POPS_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// The function acquires the listed capabilities and does not release
/// them before returning.
#define POPS_ACQUIRE(...) \
  POPS_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// The function releases the listed capabilities.
#define POPS_RELEASE(...) \
  POPS_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Escape hatch: the function body is not analyzed. Use only for
/// init/teardown paths the analysis cannot model; say why at the site.
#define POPS_NO_THREAD_SAFETY_ANALYSIS \
  POPS_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

/// Documentation-only marker: instances confine all mutable state to
/// one thread at a time and the *caller* provides the synchronization
/// (the BatchRouter pattern is one engine per thread, never a shared
/// engine). Expands to nothing on every compiler — it exists so grep
/// can audit which classes claim the contract, and so the contract is
/// stated at the class head rather than buried in a comment.
#define POPS_THREAD_COMPATIBLE
