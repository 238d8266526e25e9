// Annotated mutex wrapper: std::mutex plus the clang capability
// attributes from support/thread_annotations.h, so GUARDED_BY members
// and REQUIRES/EXCLUDES contracts are checked at compile time on the
// clang CI leg. The wrapper adds no state and no overhead over
// std::mutex — it exists purely to carry the annotations, which the
// standard library types cannot.
//
// The mutex is NOT recursive: a public locked method must never call
// another public locked method. Factor the shared body into a private
// `*_locked` helper annotated POPS_REQUIRES(mu_) instead —
// serve/traffic_server.h shows the pattern.
#pragma once

#include <condition_variable>
#include <mutex>

#include "support/thread_annotations.h"

namespace pops {

class POPS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() POPS_ACQUIRE() { mu_.lock(); }
  void unlock() POPS_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// RAII lock. Takes a pointer so the call site reads
// `MutexLock lock(&mu_);` — grabbing a lock looks like taking an
// address, which makes accidental copies impossible to write.
class POPS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) POPS_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() POPS_RELEASE() { mu_->unlock(); }

 private:
  Mutex* const mu_;
};

// Condition variable over the annotated Mutex, through
// std::condition_variable_any, which needs only the Mutex's lock() and
// unlock(). wait() releases and re-acquires the capability internally,
// which clang's intra-procedural thread-safety analysis cannot model —
// the method carries POPS_REQUIRES so call sites are still checked for
// holding the lock, and the analysis is switched off only inside the
// one-line body.
// Callers use the standard predicate-loop shape:
//
//   MutexLock lock(&mu_);
//   while (!predicate()) cv_.wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) POPS_REQUIRES(mu) POPS_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu);
  }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace pops
