// Runtime enforcement of the zero-steady-state-allocation contract.
//
// When built with -DPOPS_ALLOC_GUARD=ON (CMake option), this unit
// replaces the global `operator new`/`operator delete` family with
// hooks that keep per-thread counters and honor an RAII
// `ScopedAllocationBan`: any heap allocation on a thread inside a
// banned scope aborts the process with a message naming the scope.
// The hot paths (the RoutingEngine permutation routes, which cover its
// verification simulator, and TrafficServer::execute_window) ban
// allocation on every call: their owners size every arena at
// construction, so the contract the capacity-snapshot tests
// (scratch_footprint) check *indirectly* is enforced *directly*, at
// runtime, on every guarded CI run — including transient
// allocate-free pairs that leave no footprint behind.
//
// Without the option every type here is an inert no-op and no
// operator is replaced, so the default build carries zero overhead.
//
// All state is thread-local: a ban on one thread never constrains
// another (see test_threading), which is exactly the granularity the
// BatchRouter needs — each worker's engine bans on its own thread.
#pragma once

#include <cstddef>

namespace pops {

// Snapshot of this thread's allocator traffic since thread start.
// Deallocations are counted but never banned: frees in a banned scope
// are legal (freeing is how a transient allocation would try to hide,
// and the allocation itself is what trips the guard).
struct AllocationCounter {
  long long allocations = 0;
  long long deallocations = 0;
  long long bytes_allocated = 0;
};

#if POPS_ALLOC_GUARD

// This thread's counters. Includes allocations made by the standard
// library on this thread (iostream buffers, std::string, ...), so
// compare before/after deltas rather than absolute values.
AllocationCounter thread_allocation_counter();

// True iff a ban is active on this thread and no ScopedAllocationAllow
// overrides it.
bool allocation_ban_active();

// While alive, any heap allocation on this thread aborts:
//   POPS_ALLOC_GUARD: <N>-byte heap allocation inside banned scope '<scope>'
// `scope` must outlive the ban (string literals do). Bans nest; the
// innermost scope is the one reported.
class ScopedAllocationBan {
 public:
  explicit ScopedAllocationBan(const char* scope);
  ScopedAllocationBan(const ScopedAllocationBan&) = delete;
  ScopedAllocationBan& operator=(const ScopedAllocationBan&) = delete;
  ~ScopedAllocationBan();

 private:
  const char* const previous_scope_;
};

// Escape hatch: while alive, allocations on this thread are permitted
// even under a ban. For cold failure paths only — composing a
// diagnostic message on the way to POPS_CHECK/abort must not itself
// abort with the wrong message.
class ScopedAllocationAllow {
 public:
  ScopedAllocationAllow();
  ScopedAllocationAllow(const ScopedAllocationAllow&) = delete;
  ScopedAllocationAllow& operator=(const ScopedAllocationAllow&) = delete;
  ~ScopedAllocationAllow();
};

#else  // !POPS_ALLOC_GUARD

inline AllocationCounter thread_allocation_counter() {
  return AllocationCounter{};
}

inline bool allocation_ban_active() { return false; }

class ScopedAllocationBan {
 public:
  explicit ScopedAllocationBan(const char* scope) { (void)scope; }
  ScopedAllocationBan(const ScopedAllocationBan&) = delete;
  ScopedAllocationBan& operator=(const ScopedAllocationBan&) = delete;
  // User-provided so `ScopedAllocationBan ban("x");` is not flagged as
  // an unused variable by -Wunused-variable in the unguarded build.
  ~ScopedAllocationBan() {}
};

class ScopedAllocationAllow {
 public:
  ScopedAllocationAllow() {}
  ScopedAllocationAllow(const ScopedAllocationAllow&) = delete;
  ScopedAllocationAllow& operator=(const ScopedAllocationAllow&) = delete;
  ~ScopedAllocationAllow() {}
};

#endif  // POPS_ALLOC_GUARD

}  // namespace pops
