// Global operator new/delete replacement for the allocation guard.
// Compiled into pops_core unconditionally; the entire body is inside
// #if POPS_ALLOC_GUARD, so the unguarded build contributes an empty
// translation unit and keeps the toolchain's default allocator.
#include "support/alloc_guard.h"

#if POPS_ALLOC_GUARD

#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

// Plain PODs with constant initializers: thread_local access compiles
// to a TLS offset with no dynamic-init guard, so the hooks stay cheap
// and cannot themselves allocate.
thread_local long long tl_allocations = 0;
thread_local long long tl_deallocations = 0;
thread_local long long tl_bytes_allocated = 0;
thread_local int tl_ban_depth = 0;
thread_local int tl_allow_depth = 0;
thread_local const char* tl_ban_scope = nullptr;

bool ban_active() { return tl_ban_depth > 0 && tl_allow_depth == 0; }

[[noreturn]] void report_banned_allocation(std::size_t size) {
  // Lift the ban before reporting: fprintf may allocate internally and
  // must not recurse back into this handler.
  ++tl_allow_depth;
  std::fprintf(stderr,
               "POPS_ALLOC_GUARD: %zu-byte heap allocation inside banned "
               "scope '%s'\n",
               size, tl_ban_scope != nullptr ? tl_ban_scope : "(unnamed)");
  std::fflush(stderr);
  std::abort();
}

void* guarded_allocate(std::size_t size) noexcept {
  ++tl_allocations;
  tl_bytes_allocated += static_cast<long long>(size);
  if (ban_active()) report_banned_allocation(size);
  return std::malloc(size != 0 ? size : 1);
}

void* guarded_allocate_aligned(std::size_t size, std::size_t align) noexcept {
  ++tl_allocations;
  tl_bytes_allocated += static_cast<long long>(size);
  if (ban_active()) report_banned_allocation(size);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align, size != 0 ? size : 1) != 0) return nullptr;
  return ptr;
}

void guarded_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  ++tl_deallocations;
  std::free(ptr);
}

}  // namespace

namespace pops {

AllocationCounter thread_allocation_counter() {
  AllocationCounter counter;
  counter.allocations = tl_allocations;
  counter.deallocations = tl_deallocations;
  counter.bytes_allocated = tl_bytes_allocated;
  return counter;
}

bool allocation_ban_active() { return ban_active(); }

ScopedAllocationBan::ScopedAllocationBan(const char* scope)
    : previous_scope_(tl_ban_scope) {
  ++tl_ban_depth;
  tl_ban_scope = scope;
}

ScopedAllocationBan::~ScopedAllocationBan() {
  --tl_ban_depth;
  tl_ban_scope = previous_scope_;
}

ScopedAllocationAllow::ScopedAllocationAllow() { ++tl_allow_depth; }

ScopedAllocationAllow::~ScopedAllocationAllow() { --tl_allow_depth; }

}  // namespace pops

// The full replaceable-operator set. Throwing forms throw bad_alloc on
// exhaustion (bad_alloc itself does not allocate); nothrow forms return
// nullptr. A banned allocation aborts in every form — that is the
// guard's whole purpose, so the nothrow forms are not exempt.

void* operator new(std::size_t size) {
  void* ptr = guarded_allocate(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = guarded_allocate(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return guarded_allocate(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return guarded_allocate(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = guarded_allocate_aligned(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* ptr = guarded_allocate_aligned(size, static_cast<std::size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return guarded_allocate_aligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return guarded_allocate_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* ptr) noexcept { guarded_free(ptr); }
void operator delete[](void* ptr) noexcept { guarded_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { guarded_free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { guarded_free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept {
  guarded_free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  guarded_free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  guarded_free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  guarded_free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  guarded_free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  guarded_free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  guarded_free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  guarded_free(ptr);
}

#endif  // POPS_ALLOC_GUARD
