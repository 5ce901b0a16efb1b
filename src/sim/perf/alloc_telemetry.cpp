// The operator-new/delete interposer behind sim/perf/alloc_telemetry.hpp.
//
// This translation unit replaces the global allocation functions for any
// binary that links it (see ensure_alloc_interposer).  Each thread owns a
// counter block of relaxed atomics that only that thread writes, so a count
// advances by a relaxed load and store -- exact, and still atomic for the
// readers in alloc_totals, so TSan stays clean -- rather than a locked
// read-modify-write.  Blocks are registered once under a mutex and never
// freed (they stay reachable through the registry, so LeakSanitizer does
// not flag them and snapshots never race a dying thread's storage).  A
// thread-local recursion flag keeps the registry's own allocations out of
// the counts, and a thread-local suspension depth lets the profiler
// exclude its bookkeeping.
#include "sim/perf/alloc_telemetry.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace tracemod::sim::perf {
namespace {

struct ThreadBlock {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
  std::atomic<std::uint64_t> bytes_allocated{0};
  std::atomic<std::uint64_t> bytes_freed{0};
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

// Heap-allocated and reachable through a static pointer for the life of
// the process: blocks survive their thread, and LSan sees them as live.
std::vector<ThreadBlock*>& registry() {
  static std::vector<ThreadBlock*>* r = new std::vector<ThreadBlock*>();
  return *r;
}

// POD thread-locals only: no dynamic initialization, no destructors, so
// the hooks are safe during process startup and thread teardown.
thread_local ThreadBlock* t_block = nullptr;
thread_local bool t_in_hook = false;
thread_local int t_suspend = 0;

ThreadBlock* block_for_thread() {
  if (t_block == nullptr) {
    t_in_hook = true;
    void* raw = std::malloc(sizeof(ThreadBlock));
    if (raw == nullptr) {
      t_in_hook = false;
      return nullptr;  // never fail an allocation because of bookkeeping
    }
    auto* b = new (raw) ThreadBlock();
    {
      std::lock_guard<std::mutex> lock(registry_mutex());
      registry().push_back(b);
    }
    t_block = b;
    t_in_hook = false;
  }
  return t_block;
}

std::size_t usable_size(void* p, std::size_t fallback) {
#if defined(__GLIBC__)
  const std::size_t u = ::malloc_usable_size(p);
  return u != 0 ? u : fallback;
#else
  (void)p;
  return fallback;
#endif
}

/// Adds `n` to a counter of the calling thread's own block.  The owner is
/// its only writer, so no locked fetch_add is needed to keep it exact.
void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

void note_alloc(std::size_t bytes) {
  if (t_in_hook || t_suspend > 0) return;
  ThreadBlock* b = block_for_thread();
  if (b == nullptr) return;
  bump(b->allocs, 1);
  bump(b->bytes_allocated, bytes);
}

void note_free(std::size_t bytes) {
  if (t_in_hook || t_suspend > 0) return;
  ThreadBlock* b = block_for_thread();
  if (b == nullptr) return;
  bump(b->frees, 1);
  bump(b->bytes_freed, bytes);
}

void* allocate(std::size_t size, std::size_t align, bool nothrow) {
  if (size == 0) size = 1;
  for (;;) {
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
      p = std::malloc(size);
    } else if (::posix_memalign(&p, align, size) != 0) {
      p = nullptr;
    }
    if (p != nullptr) {
      note_alloc(usable_size(p, size));
      return p;
    }
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) {
      if (nothrow) return nullptr;
      throw std::bad_alloc();
    }
    handler();
  }
}

void deallocate(void* p, std::size_t size_hint) noexcept {
  if (p == nullptr) return;
  note_free(usable_size(p, size_hint));
  std::free(p);
}

}  // namespace

bool alloc_interposer_active() { return true; }

AllocTotals alloc_totals() {
  AllocTotals out;
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (const ThreadBlock* b : registry()) {
    out.allocs += b->allocs.load(std::memory_order_relaxed);
    out.frees += b->frees.load(std::memory_order_relaxed);
    out.bytes_allocated += b->bytes_allocated.load(std::memory_order_relaxed);
    out.bytes_freed += b->bytes_freed.load(std::memory_order_relaxed);
  }
  return out;
}

AllocTotals thread_alloc_totals() {
  AllocTotals out;
  const ThreadBlock* b = t_block;
  if (b == nullptr) return out;
  out.allocs = b->allocs.load(std::memory_order_relaxed);
  out.frees = b->frees.load(std::memory_order_relaxed);
  out.bytes_allocated = b->bytes_allocated.load(std::memory_order_relaxed);
  out.bytes_freed = b->bytes_freed.load(std::memory_order_relaxed);
  return out;
}

void ensure_alloc_interposer() {
  // Touching any symbol in this TU pulls the object file -- and with it
  // the replaced operator new/delete below -- out of the static archive.
}

AllocSuspendGuard::AllocSuspendGuard() { ++t_suspend; }
AllocSuspendGuard::~AllocSuspendGuard() { --t_suspend; }

}  // namespace tracemod::sim::perf

// --- replaced global allocation functions ---------------------------------
//
// Counting only: the underlying storage comes from malloc/posix_memalign,
// failure raises bad_alloc through the standard new-handler loop, and the
// nothrow forms return nullptr, exactly like the defaults.

namespace {
constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);
}

void* operator new(std::size_t size) {
  return tracemod::sim::perf::allocate(size, kDefaultAlign, false);
}
void* operator new[](std::size_t size) {
  return tracemod::sim::perf::allocate(size, kDefaultAlign, false);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tracemod::sim::perf::allocate(size, kDefaultAlign, true);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tracemod::sim::perf::allocate(size, kDefaultAlign, true);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return tracemod::sim::perf::allocate(
      size, static_cast<std::size_t>(align), false);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return tracemod::sim::perf::allocate(
      size, static_cast<std::size_t>(align), false);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return tracemod::sim::perf::allocate(
        size, static_cast<std::size_t>(align), true);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return tracemod::sim::perf::allocate(
        size, static_cast<std::size_t>(align), true);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete[](void* p) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete(void* p, std::size_t size) noexcept {
  tracemod::sim::perf::deallocate(p, size);
}
void operator delete[](void* p, std::size_t size) noexcept {
  tracemod::sim::perf::deallocate(p, size);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete(void* p, std::align_val_t) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  tracemod::sim::perf::deallocate(p, 0);
}
void operator delete(void* p, std::size_t size, std::align_val_t) noexcept {
  tracemod::sim::perf::deallocate(p, size);
}
void operator delete[](void* p, std::size_t size, std::align_val_t) noexcept {
  tracemod::sim::perf::deallocate(p, size);
}
