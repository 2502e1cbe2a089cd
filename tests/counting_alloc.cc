#include "tests/counting_alloc.h"

#include <execinfo.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<bool> g_trap_allocs{false};

void Count() {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  // exchange disarms while reporting, so the backtrace's own allocations
  // (if any) do not recurse.
  if (g_trap_allocs.load(std::memory_order_relaxed) &&
      g_trap_allocs.exchange(false, std::memory_order_relaxed)) {
    void* frames[32];
    const int depth = backtrace(frames, 32);
    backtrace_symbols_fd(frames, depth, 2);
    std::fputs("---\n", stderr);
    g_trap_allocs.store(true, std::memory_order_relaxed);
  }
}

void* CountedAlloc(std::size_t n) {
  Count();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  Count();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

namespace pandora {

uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

void SetAllocTrap(bool armed) { g_trap_allocs.store(armed, std::memory_order_relaxed); }

}  // namespace pandora

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
