#include "counting_alloc.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_alloc_count{0};
std::atomic<int64_t> g_live_bytes{0};

void* Counted(void* p) {
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  return p;
}

void* CountedAlloc(std::size_t n) { return Counted(std::malloc(n == 0 ? 1 : n)); }

void* CountedAlignedAlloc(std::size_t n, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n == 0 ? 1 : n) != 0) {
    p = nullptr;
  }
  return Counted(p);
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

uint64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }
int64_t LiveHeapBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }
