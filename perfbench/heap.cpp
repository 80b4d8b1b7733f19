#include "heap.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<long long> live_bytes{0};
std::atomic<long long> peak_bytes{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  const auto size = static_cast<long long>(malloc_usable_size(p));
  const long long now = live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  long long peak = peak_bytes.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_bytes.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  live_bytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

void reset_heap_peak() {
  peak_bytes.store(live_bytes.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

long long heap_peak_bytes() { return peak_bytes.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
