// Counting replacements of the global operator new/delete (see
// alloc_probe.h).
#include "alloc_probe.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace bench_alloc {
namespace {

std::atomic<unsigned long long>& allocation_count() {
  static std::atomic<unsigned long long> count{0};
  return count;
}

}  // namespace

unsigned long long allocations() {
  return allocation_count().load(std::memory_order_relaxed);
}

}  // namespace bench_alloc

void* operator new(std::size_t size) {
  bench_alloc::allocation_count().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  bench_alloc::allocation_count().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
