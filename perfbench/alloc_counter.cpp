// Replaces the global allocation functions of the perfbench binary so the
// traced run can count heap allocations made by the program's layers.
// The counter is per thread (the workloads are single-threaded), so
// counting costs a thread-local increment and no synchronisation.

#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

thread_local bool t_counting = false;
thread_local std::uint64_t t_allocs = 0;

void* allocate(std::size_t n) {
  if (t_counting) ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  if (t_counting) ++t_allocs;
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = ((n == 0 ? 1 : n) + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

namespace perfbench::allocs {

void set_counting(bool on) noexcept { t_counting = on; }

std::uint64_t count() noexcept { return t_allocs; }

}  // namespace perfbench::allocs

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return allocate(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
