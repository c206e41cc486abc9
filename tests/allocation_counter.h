// Allocation counting for the tests that assert a warm rebuild allocates
// nothing: a replacement of the global operator new that counts this
// thread's allocations while an AllocationCounter is alive, and is plain
// malloc otherwise.
//
// The replacement functions are definitions, so include this header in
// exactly one translation unit of a test binary.
//
// Every non-aligned form is replaced, so that each new/delete pair the
// library mixes (std::get_temporary_buffer's nothrow new is released by a
// sized delete) goes through malloc and free, also under ASan, which replaces
// the forms left out. The deletes stay out of line: inlined, GCC would see
// free() called on operator new's pointers and warn of a mismatch.
#ifndef TESTS_ALLOCATION_COUNTER_H_
#define TESTS_ALLOCATION_COUNTER_H_

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

thread_local bool g_count_allocations = false;
thread_local size_t g_allocations = 0;

void* CountedMalloc(std::size_t size) noexcept {
  if (g_count_allocations) {
    ++g_allocations;
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedNew(std::size_t size) {
  if (void* p = CountedMalloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

// Counts this thread's allocations from construction on.
class AllocationCounter {
 public:
  AllocationCounter() : start_(g_allocations) { g_count_allocations = true; }
  ~AllocationCounter() { g_count_allocations = false; }
  size_t count() const { return g_allocations - start_; }

 private:
  size_t start_;
};

}  // namespace

#endif  // TESTS_ALLOCATION_COUNTER_H_
