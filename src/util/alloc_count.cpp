#include "util/alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace ugnirt::alloc_count {
namespace {

std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_deletes{0};

void* counted_alloc(std::size_t n) {
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  g_news.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a multiple of the alignment.
  void* p = std::aligned_alloc(a, ((n ? n : 1) + a - 1) / a * a);
  if (!p) throw std::bad_alloc();
  g_news.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (!p) return;
  g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

Counts now() {
  return Counts{g_news.load(std::memory_order_relaxed),
                g_deletes.load(std::memory_order_relaxed)};
}

}  // namespace ugnirt::alloc_count

using ugnirt::alloc_count::counted_alloc;
using ugnirt::alloc_count::counted_free;

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
