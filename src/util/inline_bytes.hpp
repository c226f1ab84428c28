// A byte buffer that keeps up to 48 bytes inline and spills larger
// contents to the heap.
//
// Mailbox, MSGQ and credit-backlog messages are mostly protocol control
// payloads: the uGNI INIT (48 B), the SMP INIT (40 B), ACK (8 B) and
// PERSISTENT (12 B).  Held inline they cost no allocation; larger data
// messages spill exactly as a std::vector would.  The heap pointer shares
// the inline bytes, so the type is 52 bytes with 4-byte alignment and a
// mailbox message record fits one 64-byte cache line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace ugnirt {

class InlineBytes {
 public:
  static constexpr std::uint32_t kInline = 48;

  InlineBytes() = default;
  InlineBytes(const InlineBytes&) = delete;
  InlineBytes& operator=(const InlineBytes&) = delete;
  InlineBytes(InlineBytes&& o) noexcept { take(o); }
  InlineBytes& operator=(InlineBytes&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }
  ~InlineBytes() { release(); }

  /// Make room for `n` bytes (previous contents are not kept); returns the
  /// buffer to fill.
  std::uint8_t* resize(std::uint32_t n) {
    release();
    size_ = n;
    if (n > kInline) {
      std::uint8_t* p = new std::uint8_t[n];
      std::memcpy(buf_, &p, sizeof(p));
    }
    return data();
  }
  /// Replace the contents with `n` bytes from `src`.
  void assign(const void* src, std::uint32_t n) {
    if (n) std::memcpy(resize(n), src, n);
    else release();
  }

  std::uint8_t* data() { return size_ > kInline ? heap() : buf_; }
  const std::uint8_t* data() const { return size_ > kInline ? heap() : buf_; }
  std::uint32_t size() const { return size_; }

 private:
  std::uint8_t* heap() const {
    std::uint8_t* p = nullptr;
    std::memcpy(&p, buf_, sizeof(p));
    return p;
  }
  void release() {
    if (size_ > kInline) delete[] heap();
    size_ = 0;
  }
  /// Move `o`'s contents here, leaving `o` empty (this must be empty).
  void take(InlineBytes& o) {
    size_ = o.size_;
    std::memcpy(buf_, o.buf_, size_ > kInline ? sizeof(std::uint8_t*) : size_);
    o.size_ = 0;
  }

  // The bytes, or (when size_ > kInline) the heap pointer to them.
  std::uint8_t buf_[kInline];
  std::uint32_t size_ = 0;
};

}  // namespace ugnirt
