// Converse message envelope.
//
// Every message carries a fixed header (the Converse "envelope"): total
// size, destination handler index, flags, and provenance.  The header
// travels with the payload through whichever machine layer is active, so a
// message created with CmiAlloc on one PE can be executed on any other.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace ugnirt::converse {

// Header flag bits.
constexpr std::uint16_t kMsgFlagSystem = 1u << 0;   // excluded from QD counts
constexpr std::uint16_t kMsgFlagNoFree = 1u << 1;   // runtime-owned buffer
                                                    // (persistent channel)
constexpr std::uint16_t kMsgFlagBcast = 1u << 2;    // spanning-tree forward
constexpr std::uint16_t kMsgFlagAggBatch = 1u << 3;  // aggregation batch:
                                                     // payload is a frame of
                                                     // coalesced messages
                                                     // (aggregation/frame.hpp)

struct CmiMsgHeader {
  std::uint32_t size = 0;       // total bytes, header included
  std::uint16_t handler = 0;    // registered handler index
  std::uint16_t flags = 0;
  std::int32_t src_pe = -1;     // logical sender
  std::int32_t alloc_pe = -1;   // PE whose allocator owns this buffer
  std::uint32_t bcast_root = 0; // spanning-tree root for broadcasts
  std::uint32_t span_id = 0;    // lifecycle-span id (0 = unsampled); rides
                                // the envelope so it survives memcpy hops
};

static_assert(sizeof(CmiMsgHeader) == 24, "envelope layout is part of ABI");

constexpr std::size_t kCmiHeaderBytes = sizeof(CmiMsgHeader);

inline CmiMsgHeader* header_of(void* msg) {
  return static_cast<CmiMsgHeader*>(msg);
}
inline const CmiMsgHeader* header_of(const void* msg) {
  return static_cast<const CmiMsgHeader*>(msg);
}

/// First payload byte (after the envelope).
inline void* payload_of(void* msg) {
  return static_cast<std::uint8_t*>(msg) + kCmiHeaderBytes;
}
inline const void* payload_of(const void* msg) {
  return static_cast<const std::uint8_t*>(msg) + kCmiHeaderBytes;
}

/// Typed payload access: CmiMsgPayload<T>(msg) (T must be trivially
/// copyable; messages travel by memcpy).
template <typename T>
T* msg_payload(void* msg) {
  static_assert(std::is_trivially_copyable_v<T>);
  return reinterpret_cast<T*>(payload_of(msg));
}

template <typename T>
const T* msg_payload(const void* msg) {
  static_assert(std::is_trivially_copyable_v<T>);
  return reinterpret_cast<const T*>(payload_of(msg));
}

/// A copy of the payload's leading T.  Handlers read their message this
/// way: a message delivered inside an aggregation batch is only 4-byte
/// aligned, so a T with wider alignment cannot be read in place.
template <typename T>
T read_payload(const void* msg) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, payload_of(msg), sizeof(T));
  return v;
}

}  // namespace ugnirt::converse
