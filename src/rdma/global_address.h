// GlobalAddress: a pointer into disaggregated memory. As in the paper
// (§4.2.1), every pointer is 64 bits: a 16-bit memory-server id plus a
// 48-bit offset within that server.
#ifndef SHERMAN_RDMA_GLOBAL_ADDRESS_H_
#define SHERMAN_RDMA_GLOBAL_ADDRESS_H_

#include <cstdint>
#include <functional>
#include <string>

namespace sherman::rdma {

struct GlobalAddress {
  uint16_t node = 0;    // memory-server id
  uint64_t offset = 0;  // byte offset within the server (48 bits used)

  constexpr GlobalAddress() = default;
  constexpr GlobalAddress(uint16_t n, uint64_t off) : node(n), offset(off) {}

  uint64_t ToU64() const { return (static_cast<uint64_t>(node) << 48) | offset; }
  static GlobalAddress FromU64(uint64_t v) {
    return GlobalAddress(static_cast<uint16_t>(v >> 48),
                         v & ((1ull << 48) - 1));
  }

  // Offset 0 on every node is reserved (meta region starts at a non-zero
  // base), so the all-zero address serves as the null pointer.
  bool is_null() const { return node == 0 && offset == 0; }

  GlobalAddress Plus(uint64_t delta) const {
    return GlobalAddress(node, offset + delta);
  }

  std::string ToString() const {
    std::string s = "[";
    s += std::to_string(node);
    s += ':';
    s += std::to_string(offset);
    s += ']';
    return s;
  }

  friend bool operator==(const GlobalAddress& a, const GlobalAddress& b) {
    return a.node == b.node && a.offset == b.offset;
  }
  friend bool operator!=(const GlobalAddress& a, const GlobalAddress& b) {
    return !(a == b);
  }
};

inline constexpr GlobalAddress kNullAddress{};

struct GlobalAddressHash {
  size_t operator()(const GlobalAddress& a) const {
    return std::hash<uint64_t>()(a.ToU64());
  }
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_GLOBAL_ADDRESS_H_
