#pragma once
/// \file node_id.hpp
/// \brief 160-bit Kademlia identifiers and the XOR metric.
///
/// Node ids and block keys share the same 160-bit space (Kademlia [13]).
/// Distance is bitwise XOR interpreted as a big-endian unsigned integer;
/// bucketIndex() is the position of the most significant differing bit
/// (159 = differ in the top bit, 0 = differ only in the lowest bit).

#include <array>
#include <bit>
#include <compare>
#include <cstring>
#include <string>
#include <string_view>

#include "crypto/sha1.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dharma::dht {

/// 160-bit identifier (big-endian byte order).
struct NodeId {
  std::array<u8, 20> bytes{};

  /// All-zero id.
  static NodeId zero() { return NodeId{}; }

  /// Id from a SHA-1 digest (the usual derivation).
  static NodeId fromDigest(const crypto::Digest160& d) {
    NodeId n;
    n.bytes = d;
    return n;
  }

  /// Id from hashing an arbitrary string.
  static NodeId fromString(std::string_view s) {
    return fromDigest(crypto::sha1(s));
  }

  /// Uniformly random id.
  static NodeId random(Rng& rng);

  /// Parses 40 hex characters.
  static NodeId fromHex(std::string_view hex) {
    return fromDigest(crypto::digestFromHex(hex));
  }

  /// Lower-case 40-char hex string.
  std::string toHex() const { return crypto::toHex(bytes); }

  /// Abbreviated hex (first 8 chars) for logs.
  std::string shortHex() const { return toHex().substr(0, 8); }

  auto operator<=>(const NodeId&) const = default;

  /// Value of the bit at position \p i (159 = most significant).
  bool bit(int i) const {
    return (bytes[19 - i / 8] >> (i % 8)) & 1;
  }
};

/// Bitwise XOR distance.
NodeId xorDistance(const NodeId& a, const NodeId& b);

/// XOR distance between two ids as a 160-bit integer, split into three
/// big-endian words (bytes 0..7, 8..15, 16..19): comparing the words in
/// that order compares the integers, so ordering by Distance is ordering by
/// XOR distance. For a fixed target XOR is a bijection, so distinct ids
/// always have distinct distances.
struct Distance {
  u64 hi = 0;
  u64 mid = 0;
  u32 lo = 0;

  auto operator<=>(const Distance&) const = default;
};

namespace detail {
template <typename T>
T loadBigEndian(const u8* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof(T) == 8) {
      v = __builtin_bswap64(v);
    } else {
      v = __builtin_bswap32(v);
    }
  }
  return v;
}
}  // namespace detail

/// |target ^ id| as a Distance.
inline Distance distance(const NodeId& target, const NodeId& id) {
  const u8* t = target.bytes.data();
  const u8* i = id.bytes.data();
  return Distance{
      detail::loadBigEndian<u64>(t) ^ detail::loadBigEndian<u64>(i),
      detail::loadBigEndian<u64>(t + 8) ^ detail::loadBigEndian<u64>(i + 8),
      detail::loadBigEndian<u32>(t + 16) ^ detail::loadBigEndian<u32>(i + 16)};
}

/// Index of the most significant set bit of xorDistance(a, b), in
/// [0, 159]; returns -1 when a == b.
inline int bucketIndex(const NodeId& a, const NodeId& b) {
  const Distance d = distance(a, b);
  if (d.hi != 0) return 159 - std::countl_zero(d.hi);
  if (d.mid != 0) return 95 - std::countl_zero(d.mid);
  if (d.lo != 0) return 31 - std::countl_zero(d.lo);
  return -1;
}

/// Three-way comparison of |a ^ target| vs |b ^ target|:
/// negative if a is closer to target, 0 if equidistant, positive otherwise.
inline int compareDistance(const NodeId& target, const NodeId& a,
                           const NodeId& b) {
  const std::strong_ordering c = distance(target, a) <=> distance(target, b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// True if a is strictly closer to target than b.
inline bool closerTo(const NodeId& target, const NodeId& a, const NodeId& b) {
  return distance(target, a) < distance(target, b);
}

/// Hash functor so NodeId can key unordered containers.
struct NodeIdHash {
  usize operator()(const NodeId& id) const {
    u64 h = 0;
    for (int i = 0; i < 8; ++i) h = (h << 8) | id.bytes[i];
    return static_cast<usize>(splitmix64(h));
  }
};

}  // namespace dharma::dht
