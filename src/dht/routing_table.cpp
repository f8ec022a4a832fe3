#include "dht/routing_table.hpp"

#include <algorithm>

namespace dharma::dht {

RoutingTable::RoutingTable(const NodeId& self, usize bucketCap) : self_(self) {
  buckets_.fill(KBucket(bucketCap));
}

BucketInsert RoutingTable::touch(const Contact& c) {
  int idx = indexFor(c.id);
  if (idx < 0) return BucketInsert::kUpdated;  // self; ignore
  return buckets_[static_cast<usize>(idx)].touch(c);
}

std::optional<Contact> RoutingTable::evictionCandidateFor(const Contact& c) const {
  int idx = indexFor(c.id);
  if (idx < 0) return std::nullopt;
  return buckets_[static_cast<usize>(idx)].evictionCandidate();
}

void RoutingTable::replaceStalestWith(const Contact& c) {
  int idx = indexFor(c.id);
  if (idx < 0) return;
  buckets_[static_cast<usize>(idx)].replaceStalest(c);
}

bool RoutingTable::replaceContact(const NodeId& victim, const Contact& c) {
  int idx = indexFor(c.id);
  if (idx < 0) return false;
  return buckets_[static_cast<usize>(idx)].replace(victim, c);
}

bool RoutingTable::remove(const NodeId& id) {
  int idx = indexFor(id);
  if (idx < 0) return false;
  return buckets_[static_cast<usize>(idx)].remove(id);
}

bool RoutingTable::contains(const NodeId& id) const {
  int idx = indexFor(id);
  if (idx < 0) return false;
  return buckets_[static_cast<usize>(idx)].contains(id);
}

std::vector<Contact> RoutingTable::closest(const NodeId& target, usize n) const {
  // Bucket j holds the contacts whose distance from self has its top bit
  // at j, so their distance from the target falls in a band fixed by j and
  // the target's own bucket b: bucket b is closest (below 2^b), buckets
  // 0..b-1 together come next (all in [2^b, 2^(b+1))), then each bucket
  // j > b alone ([2^j, 2^(j+1))). Walk the bands in that order, sort only
  // within a band, and stop once n contacts are in hand.
  std::vector<Contact> out;
  if (n == 0) return out;
  out.reserve(std::min(n, size()));
  auto closer = [&target](const Contact& a, const Contact& b) {
    return distance(target, a.id) < distance(target, b.id);
  };
  // Appends buckets [first, last) as one band; true once n are in hand.
  auto band = [&](int first, int last) {
    const usize start = out.size();
    for (int j = first; j < last; ++j) {
      const auto& e = buckets_[static_cast<usize>(j)].entries();
      out.insert(out.end(), e.begin(), e.end());
    }
    auto from = out.begin() + static_cast<long>(start);
    if (out.size() > n) {
      std::partial_sort(from, out.begin() + static_cast<long>(n), out.end(),
                        closer);
      out.resize(n);
    } else {
      std::sort(from, out.end(), closer);
    }
    return out.size() == n;
  };
  const int b = indexFor(target);  // -1 when target == self
  if (b >= 0 && (band(b, b + 1) || band(0, b))) return out;
  for (int j = b + 1; j < 160; ++j) {
    if (band(j, j + 1)) break;
  }
  return out;
}

NodeId RoutingTable::randomIdInBucket(usize bucket, Rng& rng) const {
  auto setBit = [](NodeId& n, usize i, bool v) {
    u8& byte = n.bytes[19 - i / 8];
    u8 mask = static_cast<u8>(1u << (i % 8));
    if (v) {
      byte |= mask;
    } else {
      byte &= static_cast<u8>(~mask);
    }
  };
  // Share the owner's prefix above `bucket`, differ exactly at `bucket`,
  // randomise everything below.
  NodeId id = self_;
  setBit(id, bucket, !self_.bit(static_cast<int>(bucket)));
  u64 bits = 0;
  int have = 0;
  for (usize i = 0; i < bucket; ++i) {
    if (have == 0) {
      bits = rng.next();
      have = 64;
    }
    setBit(id, i, (bits & 1) != 0);
    bits >>= 1;
    --have;
  }
  return id;
}

usize RoutingTable::size() const {
  usize n = 0;
  for (const auto& b : buckets_) n += b.size();
  return n;
}

usize RoutingTable::nonEmptyBuckets() const {
  usize n = 0;
  for (const auto& b : buckets_) n += b.size() > 0 ? 1 : 0;
  return n;
}

}  // namespace dharma::dht
