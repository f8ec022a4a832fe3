#include "dht/node_id.hpp"

namespace dharma::dht {

NodeId NodeId::random(Rng& rng) {
  NodeId n;
  for (usize i = 0; i < 20; i += 4) {
    u32 word = static_cast<u32>(rng.next());
    n.bytes[i] = static_cast<u8>(word >> 24);
    n.bytes[i + 1] = static_cast<u8>(word >> 16);
    n.bytes[i + 2] = static_cast<u8>(word >> 8);
    n.bytes[i + 3] = static_cast<u8>(word);
  }
  return n;
}

NodeId xorDistance(const NodeId& a, const NodeId& b) {
  NodeId d;
  for (usize i = 0; i < 20; ++i) d.bytes[i] = a.bytes[i] ^ b.bytes[i];
  return d;
}

}  // namespace dharma::dht
