#pragma once
/// \file sha1_reference.hpp
/// \brief Textbook SHA-1 and HMAC-SHA1 used as test oracles.
///
/// Written straight from FIPS 180-1 §7 and RFC 2104 with no shared code
/// with src/crypto: the message is padded into one buffer, every block
/// expands to 80 words, and each round picks f and K by its index. Slow
/// on purpose. The kernels under test share Sha1::update/finish, so a
/// padding or buffering bug would agree with itself; this copy does not.

#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha1.hpp"

namespace dharma::crypto::reference {

inline Digest160 sha1(std::string_view msg) {
  auto rotl = [](u32 x, int k) { return (x << k) | (x >> (32 - k)); };
  std::vector<u8> m(msg.begin(), msg.end());
  const u64 bits = static_cast<u64>(msg.size()) * 8;
  m.push_back(0x80);
  while (m.size() % 64 != 56) m.push_back(0);
  for (int i = 7; i >= 0; --i) m.push_back(static_cast<u8>(bits >> (8 * i)));

  u32 h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
              0xC3D2E1F0u};
  for (usize off = 0; off < m.size(); off += 64) {
    u32 w[80];
    for (usize t = 0; t < 16; ++t) {
      w[t] = 0;
      for (usize j = 0; j < 4; ++j) w[t] = (w[t] << 8) | m[off + 4 * t + j];
    }
    for (usize t = 16; t < 80; ++t) {
      w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
    }
    u32 a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (usize t = 0; t < 80; ++t) {
      u32 f = 0, k = 0;
      if (t < 20) {
        f = (b & c) | (~b & d);
        k = 0x5A827999u;
      } else if (t < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (t < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const u32 tmp = rotl(a, 5) + f + e + w[t] + k;
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  Digest160 out;
  for (usize i = 0; i < 20; ++i) {
    out[i] = static_cast<u8>(h[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

inline Digest160 hmacSha1(std::string_view key, std::string_view data) {
  std::string k(key);
  if (k.size() > 64) {
    const Digest160 kd = sha1(k);
    k.assign(kd.begin(), kd.end());
  }
  k.resize(64, '\0');
  std::string inner, outer;
  for (char c : k) {
    inner.push_back(static_cast<char>(c ^ 0x36));
    outer.push_back(static_cast<char>(c ^ 0x5c));
  }
  inner.append(data);
  const Digest160 id = sha1(inner);
  outer.append(id.begin(), id.end());
  return sha1(outer);
}

}  // namespace dharma::crypto::reference
