#include "crypto/hmac.hpp"

#include <cstring>

namespace dharma::crypto {

HmacSha1Key::HmacSha1Key(std::string_view key) {
  u8 keyBlock[64];
  std::memset(keyBlock, 0, sizeof(keyBlock));
  if (key.size() > 64) {
    Digest160 kd = sha1(key);
    std::memcpy(keyBlock, kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(keyBlock, key.data(), key.size());
  }

  u8 ipad[64], opad[64];
  for (int i = 0; i < 64; ++i) {
    ipad[i] = keyBlock[i] ^ 0x36;
    opad[i] = keyBlock[i] ^ 0x5c;
  }
  inner_.update(ipad, 64);
  outer_.update(opad, 64);
}

Digest160 HmacSha1Key::finishOuter(Sha1& inner) const {
  Digest160 innerDigest = inner.finish();
  Sha1 outer = outer_;
  outer.update(innerDigest.data(), innerDigest.size());
  return outer.finish();
}

Digest160 HmacSha1Key::mac(const u8* data, usize len) const {
  Sha1 inner = inner_;
  inner.update(data, len);
  return finishOuter(inner);
}

Digest160 HmacSha1Key::mac(
    std::initializer_list<std::string_view> parts) const {
  Sha1 inner = inner_;
  for (std::string_view part : parts) inner.update(part);
  return finishOuter(inner);
}

Digest160 hmacSha1(std::string_view key, const u8* data, usize len) {
  return HmacSha1Key(key).mac(data, len);
}

Digest160 hmacSha1(std::string_view key, std::string_view data) {
  return HmacSha1Key(key).mac(data);
}

bool digestEqual(const Digest160& a, const Digest160& b) {
  u8 acc = 0;
  for (usize i = 0; i < a.size(); ++i) acc |= static_cast<u8>(a[i] ^ b[i]);
  return acc == 0;
}

}  // namespace dharma::crypto
