#pragma once
/// \file hmac.hpp
/// \brief HMAC-SHA1 (RFC 2104).
///
/// The identity layer authenticates credentials and stored tokens with
/// HMACs keyed by the Certification Service. This substitutes Likir's RSA
/// signatures (see docs/DESIGN.md §2): the verify/reject control flow is the
/// same, only the primitive differs.
///
/// HmacSha1Key absorbs the key's ipad and opad blocks into two Sha1 states
/// once; each MAC copies those states, so a MAC over an n-byte message costs
/// ceil((n + 9) / 64) + 1 compressions instead of two more for the pads.
/// The free hmacSha1() builds a key per call and returns the same bytes.

#include <initializer_list>
#include <string_view>
#include <vector>

#include "crypto/sha1.hpp"

namespace dharma::crypto {

/// An HMAC-SHA1 key with its pad blocks already hashed.
class HmacSha1Key {
 public:
  explicit HmacSha1Key(std::string_view key);

  /// HMAC over \p data.
  Digest160 mac(const u8* data, usize len) const;
  Digest160 mac(std::string_view data) const {
    return mac(reinterpret_cast<const u8*>(data.data()), data.size());
  }

  /// HMAC over the concatenation of \p parts, without building it.
  Digest160 mac(std::initializer_list<std::string_view> parts) const;

 private:
  Sha1 inner_;  ///< state after the ipad block
  Sha1 outer_;  ///< state after the opad block

  Digest160 finishOuter(Sha1& inner) const;
};

/// HMAC-SHA1 over \p data with \p key.
Digest160 hmacSha1(std::string_view key, std::string_view data);
Digest160 hmacSha1(std::string_view key, const u8* data, usize len);

/// Constant-time digest comparison.
bool digestEqual(const Digest160& a, const Digest160& b);

}  // namespace dharma::crypto
