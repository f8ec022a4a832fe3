#pragma once
/// \file identity.hpp
/// \brief Likir-style identity layer for the DHT.
///
/// The paper's implementation runs on Likir [12]: a Kademlia variant where
/// a Certification Service (CS) binds each user identity to a node id, and
/// every RPC and stored content carries verifiable authorship. We reproduce
/// that structure:
///
///   - CertificationService::enroll() issues a Credential binding
///     (userId, nodeId, expiry) with an authentication code.
///   - Nodes attach their Credential to every RPC; receivers verify it
///     before updating routing tables or accepting stores (Sybil/ID-spoof
///     defence). A receiving KademliaNode runs the HMAC once per distinct
///     credential and re-checks expiry on every datagram (docs/DESIGN.md §2).
///   - Stored tokens carry a ContentSignature binding (userId, key, token)
///     so replicas can reject forged writes.
///
/// Substitution note (docs/DESIGN.md §2): Likir signs with RSA; we use HMAC-SHA1
/// keyed by the CS. Verification in a real deployment would use the CS
/// public key; here every node holds a verification handle to the single
/// simulated CS. The accept/reject code paths are identical.

#include <optional>
#include <string>
#include <string_view>

#include "crypto/hmac.hpp"
#include "crypto/sha1.hpp"

namespace dharma::crypto {

/// Identity credential issued by the Certification Service.
struct Credential {
  std::string userId;   ///< human-level identity (account name)
  Digest160 nodeId;     ///< overlay identifier bound to the user
  u64 expiresAt = 0;    ///< simulated-time expiry (0 = never)
  Digest160 mac{};      ///< CS authentication code over the fields above

  /// Canonical byte string the MAC covers.
  std::string signedPayload() const;
};

/// Authorship proof attached to stored tokens.
struct ContentSignature {
  std::string userId;
  Digest160 mac{};
};

/// Simulated Likir Certification Service.
///
/// Deterministic: node ids are derived as SHA1(userId | salt), so a given
/// user enrolls to the same overlay position in every run.
class CertificationService {
 public:
  /// \param secret CS private key material.
  /// \param salt   namespace salt mixed into node-id derivation.
  explicit CertificationService(std::string_view secret,
                                std::string salt = "likir");

  /// Issues a credential for \p userId valid until \p expiresAt.
  Credential enroll(std::string_view userId, u64 expiresAt = 0) const;

  /// Verifies a credential's MAC and expiry at time \p now.
  bool verify(const Credential& c, u64 now = 0) const;

  /// Signs content authored by \p userId stored under \p keyHex.
  ContentSignature signContent(std::string_view userId, std::string_view keyHex,
                               std::string_view content) const;

  /// Verifies a content signature.
  bool verifyContent(const ContentSignature& sig, std::string_view keyHex,
                     std::string_view content) const;

  /// Deterministic node id for a user (same derivation enroll() uses).
  Digest160 nodeIdFor(std::string_view userId) const;

 private:
  HmacSha1Key key_;  ///< the CS secret, pad blocks hashed once
  std::string salt_;

  /// MAC over "tok|" userId "|" keyHex "|" content.
  Digest160 contentMac(std::string_view userId, std::string_view keyHex,
                       std::string_view content) const;
};

}  // namespace dharma::crypto
