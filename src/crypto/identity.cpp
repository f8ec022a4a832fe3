#include "crypto/identity.hpp"

#include <utility>

namespace dharma::crypto {

std::string Credential::signedPayload() const {
  std::string s;
  s.reserve(userId.size() + 64);
  s += "cred|";
  s += userId;
  s += '|';
  s += toHex(nodeId);
  s += '|';
  s += std::to_string(expiresAt);
  return s;
}

CertificationService::CertificationService(std::string_view secret,
                                           std::string salt)
    : key_(secret), salt_(std::move(salt)) {}

Digest160 CertificationService::nodeIdFor(std::string_view userId) const {
  std::string material;
  material.reserve(userId.size() + salt_.size() + 1);
  material += userId;
  material += '|';
  material += salt_;
  return sha1(material);
}

Credential CertificationService::enroll(std::string_view userId,
                                        u64 expiresAt) const {
  Credential c;
  c.userId = std::string(userId);
  c.nodeId = nodeIdFor(userId);
  c.expiresAt = expiresAt;
  c.mac = key_.mac(c.signedPayload());
  return c;
}

bool CertificationService::verify(const Credential& c, u64 now) const {
  if (c.expiresAt != 0 && now > c.expiresAt) return false;
  return digestEqual(key_.mac(c.signedPayload()), c.mac);
}

Digest160 CertificationService::contentMac(std::string_view userId,
                                           std::string_view keyHex,
                                           std::string_view content) const {
  return key_.mac({"tok|", userId, "|", keyHex, "|", content});
}

ContentSignature CertificationService::signContent(
    std::string_view userId, std::string_view keyHex,
    std::string_view content) const {
  ContentSignature sig;
  sig.userId = std::string(userId);
  sig.mac = contentMac(userId, keyHex, content);
  return sig;
}

bool CertificationService::verifyContent(const ContentSignature& sig,
                                         std::string_view keyHex,
                                         std::string_view content) const {
  return digestEqual(contentMac(sig.userId, keyHex, content), sig.mac);
}

}  // namespace dharma::crypto
