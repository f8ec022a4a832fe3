/// HMAC-SHA1 against RFC 2202 test vectors, the precomputed-key
/// HmacSha1Key, and the Certification Service MACs built on it.

#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "crypto/identity.hpp"
#include "sha1_reference.hpp"
#include "util/rng.hpp"

namespace dharma::crypto {
namespace {

TEST(Hmac, Rfc2202Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(toHex(hmacSha1(key, "Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(Hmac, Rfc2202Case2) {
  EXPECT_EQ(toHex(hmacSha1("Jefe", "what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(Hmac, Rfc2202Case3) {
  std::string key(20, '\xaa');
  std::string data(50, '\xdd');
  EXPECT_EQ(toHex(hmacSha1(key, data)),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST(Hmac, Rfc2202Case6LongKey) {
  std::string key(80, '\xaa');
  EXPECT_EQ(toHex(hmacSha1(key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(Hmac, KeySensitivity) {
  EXPECT_NE(hmacSha1("key1", "data"), hmacSha1("key2", "data"));
}

TEST(Hmac, DataSensitivity) {
  EXPECT_NE(hmacSha1("key", "data1"), hmacSha1("key", "data2"));
}

TEST(Hmac, EmptyData) {
  // Self-consistency: defined, deterministic, key-dependent.
  auto a = hmacSha1("key", "");
  auto b = hmacSha1("key", "");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, hmacSha1("other", ""));
}

TEST(DigestEqual, Works) {
  Digest160 a = sha1("same");
  Digest160 b = sha1("same");
  Digest160 c = sha1("diff");
  EXPECT_TRUE(digestEqual(a, b));
  EXPECT_FALSE(digestEqual(a, c));
}

/// RFC 2202 §3, all seven cases, through one HmacSha1Key per key and
/// through the one-shot function.
TEST(HmacSha1Key, Rfc2202AllCases) {
  std::string key4;
  for (int i = 1; i <= 25; ++i) key4.push_back(static_cast<char>(i));
  struct Case {
    std::string key, data;
    const char* hex;
  };
  const Case cases[] = {
      {std::string(20, '\x0b'), "Hi There",
       "b617318655057264e28bc0b6fb378c8ef146be00"},
      {"Jefe", "what do ya want for nothing?",
       "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"},
      {std::string(20, '\xaa'), std::string(50, '\xdd'),
       "125d7342b9ac11cd91a39af48aa17b4f63f175d3"},
      {key4, std::string(50, '\xcd'),
       "4c9007f4026250c6bc8414f9bf50c86c2d7235da"},
      {std::string(20, '\x0c'), "Test With Truncation",
       "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"},
      {std::string(80, '\xaa'),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "aa4ae5e15272d00e95705637ce8a3b55ed402112"},
      {std::string(80, '\xaa'),
       "Test Using Larger Than Block-Size Key and Larger Than One "
       "Block-Size Data",
       "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"},
  };
  for (usize i = 0; i < std::size(cases); ++i) {
    const Case& c = cases[i];
    HmacSha1Key key(c.key);
    EXPECT_EQ(toHex(key.mac(c.data)), c.hex) << "case " << i + 1;
    EXPECT_EQ(toHex(key.mac(c.data)), c.hex) << "case " << i + 1 << " again";
    EXPECT_EQ(toHex(hmacSha1(c.key, c.data)), c.hex) << "case " << i + 1;
  }
}

/// One key object serving interleaved messages of every padding shape
/// gives the one-shot result each time: mac() must not disturb the
/// precomputed pad states.
TEST(HmacSha1Key, ReusedKeyMatchesOneShotInterleaved) {
  const std::string secret = "likir-cs-secret";
  HmacSha1Key key(secret);
  Rng rng(11);
  std::vector<std::string> msgs;
  for (usize len : {0, 1, 20, 55, 56, 63, 64, 65, 119, 120, 200, 600}) {
    std::string m(len, '\0');
    for (char& ch : m) ch = static_cast<char>(rng.uniform(256));
    msgs.push_back(std::move(m));
  }
  for (int round = 0; round < 3; ++round) {
    for (usize i = 0; i < msgs.size(); ++i) {
      const std::string& m = msgs[(i * 7 + round) % msgs.size()];
      EXPECT_EQ(key.mac(m), hmacSha1(secret, m)) << "length " << m.size();
    }
  }
}

/// The multi-part form MACs the concatenation without building it.
TEST(HmacSha1Key, PartsEqualConcatenation) {
  HmacSha1Key key("k");
  const std::string big(150, 'q');
  const Digest160 joined = key.mac("tok|alice|" + big + "|");
  const Digest160 empty = key.mac("");
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(key.mac({"tok|", "alice", "|", big, "|", ""}), joined) << i;
    EXPECT_EQ(key.mac({}), empty) << i;
  }
}

/// Key lengths on both sides of the 64-byte block (including empty and
/// hashed-down keys) against the textbook HMAC.
TEST(HmacSha1Key, MatchesReferenceAcrossKeyAndDataLengths) {
  Rng rng(5);
  for (usize keyLen : {0, 1, 19, 20, 63, 64, 65, 100, 130}) {
    std::string k(keyLen, '\0');
    for (char& ch : k) ch = static_cast<char>(rng.uniform(256));
    HmacSha1Key key(k);
    for (usize dataLen : {0, 1, 55, 56, 64, 119, 128, 300}) {
      std::string d(dataLen, '\0');
      for (char& ch : d) ch = static_cast<char>(rng.uniform(256));
      EXPECT_EQ(key.mac(d), reference::hmacSha1(k, d))
          << "key " << keyLen << " data " << dataLen;
    }
  }
}

/// Certification Service MACs are exactly the documented HMACs, so a kernel
/// change cannot move a MAC any replica or saved credential holds.
TEST(CertificationServiceMac, EqualsDocumentedHmac) {
  crypto::CertificationService cs("cs-secret");
  const Credential c = cs.enroll("alice", 99);
  EXPECT_EQ(c.mac, reference::hmacSha1("cs-secret", c.signedPayload()));
  const ContentSignature sig = cs.signContent("alice", "00ff", "token-body");
  EXPECT_EQ(sig.mac,
            reference::hmacSha1("cs-secret", "tok|alice|00ff|token-body"));
}

/// Sign, verify, and reject a content MAC with any single bit flipped.
TEST(CertificationServiceMac, ContentRoundTripRejectsEveryBitFlip) {
  crypto::CertificationService cs("cs-secret");
  const std::string content(200, 'c');
  const ContentSignature sig = cs.signContent("bob", "abcd", content);
  ASSERT_TRUE(cs.verifyContent(sig, "abcd", content));
  for (usize bit = 0; bit < 8 * sig.mac.size(); ++bit) {
    ContentSignature bad = sig;
    bad.mac[bit / 8] = static_cast<u8>(bad.mac[bit / 8] ^ (1u << (bit % 8)));
    EXPECT_FALSE(cs.verifyContent(bad, "abcd", content)) << "bit " << bit;
  }
  EXPECT_FALSE(cs.verifyContent(sig, "abce", content));
  EXPECT_FALSE(cs.verifyContent(sig, "abcd", content + "x"));
}

}  // namespace
}  // namespace dharma::crypto
