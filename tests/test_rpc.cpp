/// Wire-format roundtrip tests for every RPC (dht/rpc.hpp).

#include "dht/rpc.hpp"

#include <gtest/gtest.h>

namespace dharma::dht {
namespace {

crypto::CertificationService cs("test-secret");

Envelope mkEnvelope(RpcType type) {
  Envelope e;
  e.type = type;
  e.rpcId = 0xdeadbeefcafef00dULL;
  e.sender.id = NodeId::fromString("sender");
  e.sender.addr = 42;
  e.credential = cs.enroll("alice", 12345);
  return e;
}

TEST(Rpc, EnvelopeRoundtrip) {
  Envelope e = mkEnvelope(RpcType::kFindNode);
  e.body = {1, 2, 3, 4};
  auto decoded = Envelope::decode(e.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, RpcType::kFindNode);
  EXPECT_EQ(decoded->rpcId, e.rpcId);
  EXPECT_EQ(decoded->sender.id, e.sender.id);
  EXPECT_EQ(decoded->sender.addr, 42u);
  EXPECT_EQ(decoded->credential.userId, "alice");
  EXPECT_EQ(decoded->credential.expiresAt, 12345u);
  EXPECT_EQ(decoded->body, e.body);
  // The credential survives byte-exact (still verifiable).
  EXPECT_TRUE(cs.verify(decoded->credential));
}

TEST(Rpc, EncodersReserveTheirExactSize) {
  // One allocation of exactly the encoded size: a short reservation would
  // regrow (capacity past size), a long one would leave slack.
  for (usize bodyLen : {usize{0}, usize{1}, usize{127}, usize{128},
                        usize{521}, usize{20000}}) {
    for (const char* user : {"", "alice", "a-much-longer-user-name"}) {
      Envelope e = mkEnvelope(RpcType::kFindNodeReply);
      e.credential = cs.enroll(user, 7);
      e.body.assign(bodyLen, 0xAB);
      const std::vector<u8> bytes = e.encode();
      EXPECT_EQ(bytes.capacity(), bytes.size()) << bodyLen << " " << user;
      ASSERT_TRUE(Envelope::decode(bytes).has_value());
    }
  }
  for (usize n : {usize{0}, usize{1}, usize{20}, usize{200}}) {
    ContactsReply rep;
    FindValueReply miss;
    for (usize i = 0; i < n; ++i) {
      Contact c{NodeId::fromString("c" + std::to_string(i)),
                net::makeAddress(0x0A000001u, static_cast<u16>(i))};
      rep.contacts.push_back(c);
      miss.contacts.push_back(c);
    }
    const std::vector<u8> a = rep.encode();
    EXPECT_EQ(a.capacity(), a.size()) << n;
    const std::vector<u8> b = miss.encode();
    EXPECT_EQ(b.capacity(), b.size()) << n;
  }
}

TEST(Rpc, EnvelopeRejectsGarbage) {
  EXPECT_FALSE(Envelope::decode({}).has_value());
  EXPECT_FALSE(Envelope::decode({0xff, 0x01}).has_value());
  std::vector<u8> truncated = mkEnvelope(RpcType::kPing).encode();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(Envelope::decode(truncated).has_value());
}

TEST(Rpc, EnvelopeRejectsTrailingBytes) {
  auto bytes = mkEnvelope(RpcType::kPing).encode();
  bytes.push_back(0x00);
  EXPECT_FALSE(Envelope::decode(bytes).has_value());
}

TEST(Rpc, EnvelopeRejectsBadType) {
  auto bytes = mkEnvelope(RpcType::kPing).encode();
  bytes[2] = 200;  // the type byte sits behind the magic + version header
  EXPECT_FALSE(Envelope::decode(bytes).has_value());
}

TEST(Rpc, FindNodeRoundtrip) {
  FindNodeReq req;
  req.target = NodeId::fromString("target");
  auto bytes = req.encode();
  ByteReader r(bytes);
  EXPECT_EQ(FindNodeReq::decode(r).target, req.target);
}

TEST(Rpc, ContactsReplyRoundtrip) {
  ContactsReply rep;
  for (u32 i = 0; i < 20; ++i) {
    rep.contacts.push_back(
        Contact{NodeId::fromString("c" + std::to_string(i)), i});
  }
  auto bytes = rep.encode();
  ByteReader r(bytes);
  auto decoded = ContactsReply::decode(r);
  ASSERT_EQ(decoded.contacts.size(), 20u);
  for (u32 i = 0; i < 20; ++i) {
    EXPECT_EQ(decoded.contacts[i], rep.contacts[i]);
  }
}

TEST(Rpc, ContactsReplyEmpty) {
  ContactsReply rep;
  auto bytes = rep.encode();
  ByteReader r(bytes);
  EXPECT_TRUE(ContactsReply::decode(r).contacts.empty());
}

TEST(Rpc, FindValueReqRoundtrip) {
  FindValueReq req;
  req.key = NodeId::fromString("key");
  req.topN = 100;
  req.maxBytes = 1200;
  auto bytes = req.encode();
  ByteReader r(bytes);
  auto d = FindValueReq::decode(r);
  EXPECT_EQ(d.key, req.key);
  EXPECT_EQ(d.topN, 100u);
  EXPECT_EQ(d.maxBytes, 1200u);
}

TEST(Rpc, FindValueReplyWithValue) {
  FindValueReply rep;
  rep.found = true;
  rep.view.entries = {{"rock", 17}, {"pop", 3}};
  rep.view.payload = "uri://x";
  rep.view.truncated = true;
  rep.view.totalEntries = 99;
  auto bytes = rep.encode();
  ByteReader r(bytes);
  auto d = FindValueReply::decode(r);
  EXPECT_TRUE(d.found);
  ASSERT_EQ(d.view.entries.size(), 2u);
  EXPECT_EQ(d.view.entries[0].name, "rock");
  EXPECT_EQ(d.view.entries[0].weight, 17u);
  EXPECT_EQ(d.view.payload, "uri://x");
  EXPECT_TRUE(d.view.truncated);
  EXPECT_EQ(d.view.totalEntries, 99u);
}

TEST(Rpc, FindValueReplyWithContacts) {
  FindValueReply rep;
  rep.found = false;
  rep.contacts.push_back(Contact{NodeId::fromString("x"), 9});
  auto bytes = rep.encode();
  ByteReader r(bytes);
  auto d = FindValueReply::decode(r);
  EXPECT_FALSE(d.found);
  ASSERT_EQ(d.contacts.size(), 1u);
  EXPECT_EQ(d.contacts[0].addr, 9u);
}

TEST(Rpc, StoreReqRoundtrip) {
  StoreReq req;
  req.key = NodeId::fromString("key");
  req.tokens.push_back(StoreToken{TokenKind::kIncrement, "tag-a", 3, {}});
  req.tokens.push_back(StoreToken{TokenKind::kIncrementIfNewB, "tag-b", 7, {}});
  req.tokens.push_back(StoreToken{TokenKind::kSetPayload, {}, 1, "uri://y"});
  req.signature = cs.signContent("bob", req.key.toHex(), req.canonicalBatch());
  auto bytes = req.encode();
  ByteReader r(bytes);
  auto d = StoreReq::decode(r);
  EXPECT_EQ(d.key, req.key);
  ASSERT_EQ(d.tokens.size(), 3u);
  EXPECT_EQ(d.tokens[0].kind, TokenKind::kIncrement);
  EXPECT_EQ(d.tokens[0].entry, "tag-a");
  EXPECT_EQ(d.tokens[0].delta, 3u);
  EXPECT_EQ(d.tokens[1].kind, TokenKind::kIncrementIfNewB);
  EXPECT_EQ(d.tokens[2].payload, "uri://y");
  // Signature still verifies against the re-encoded batch.
  EXPECT_TRUE(cs.verifyContent(d.signature, d.key.toHex(), d.canonicalBatch()));
}

TEST(Rpc, StoreReqRejectsBadKind) {
  StoreReq req;
  req.key = NodeId::fromString("key");
  req.tokens.push_back(StoreToken{TokenKind::kIncrement, "a", 1, {}});
  auto bytes = req.encode();
  // token kind byte sits right after the 20-byte key + 1-byte putId +
  // 1-byte chunk + 1-byte count (all small enough for 1-byte varints).
  bytes[23] = 99;
  ByteReader r(bytes);
  EXPECT_THROW(StoreReq::decode(r), DecodeError);
}

TEST(Rpc, StoreReplyRoundtrip) {
  for (bool ok : {true, false}) {
    StoreReply rep;
    rep.ok = ok;
    auto bytes = rep.encode();
    ByteReader r(bytes);
    EXPECT_EQ(StoreReply::decode(r).ok, ok);
  }
}

TEST(Rpc, AllTypesSurviveEnvelope) {
  for (RpcType t : {RpcType::kPing, RpcType::kPong, RpcType::kFindNode,
                    RpcType::kFindNodeReply, RpcType::kFindValue,
                    RpcType::kFindValueReply, RpcType::kStore,
                    RpcType::kStoreReply}) {
    Envelope e = mkEnvelope(t);
    auto d = Envelope::decode(e.encode());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->type, t);
  }
}

}  // namespace
}  // namespace dharma::dht
