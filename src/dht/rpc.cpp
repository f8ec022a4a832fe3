#include "dht/rpc.hpp"

namespace dharma::dht {

namespace {
/// Validates a decoded element count before it reaches reserve(). A count
/// is attacker-controlled once payloads arrive from a real socket: left
/// unchecked it drives a multi-gigabyte allocation whose std::length_error
/// escapes the DecodeError-only catch blocks in the RPC handlers. Every
/// element occupies at least \p minBytesPerElement on the wire, so any
/// count beyond remaining()/min is provably truncated — reject it here.
usize checkedCount(const ByteReader& r, u64 n, usize minBytesPerElement) {
  if (n > r.remaining() / minBytesPerElement) {
    throw DecodeError("element count exceeds remaining bytes");
  }
  return static_cast<usize>(n);
}

/// Wire footprint of one Contact: a 20-byte NodeId + u32 IPv4 + u16 port.
constexpr usize kContactBytes = 26;

/// Exact encoded size of a varint-counted contact list.
usize contactsBytes(const std::vector<Contact>& contacts) {
  return ByteWriter::varintSize(contacts.size()) +
         contacts.size() * kContactBytes;
}

/// Exact encoded size of writeCredential(c).
usize credentialBytes(const crypto::Credential& c) {
  return ByteWriter::varintSize(c.userId.size()) + c.userId.size() +
         c.nodeId.size() + sizeof(c.expiresAt) + c.mac.size();
}

/// Smallest BlockEntry: 1-byte name length (empty) + 1-byte weight varint.
constexpr usize kMinBlockEntryBytes = 2;
/// Smallest StoreToken: kind + entry length + delta + payload length.
constexpr usize kMinStoreTokenBytes = 4;
}  // namespace

void writeNodeId(ByteWriter& w, const NodeId& id) {
  w.writeRaw(id.bytes.data(), id.bytes.size());
}

NodeId readNodeId(ByteReader& r) {
  NodeId id;
  r.readRaw(id.bytes.data(), id.bytes.size());
  return id;
}

void writeContact(ByteWriter& w, const Contact& c) {
  writeNodeId(w, c.id);
  w.writeU32(net::addressIp(c.addr));
  w.writeU16(net::addressPort(c.addr));
}

Contact readContact(ByteReader& r) {
  Contact c;
  c.id = readNodeId(r);
  u32 ip = r.readU32();
  u16 port = r.readU16();
  c.addr = net::makeAddress(ip, port);
  return c;
}

void writeCredential(ByteWriter& w, const crypto::Credential& c) {
  w.writeString(c.userId);
  w.writeRaw(c.nodeId.data(), c.nodeId.size());
  w.writeU64(c.expiresAt);
  w.writeRaw(c.mac.data(), c.mac.size());
}

crypto::Credential readCredential(ByteReader& r) {
  crypto::Credential c;
  c.userId = r.readString();
  r.readRaw(c.nodeId.data(), c.nodeId.size());
  c.expiresAt = r.readU64();
  r.readRaw(c.mac.data(), c.mac.size());
  return c;
}

void writeBlockView(ByteWriter& w, const BlockView& v) {
  w.writeVarint(v.entries.size());
  for (const auto& e : v.entries) {
    w.writeString(e.name);
    w.writeVarint(e.weight);
  }
  w.writeString(v.payload);
  w.writeU8(v.truncated ? 1 : 0);
  w.writeVarint(v.totalEntries);
}

BlockView readBlockView(ByteReader& r) {
  BlockView v;
  usize n = checkedCount(r, r.readVarint(), kMinBlockEntryBytes);
  v.entries.reserve(n);
  for (usize i = 0; i < n; ++i) {
    BlockEntry e;
    e.name = r.readString();
    e.weight = r.readVarint();
    v.entries.push_back(std::move(e));
  }
  v.payload = r.readString();
  v.truncated = r.readU8() != 0;
  v.totalEntries = r.readVarint();
  return v;
}

std::vector<u8> Envelope::encode() const {
  ByteWriter w;
  w.reserve(3 + sizeof(rpcId) + kContactBytes + credentialBytes(credential) +
            ByteWriter::varintSize(body.size()) + body.size());
  w.writeU8(kWireMagic);
  w.writeU8(kWireVersion);
  w.writeU8(static_cast<u8>(type));
  w.writeU64(rpcId);
  writeContact(w, sender);
  writeCredential(w, credential);
  w.writeBytes(body.data(), body.size());
  return w.take();
}

std::optional<Envelope> Envelope::decode(const std::vector<u8>& data) {
  try {
    ByteReader r(data);
    Envelope e;
    // Strict version gate: v1 datagrams led with the RpcType byte (0..9),
    // which can never equal the magic, so they reject here — cleanly, not
    // as a misparse of the remaining fields.
    if (r.readU8() != kWireMagic) return std::nullopt;
    if (r.readU8() != kWireVersion) return std::nullopt;
    u8 t = r.readU8();
    if (t > static_cast<u8>(RpcType::kStoreCacheReply)) return std::nullopt;
    e.type = static_cast<RpcType>(t);
    e.rpcId = r.readU64();
    e.sender = readContact(r);
    e.credential = readCredential(r);
    e.body = r.readBytes();
    if (!r.atEnd()) return std::nullopt;
    return e;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::vector<u8> FindNodeReq::encode() const {
  ByteWriter w;
  writeNodeId(w, target);
  return w.take();
}

FindNodeReq FindNodeReq::decode(ByteReader& r) {
  FindNodeReq q;
  q.target = readNodeId(r);
  return q;
}

std::vector<u8> ContactsReply::encode() const {
  ByteWriter w;
  w.reserve(contactsBytes(contacts));
  w.writeVarint(contacts.size());
  for (const auto& c : contacts) writeContact(w, c);
  return w.take();
}

ContactsReply ContactsReply::decode(ByteReader& r) {
  ContactsReply rep;
  usize n = checkedCount(r, r.readVarint(), kContactBytes);
  rep.contacts.reserve(n);
  for (usize i = 0; i < n; ++i) rep.contacts.push_back(readContact(r));
  return rep;
}

std::vector<u8> FindValueReq::encode() const {
  ByteWriter w;
  writeNodeId(w, key);
  w.writeU32(topN);
  w.writeU32(maxBytes);
  w.writeU8(allowCached ? 1 : 0);
  return w.take();
}

FindValueReq FindValueReq::decode(ByteReader& r) {
  FindValueReq q;
  q.key = readNodeId(r);
  q.topN = r.readU32();
  q.maxBytes = r.readU32();
  q.allowCached = r.readU8() != 0;
  return q;
}

std::vector<u8> FindValueReply::encode() const {
  ByteWriter w;
  if (!found) w.reserve(1 + contactsBytes(contacts));
  w.writeU8(found ? 1 : 0);
  if (found) {
    w.writeU8(cached ? 1 : 0);
    writeBlockView(w, view);
  } else {
    w.writeVarint(contacts.size());
    for (const auto& c : contacts) writeContact(w, c);
  }
  return w.take();
}

FindValueReply FindValueReply::decode(ByteReader& r) {
  FindValueReply rep;
  rep.found = r.readU8() != 0;
  if (rep.found) {
    rep.cached = r.readU8() != 0;
    rep.view = readBlockView(r);
  } else {
    usize n = checkedCount(r, r.readVarint(), kContactBytes);
    rep.contacts.reserve(n);
    for (usize i = 0; i < n; ++i) rep.contacts.push_back(readContact(r));
  }
  return rep;
}

std::string StoreReq::canonicalBatch() const {
  std::string s = std::to_string(putId) + '|' + std::to_string(chunk) + '\n';
  for (const auto& t : tokens) {
    s += t.canonical();
    s += '\n';
  }
  return s;
}

std::vector<u8> StoreReq::encode() const {
  ByteWriter w;
  writeNodeId(w, key);
  w.writeVarint(putId);
  w.writeVarint(chunk);
  w.writeVarint(tokens.size());
  for (const auto& t : tokens) {
    w.writeU8(static_cast<u8>(t.kind));
    w.writeString(t.entry);
    w.writeVarint(t.delta);
    w.writeString(t.payload);
  }
  w.writeString(signature.userId);
  w.writeRaw(signature.mac.data(), signature.mac.size());
  return w.take();
}

StoreReq StoreReq::decode(ByteReader& r) {
  StoreReq q;
  q.key = readNodeId(r);
  q.putId = r.readVarint();
  q.chunk = static_cast<u32>(r.readVarint());
  usize n = checkedCount(r, r.readVarint(), kMinStoreTokenBytes);
  q.tokens.reserve(n);
  for (usize i = 0; i < n; ++i) {
    StoreToken t;
    u8 kind = r.readU8();
    if (kind > static_cast<u8>(TokenKind::kMergeMax)) {
      throw DecodeError("StoreReq: bad token kind");
    }
    t.kind = static_cast<TokenKind>(kind);
    t.entry = r.readString();
    t.delta = r.readVarint();
    t.payload = r.readString();
    q.tokens.push_back(std::move(t));
  }
  q.signature.userId = r.readString();
  r.readRaw(q.signature.mac.data(), q.signature.mac.size());
  return q;
}

std::vector<u8> StoreReply::encode() const {
  ByteWriter w;
  w.writeU8(ok ? 1 : 0);
  return w.take();
}

StoreReply StoreReply::decode(ByteReader& r) {
  StoreReply rep;
  rep.ok = r.readU8() != 0;
  return rep;
}

std::vector<u8> StoreCacheReq::encode() const {
  ByteWriter w;
  writeNodeId(w, key);
  w.writeVarint(ttlUs);
  writeBlockView(w, view);
  return w.take();
}

StoreCacheReq StoreCacheReq::decode(ByteReader& r) {
  StoreCacheReq q;
  q.key = readNodeId(r);
  q.ttlUs = r.readVarint();
  q.view = readBlockView(r);
  return q;
}

std::vector<u8> StoreCacheReply::encode() const {
  ByteWriter w;
  w.writeU8(ok ? 1 : 0);
  return w.take();
}

StoreCacheReply StoreCacheReply::decode(ByteReader& r) {
  StoreCacheReply rep;
  rep.ok = r.readU8() != 0;
  return rep;
}

}  // namespace dharma::dht
