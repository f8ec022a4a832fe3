#pragma once
/// \file buffer.hpp
/// \brief Bounds-checked binary serialization buffers.
///
/// Every RPC in the simulated overlay is encoded to bytes so that the
/// network layer can account for payload sizes and enforce the UDP MTU the
/// paper discusses (Section V-A: oversized GET responses must be filtered
/// index-side). Integers are little-endian; varints use LEB128.

#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace dharma {

/// Thrown by ByteReader on truncated or malformed input.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only byte sink.
class ByteWriter {
 public:
  /// Raw bytes written so far.
  const std::vector<u8>& bytes() const { return buf_; }

  /// Moves the buffer out.
  std::vector<u8> take() { return std::move(buf_); }

  usize size() const { return buf_.size(); }

  /// Pre-sizes the buffer for \p n more bytes, so an encoder that knows
  /// its exact size allocates once.
  void reserve(usize n) { buf_.reserve(buf_.size() + n); }

  /// Bytes writeVarint(v) emits.
  static usize varintSize(u64 v) {
    usize n = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++n;
    }
    return n;
  }

  void writeU8(u8 v) { buf_.push_back(v); }
  void writeU16(u16 v) { writeLE(v); }
  void writeU32(u32 v) { writeLE(v); }
  void writeU64(u64 v) { writeLE(v); }

  /// LEB128 unsigned varint (1 byte for values < 128).
  void writeVarint(u64 v);

  /// Length-prefixed (varint) byte string.
  void writeBytes(const u8* data, usize len);

  /// Length-prefixed (varint) UTF-8 string.
  void writeString(std::string_view s) {
    writeBytes(reinterpret_cast<const u8*>(s.data()), s.size());
  }

  /// Raw bytes without a length prefix (fixed-size fields).
  void writeRaw(const u8* data, usize len) { buf_.insert(buf_.end(), data, data + len); }

 private:
  std::vector<u8> buf_;

  // One resize per integer rather than a push_back (and capacity check) per
  // byte.
  template <typename T>
  void writeLE(T v) {
    const usize at = buf_.size();
    buf_.resize(at + sizeof(T));
    for (usize i = 0; i < sizeof(T); ++i) {
      buf_[at + i] = static_cast<u8>(v >> (8 * i));
    }
  }
};

/// Sequential bounds-checked reader over a byte span.
class ByteReader {
 public:
  ByteReader(const u8* data, usize len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<u8>& v) : ByteReader(v.data(), v.size()) {}

  usize remaining() const { return len_ - pos_; }
  bool atEnd() const { return pos_ == len_; }

  u8 readU8();
  u16 readU16() { return readLE<u16>(); }
  u32 readU32() { return readLE<u32>(); }
  u64 readU64() { return readLE<u64>(); }
  u64 readVarint();
  std::vector<u8> readBytes();
  std::string readString();
  void readRaw(u8* out, usize len);

 private:
  const u8* data_;
  usize len_;
  usize pos_ = 0;

  void need(usize n) const {
    if (len_ - pos_ < n) throw DecodeError("truncated buffer");
  }

  template <typename T>
  T readLE() {
    need(sizeof(T));
    T v = 0;
    for (usize i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }
};

}  // namespace dharma
