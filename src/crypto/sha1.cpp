#include "crypto/sha1.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dharma::crypto {

namespace {

constexpr u32 rotl32(u32 x, int k) { return (x << k) | (x >> (32 - k)); }

// ---------------------------------------------------------------------------
// Portable kernel. Each 20-round group is one loop of five unrolled rounds;
// the five rounds rotate the roles of a..e instead of moving values, so after
// five the roles are back where they started and no round branches on its
// index.
// ---------------------------------------------------------------------------

struct Ch {
  u32 operator()(u32 b, u32 c, u32 d) const { return d ^ (b & (c ^ d)); }
};
struct Parity {
  u32 operator()(u32 b, u32 c, u32 d) const { return b ^ c ^ d; }
};
struct Maj {
  u32 operator()(u32 b, u32 c, u32 d) const { return (b & c) | (d & (b | c)); }
};

template <typename F>
inline void step(u32 a, u32& b, u32 c, u32 d, u32& e, u32 w, u32 k, F f) {
  e += rotl32(a, 5) + f(b, c, d) + k + w;
  b = rotl32(b, 30);
}

template <typename F>
inline void rounds20(u32& a, u32& b, u32& c, u32& d, u32& e, const u32* w,
                     u32 k, F f) {
  for (usize i = 0; i < 20; i += 5) {
    step(a, b, c, d, e, w[i], k, f);
    step(e, a, b, c, d, w[i + 1], k, f);
    step(d, e, a, b, c, w[i + 2], k, f);
    step(c, d, e, a, b, w[i + 3], k, f);
    step(b, c, d, e, a, w[i + 4], k, f);
  }
}

}  // namespace

namespace detail {

void sha1CompressPortable(u32* h, const u8* p, usize nblocks) {
  for (; nblocks > 0; --nblocks, p += 64) {
    u32 w[80];
    for (usize i = 0; i < 16; ++i) {
      w[i] = (static_cast<u32>(p[i * 4]) << 24) |
             (static_cast<u32>(p[i * 4 + 1]) << 16) |
             (static_cast<u32>(p[i * 4 + 2]) << 8) |
             static_cast<u32>(p[i * 4 + 3]);
    }
    for (usize i = 16; i < 80; ++i) {
      w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }
    u32 a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    rounds20(a, b, c, d, e, w, 0x5A827999u, Ch{});
    rounds20(a, b, c, d, e, w + 20, 0x6ED9EBA1u, Parity{});
    rounds20(a, b, c, d, e, w + 40, 0x8F1BBCDCu, Maj{});
    rounds20(a, b, c, d, e, w + 60, 0xCA62C1D6u, Parity{});
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
}

#if defined(__x86_64__) || defined(__i386__)

// ---------------------------------------------------------------------------
// SHA-NI kernel. ABCD live in one register (A in the top lane), E rides in
// the top lane of a second one. Four rounds per sha1rnds4; the message
// schedule for group g+1..g+3 is computed by sha1msg1/xor/sha1msg2 while
// group g's rounds run, rotating through four registers m[g % 4].
// ---------------------------------------------------------------------------

/// Rounds 4G..4G+3. e[G % 2] carries E (plus W) into this group; the other
/// slot saves ABCD, whose A becomes the next group's E via sha1nexte.
template <int G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void shaNiGroup(
    __m128i& abcd, __m128i* e, __m128i* m) {
  __m128i& cur = e[G % 2];
  const __m128i w = m[G % 4];
  if constexpr (G == 0) {
    cur = _mm_add_epi32(cur, w);
  } else {
    cur = _mm_sha1nexte_epu32(cur, w);
  }
  e[(G + 1) % 2] = abcd;
  if constexpr (G >= 3 && G <= 18) {  // W[G+1] = msg2(partial, W[G])
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], w);
  }
  abcd = _mm_sha1rnds4_epu32(abcd, cur, G / 5);
  if constexpr (G >= 1 && G <= 16) {  // start W[G+3] from W[G-1], W[G]
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], w);
  }
  if constexpr (G >= 2 && G <= 17) {  // fold W[G] into W[G+2]
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], w);
  }
}

template <int... G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void shaNiRounds(
    __m128i& abcd, __m128i* e, __m128i* m, std::integer_sequence<int, G...>) {
  (shaNiGroup<G>(abcd, e, m), ...);
}

__attribute__((target("sha,sse4.1"))) void sha1CompressShaNi(u32* h,
                                                              const u8* p,
                                                              usize nblocks) {
  // Byte-reverses each 16-byte load: SHA-1 words are big-endian and W[0]
  // belongs in the top lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  for (; nblocks > 0; --nblocks, p += 64) {
    const __m128i abcdSave = abcd;
    const __m128i eSave = e0;
    __m128i m[4];
    for (usize i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * i)),
          bswap);
    }
    __m128i e[2] = {e0, _mm_setzero_si128()};
    shaNiRounds(abcd, e, m, std::make_integer_sequence<int, 20>{});
    // After group 19, e[0] holds the ABCD that entered it: its A is E.
    e0 = _mm_sha1nexte_epu32(e[0], eSave);
    abcd = _mm_add_epi32(abcd, abcdSave);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_shuffle_epi32(abcd, 0x1B));
  h[4] = static_cast<u32>(_mm_extract_epi32(e0, 3));
}

bool sha1ShaNiSupported() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & (1u << 9)) != 0;
  const bool sse41 = (c & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  const bool sha = (b & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

#else  // not x86: no SHA-NI; the portable kernel is the only one.

void sha1CompressShaNi(u32* h, const u8* p, usize nblocks) {
  sha1CompressPortable(h, p, nblocks);
}

bool sha1ShaNiSupported() { return false; }

#endif

Sha1Compress sha1ActiveCompress() {
  static const Sha1Compress kernel =
      sha1ShaNiSupported() ? sha1CompressShaNi : sha1CompressPortable;
  return kernel;
}

}  // namespace detail

const char* sha1KernelName() {
  return detail::sha1ActiveCompress() == detail::sha1CompressShaNi
             ? "sha-ni"
             : "portable";
}

void Sha1::reset() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  totalLen_ = 0;
  blockLen_ = 0;
}

void Sha1::update(const u8* data, usize len) {
  if (len == 0) return;
  totalLen_ += len;
  if (blockLen_ > 0) {
    const usize take = std::min(len, usize{64} - blockLen_);
    std::memcpy(block_ + blockLen_, data, take);
    blockLen_ += take;
    data += take;
    len -= take;
    if (blockLen_ < 64) return;
    compress_(h_, block_, 1);
    blockLen_ = 0;
  }
  const usize whole = len / 64;
  if (whole > 0) {
    compress_(h_, data, whole);
    data += whole * 64;
    len -= whole * 64;
  }
  if (len > 0) {
    std::memcpy(block_, data, len);
    blockLen_ = len;
  }
}

Digest160 Sha1::finish() {
  const u64 bitLen = totalLen_ * 8;
  // Append 0x80, pad with zeros to 56 mod 64, then 64-bit big-endian length.
  block_[blockLen_++] = 0x80;
  if (blockLen_ > 56) {
    std::memset(block_ + blockLen_, 0, 64 - blockLen_);
    compress_(h_, block_, 1);
    blockLen_ = 0;
  }
  std::memset(block_ + blockLen_, 0, 56 - blockLen_);
  for (usize i = 0; i < 8; ++i) {
    block_[56 + i] = static_cast<u8>(bitLen >> (56 - 8 * i));
  }
  compress_(h_, block_, 1);
  blockLen_ = 0;

  Digest160 out;
  for (usize i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<u8>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<u8>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<u8>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<u8>(h_[i]);
  }
  return out;
}

Digest160 sha1(std::string_view data) {
  Sha1 h;
  h.update(data);
  return h.finish();
}

Digest160 sha1(const u8* data, usize len) {
  Sha1 h;
  h.update(data, len);
  return h.finish();
}

std::string toHex(const Digest160& d) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (u8 b : d) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

Digest160 digestFromHex(std::string_view hex) {
  if (hex.size() != 40) throw std::invalid_argument("digestFromHex: need 40 chars");
  auto nib = [](char c) -> u8 {
    if (c >= '0' && c <= '9') return static_cast<u8>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<u8>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<u8>(c - 'A' + 10);
    throw std::invalid_argument("digestFromHex: bad hex char");
  };
  Digest160 d;
  for (usize i = 0; i < 20; ++i) {
    d[i] = static_cast<u8>((nib(hex[2 * i]) << 4) | nib(hex[2 * i + 1]));
  }
  return d;
}

}  // namespace dharma::crypto
