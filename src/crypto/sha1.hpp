#pragma once
/// \file sha1.hpp
/// \brief From-scratch SHA-1 (FIPS 180-1).
///
/// SHA-1 is the hash Kademlia historically keys its 160-bit identifier
/// space with, and the paper's block keys are "the hash of t|<type>".
/// Collision resistance is irrelevant here (keys only need to spread
/// uniformly over the ring), so SHA-1's cryptographic retirement does not
/// affect the reproduction.
///
/// Two compression kernels compute the same function. On x86 CPUs that
/// report the SHA extensions (CPUID leaf 7, EBX bit 29) plus SSSE3/SSE4.1,
/// a SHA-NI kernel written with compiler intrinsics runs; everywhere else a
/// portable scalar kernel does. The choice is made once, on first use,
/// from CPUID alone (a function-local static, so hashing inside other
/// static initialisers is safe); nothing configures it. sha1KernelName()
/// reports the choice. Sha1::update hands whole 64-byte blocks straight
/// from the caller's buffer to the kernel and buffers only a partial tail.

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace dharma::crypto {

/// 160-bit digest.
using Digest160 = std::array<u8, 20>;

namespace detail {

/// A compression kernel: absorbs \p nblocks consecutive 64-byte blocks at
/// \p p into the five-word chaining state \p h.
using Sha1Compress = void (*)(u32* h, const u8* p, usize nblocks);

/// Portable scalar kernel; runs on every CPU.
void sha1CompressPortable(u32* h, const u8* p, usize nblocks);

/// SHA-NI kernel. Call only when sha1ShaNiSupported() is true.
void sha1CompressShaNi(u32* h, const u8* p, usize nblocks);

/// True when CPUID reports SHA, SSSE3 and SSE4.1 (always false off x86).
bool sha1ShaNiSupported();

/// The kernel CPUID selected for this process.
Sha1Compress sha1ActiveCompress();

}  // namespace detail

/// Incremental SHA-1 hasher.
class Sha1 {
 public:
  Sha1() : Sha1(detail::sha1ActiveCompress()) {}

  /// Hashes with a specific kernel; lets tests and benches run each kernel
  /// directly. Everything else uses the default constructor.
  explicit Sha1(detail::Sha1Compress kernel) : compress_(kernel) { reset(); }

  /// Clears state for a fresh message.
  void reset();

  /// Absorbs \p len bytes.
  void update(const u8* data, usize len);
  void update(std::string_view s) {
    update(reinterpret_cast<const u8*>(s.data()), s.size());
  }
  void update(const std::vector<u8>& v) { update(v.data(), v.size()); }

  /// Finalises and returns the digest; the hasher must be reset() before
  /// reuse.
  Digest160 finish();

 private:
  u32 h_[5];
  detail::Sha1Compress compress_;
  u64 totalLen_ = 0;
  u8 block_[64];
  usize blockLen_ = 0;
};

/// One-shot convenience.
Digest160 sha1(std::string_view data);
Digest160 sha1(const u8* data, usize len);

/// Name of the kernel CPUID selected: "sha-ni" or "portable". Read-only.
const char* sha1KernelName();

/// Lower-case hex rendering of a digest.
std::string toHex(const Digest160& d);

/// Parses 40 hex chars into a digest; throws std::invalid_argument.
Digest160 digestFromHex(std::string_view hex);

}  // namespace dharma::crypto
