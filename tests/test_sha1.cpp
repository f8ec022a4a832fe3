/// SHA-1 against FIPS 180-1 / RFC 3174 vectors, plus boundary coverage,
/// and each compression kernel (portable, SHA-NI) run directly.

#include "crypto/sha1.hpp"

#include <gtest/gtest.h>

#include "sha1_reference.hpp"
#include "util/rng.hpp"

namespace dharma::crypto {
namespace {

TEST(Sha1, EmptyString) {
  EXPECT_EQ(toHex(sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(toHex(sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(toHex(sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(toHex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog and more";
  Digest160 oneShot = sha1(msg);
  for (usize split = 0; split <= msg.size(); split += 7) {
    Sha1 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), oneShot) << "split at " << split;
  }
}

/// Padding boundaries: messages of length 55/56/63/64/65 exercise the
/// single-vs-double final block paths.
class Sha1Boundary : public ::testing::TestWithParam<usize> {};

TEST_P(Sha1Boundary, MatchesSelfConsistentIncremental) {
  std::string msg(GetParam(), 'z');
  Digest160 oneShot = sha1(msg);
  Sha1 h;
  for (char c : msg) h.update(std::string(1, c));
  EXPECT_EQ(h.finish(), oneShot);
}

INSTANTIATE_TEST_SUITE_P(Lengths, Sha1Boundary,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 127,
                                           128, 129));

TEST(Sha1, KnownLength64) {
  // Exactly one block of input (64 bytes of 'a').
  EXPECT_EQ(toHex(sha1(std::string(64, 'a'))),
            "0098ba824b5c16427bd7a1122a5a442a25ec644d");
}

TEST(Sha1, ResetReuses) {
  Sha1 h;
  h.update("abc");
  Digest160 first = h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.finish(), first);
}

TEST(Sha1, DifferentInputsDiffer) {
  EXPECT_NE(sha1("a"), sha1("b"));
  EXPECT_NE(sha1("abc"), sha1("abd"));
}

TEST(Sha1Hex, Roundtrip) {
  Digest160 d = sha1("roundtrip");
  EXPECT_EQ(digestFromHex(toHex(d)), d);
}

TEST(Sha1Hex, UppercaseAccepted) {
  Digest160 d = sha1("x");
  std::string hex = toHex(d);
  for (auto& c : hex) c = static_cast<char>(toupper(c));
  EXPECT_EQ(digestFromHex(hex), d);
}

TEST(Sha1Hex, BadInputThrows) {
  EXPECT_THROW(digestFromHex("too-short"), std::invalid_argument);
  EXPECT_THROW(digestFromHex(std::string(40, 'g')), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Kernels. Each case runs one kernel directly through Sha1(kernel), so a
// kernel the dispatcher does not pick on this CPU is still tested; the
// SHA-NI cases skip where CPUID lacks the SHA extensions.
// ---------------------------------------------------------------------------

struct KernelCase {
  const char* name;
  detail::Sha1Compress fn;
  bool needsShaNi;
};

void PrintTo(const KernelCase& k, std::ostream* os) { *os << k.name; }

const KernelCase kKernels[] = {
    {"Portable", detail::sha1CompressPortable, false},
    {"ShaNi", detail::sha1CompressShaNi, true},
};

class Sha1Kernel : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (GetParam().needsShaNi && !detail::sha1ShaNiSupported()) {
      GTEST_SKIP() << "CPU lacks the SHA extensions";
    }
  }

  Digest160 hash(std::string_view msg) const {
    Sha1 h(GetParam().fn);
    h.update(msg);
    return h.finish();
  }
};

/// FIPS 180-1 appendix A/B, RFC 3174 §7.3 TEST1-4, the FIPS 180-2 896-bit
/// message, and the empty / one-block edges.
TEST_P(Sha1Kernel, StandardVectors) {
  struct Vec {
    std::string msg;
    const char* hex;
  };
  std::string rfcTest4;
  for (int i = 0; i < 80; ++i) rfcTest4 += "01234567";
  const Vec vecs[] = {
      {"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
      {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "a49b2446a02c645bf419f995b67091253a04a259"},
      {std::string(64, 'a'), "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {rfcTest4, "dea356a2cddd90c7a7ecedc5ebb563934f460452"},
      {std::string(1000000, 'a'), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
  };
  for (const Vec& v : vecs) {
    EXPECT_EQ(toHex(hash(v.msg)), v.hex) << "length " << v.msg.size();
  }
}

/// Every length 0-600 (every padding case, up to ten blocks) against the
/// textbook oracle: once as a single update, once cut at random points. The
/// second hasher is reset and reused, so padding that leaves a byte of the
/// previous message in the block buffer shows up.
TEST_P(Sha1Kernel, MatchesReferenceAtEveryLength) {
  Rng rng(0x5A1);
  std::string data(600, '\0');
  for (char& c : data) c = static_cast<char>(rng.uniform(256));
  Sha1 h(GetParam().fn);
  for (usize len = 0; len <= data.size(); ++len) {
    std::string_view msg(data.data(), len);
    const Digest160 want = reference::sha1(msg);
    ASSERT_EQ(hash(msg), want) << "single update, length " << len;

    h.reset();
    usize pos = 0;
    while (pos < len) {
      const usize take = std::min<usize>(len - pos, rng.uniform(150));
      h.update(msg.substr(pos, take));
      pos += take;
    }
    ASSERT_EQ(h.finish(), want) << "random splits, length " << len;
  }
}

/// A multi-block call folds the same blocks as one call per block.
TEST_P(Sha1Kernel, MultiBlockCallEqualsBlockByBlock) {
  Rng rng(77);
  std::vector<u8> blocks(64 * 9);
  for (u8& b : blocks) b = static_cast<u8>(rng.uniform(256));
  u32 together[5] = {1, 2, 3, 4, 5};
  u32 oneByOne[5] = {1, 2, 3, 4, 5};
  GetParam().fn(together, blocks.data(), 9);
  for (usize i = 0; i < 9; ++i) GetParam().fn(oneByOne, &blocks[64 * i], 1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(together[i], oneByOne[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha1Kernel, ::testing::ValuesIn(kKernels),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

/// The two kernels agree on raw compression of random states and blocks.
TEST(Sha1Kernels, PortableAndShaNiAgree) {
  if (!detail::sha1ShaNiSupported()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  Rng rng(2024);
  std::vector<u8> blocks(64 * 4);
  for (int trial = 0; trial < 200; ++trial) {
    for (u8& b : blocks) b = static_cast<u8>(rng.uniform(256));
    u32 a[5], b[5];
    for (int i = 0; i < 5; ++i) a[i] = b[i] = static_cast<u32>(rng.next());
    const usize n = 1 + rng.uniform(4);
    detail::sha1CompressPortable(a, blocks.data(), n);
    detail::sha1CompressShaNi(b, blocks.data(), n);
    for (int i = 0; i < 5; ++i) ASSERT_EQ(a[i], b[i]) << "trial " << trial;
  }
}

TEST(Sha1Kernels, DispatchMatchesCpuid) {
  const bool shaNi = detail::sha1ShaNiSupported();
  EXPECT_EQ(detail::sha1ActiveCompress(),
            shaNi ? detail::sha1CompressShaNi : detail::sha1CompressPortable);
  EXPECT_STREQ(sha1KernelName(), shaNi ? "sha-ni" : "portable");
}

}  // namespace
}  // namespace dharma::crypto
