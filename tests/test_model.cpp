/// Tests for exact and approximated folksonomy maintenance
/// (folksonomy/model.hpp) — including the paper's Figure 2 examples and the
/// structural invariants of Approximations A and B.

#include "folksonomy/model.hpp"

#include <gtest/gtest.h>

#include "folksonomy/derive.hpp"

namespace dharma::folk {
namespace {

constexpr u32 t1 = 0, t2 = 1, t3 = 2;
constexpr u32 r1 = 0, r2 = 1, r3 = 2;

/// Builds the initial state of the paper's Figure 2: r1 tagged t1 (u=1),
/// r2 tagged t1 (u=3) and t2 (u=2); FG: sim(t1,t2)=3, sim(t2,t1)=2.
FolksonomyModel figure2Start(MaintenanceConfig cfg = exactMode()) {
  FolksonomyModel m(cfg, /*seed=*/1);
  m.insertResource(r1, std::vector<u32>{t1});
  m.insertResource(r2, std::vector<u32>{t1, t2});
  // Raise u(t1,r2) to 3 and u(t2,r2) to 2 by re-tagging.
  m.tagResource(r2, t1);
  m.tagResource(r2, t1);
  m.tagResource(r2, t2);
  return m;
}

TEST(ModelExact, Figure2InitialState) {
  FolksonomyModel m = figure2Start();
  EXPECT_EQ(m.trg().weight(r1, t1), 1u);
  EXPECT_EQ(m.trg().weight(r2, t1), 3u);
  EXPECT_EQ(m.trg().weight(r2, t2), 2u);
  // sim(t1,t2): insert gives 1, then re-tag t1 twice (sim(t1,t2) unchanged
  // — t1 already present, forward skipped; reverse touches (t2,t1));
  // re-tag t2 once increments sim(t1,t2) by 1... Let's check against the
  // defining formula instead: sim(t1,t2) = Σ_{r∈Res(t1)} u(t2,r) = u(t2,r2) = 2.
  EXPECT_EQ(m.fg().weight(t1, t2), 2u);
  // sim(t2,t1) = u(t1,r2) = 3.
  EXPECT_EQ(m.fg().weight(t2, t1), 3u);
}

TEST(ModelExact, Figure2aResourceInsertion) {
  FolksonomyModel m = figure2Start();
  u64 s12 = m.fg().weight(t1, t2);
  u64 s21 = m.fg().weight(t2, t1);
  // Insert r3 labelled {t1, t2, t3} (Figure 2a): every ordered pair +1.
  m.insertResource(r3, std::vector<u32>{t1, t2, t3});
  EXPECT_EQ(m.fg().weight(t1, t2), s12 + 1);
  EXPECT_EQ(m.fg().weight(t2, t1), s21 + 1);
  EXPECT_EQ(m.fg().weight(t1, t3), 1u);
  EXPECT_EQ(m.fg().weight(t3, t1), 1u);
  EXPECT_EQ(m.fg().weight(t2, t3), 1u);
  EXPECT_EQ(m.fg().weight(t3, t2), 1u);
  EXPECT_EQ(m.trg().weight(r3, t1), 1u);
  EXPECT_EQ(m.trg().weight(r3, t2), 1u);
  EXPECT_EQ(m.trg().weight(r3, t3), 1u);
}

TEST(ModelExact, Figure2bTagInsertion) {
  FolksonomyModel m = figure2Start();
  // Attach t3 to r2 (Figure 2b). Reverse: sim(t1,t3) += 1, sim(t2,t3) += 1.
  // Forward (t3 is new on r2): sim(t3,t1) += u(t1,r2) = 3,
  //                            sim(t3,t2) += u(t2,r2) = 2.
  m.tagResource(r2, t3);
  EXPECT_EQ(m.fg().weight(t1, t3), 1u);
  EXPECT_EQ(m.fg().weight(t2, t3), 1u);
  EXPECT_EQ(m.fg().weight(t3, t1), 3u);
  EXPECT_EQ(m.fg().weight(t3, t2), 2u);
  // The t1<->t2 arc is untouched.
  EXPECT_EQ(m.fg().weight(t1, t2), 2u);
  EXPECT_EQ(m.fg().weight(t2, t1), 3u);
}

TEST(ModelExact, RetagExistingLeavesForwardUnchanged) {
  FolksonomyModel m = figure2Start();
  u64 fwd12 = m.fg().weight(t1, t2);
  u64 rev21 = m.fg().weight(t2, t1);
  // t1 is already on r2: forward sim(t1,·) must not change; reverse
  // sim(t2,t1) gains 1.
  m.tagResource(r2, t1);
  EXPECT_EQ(m.fg().weight(t1, t2), fwd12);
  EXPECT_EQ(m.fg().weight(t2, t1), rev21 + 1);
}

TEST(ModelExact, DuplicateTagsInInsertIgnored) {
  FolksonomyModel m;
  m.insertResource(0, std::vector<u32>{5, 5, 6});
  EXPECT_EQ(m.trg().weight(0, 5), 1u);
  EXPECT_EQ(m.fg().weight(5, 6), 1u);
  EXPECT_EQ(m.fg().weight(6, 5), 1u);
  EXPECT_EQ(m.fg().arcCount(), 2u);
}

TEST(ModelExact, SingleTagInsertNoArcs) {
  FolksonomyModel m;
  m.insertResource(0, std::vector<u32>{3});
  EXPECT_EQ(m.fg().arcCount(), 0u);
}

TEST(ModelExact, TaggingUnknownResourceStartsEmpty) {
  // Section V-B replays start from an empty graph via tagResource only.
  FolksonomyModel m;
  m.tagResource(42, 7);
  EXPECT_EQ(m.trg().weight(42, 7), 1u);
  EXPECT_EQ(m.fg().arcCount(), 0u);  // no co-tags yet
  m.tagResource(42, 8);
  EXPECT_EQ(m.fg().weight(7, 8), 1u);  // reverse +1
  EXPECT_EQ(m.fg().weight(8, 7), 1u);  // forward: u(7, r42) = 1
}

/// THE core invariant: incremental exact maintenance reproduces the
/// defining formula sim(t1,t2) = Σ_{r∈Res(t1)} u(t2,r) — i.e. it matches
/// the FG derived from scratch out of the final TRG, for random operation
/// sequences.
class ExactEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(ExactEquivalence, IncrementalMatchesDerived) {
  Rng rng(GetParam());
  FolksonomyModel m(exactMode(), GetParam());
  u32 nextRes = 0;
  constexpr u32 kTags = 12;
  for (int op = 0; op < 400; ++op) {
    if (rng.uniformDouble() < 0.3 || nextRes == 0) {
      usize m_ = 1 + rng.uniform(4);
      std::vector<u32> tags;
      for (usize i = 0; i < m_; ++i) {
        tags.push_back(static_cast<u32>(rng.uniform(kTags)));
      }
      m.insertResource(nextRes++, tags);
    } else {
      u32 r = static_cast<u32>(rng.uniform(nextRes));
      u32 t = static_cast<u32>(rng.uniform(kTags));
      m.tagResource(r, t);
    }
  }
  DynamicFg derived = deriveExactFgDynamic(m.trg());
  EXPECT_EQ(m.fg().arcCount(), derived.arcCount());
  EXPECT_EQ(m.fg().totalWeight(), derived.totalWeight());
  bool allEqual = true;
  m.fg().forEachArc([&](u32 a, u32 b, u64 w) {
    if (derived.weight(a, b) != w) allEqual = false;
  });
  EXPECT_TRUE(allEqual);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

/// Approximation invariants, swept over k and seeds:
///  - the TRG is identical under any maintenance mode;
///  - approximated arcs are a subset of exact arcs;
///  - approximated weights never exceed exact weights.
/// Both fields are u64 so the struct has no padding: gtest prints the raw
/// bytes of the parameter into the discovered test names, and uninitialised
/// padding would make those names differ from build to build.
struct ApproxCase {
  u64 k;
  u64 seed;
};

class ApproxInvariants : public ::testing::TestWithParam<ApproxCase> {};

TEST_P(ApproxInvariants, SubsetAndBounded) {
  auto [k, seed] = GetParam();
  Rng rng(seed);
  FolksonomyModel exact(exactMode(), seed);
  FolksonomyModel approx(approxMode(static_cast<u32>(k)), seed);
  u32 nextRes = 0;
  constexpr u32 kTags = 15;
  // Same operation sequence into both models.
  for (int op = 0; op < 600; ++op) {
    if (rng.uniformDouble() < 0.25 || nextRes == 0) {
      usize m_ = 1 + rng.uniform(5);
      std::vector<u32> tags;
      for (usize i = 0; i < m_; ++i) {
        tags.push_back(static_cast<u32>(rng.uniform(kTags)));
      }
      exact.insertResource(nextRes, tags);
      approx.insertResource(nextRes, tags);
      ++nextRes;
    } else {
      u32 r = static_cast<u32>(rng.uniform(nextRes));
      u32 t = static_cast<u32>(rng.uniform(kTags));
      exact.tagResource(r, t);
      approx.tagResource(r, t);
    }
  }
  // TRG identical.
  EXPECT_EQ(exact.trg().numEdges(), approx.trg().numEdges());
  EXPECT_EQ(exact.trg().numAnnotations(), approx.trg().numAnnotations());
  for (u32 r = 0; r < nextRes; ++r) {
    for (const auto& e : exact.trg().tagsOf(r)) {
      ASSERT_EQ(approx.trg().weight(r, e.tag), e.weight);
    }
  }
  // FG: subset + bounded weights.
  EXPECT_LE(approx.fg().arcCount(), exact.fg().arcCount());
  EXPECT_LE(approx.fg().totalWeight(), exact.fg().totalWeight());
  bool subset = true, bounded = true;
  approx.fg().forEachArc([&](u32 a, u32 b, u64 w) {
    u64 ew = exact.fg().weight(a, b);
    if (ew == 0) subset = false;
    if (w > ew) bounded = false;
  });
  EXPECT_TRUE(subset);
  EXPECT_TRUE(bounded);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApproxInvariants,
    ::testing::Values(ApproxCase{1, 1}, ApproxCase{1, 2}, ApproxCase{2, 3},
                      ApproxCase{5, 4}, ApproxCase{10, 5}, ApproxCase{100, 6}));

TEST(ApproxA, ReverseUpdatesCappedAtK) {
  MaintenanceConfig cfg = approxAOnly(2);
  FolksonomyModel m(cfg, 3);
  m.insertResource(0, std::vector<u32>{0, 1, 2, 3, 4, 5, 6, 7});
  u64 before = m.counters().reverseArcUpdates;
  m.tagResource(0, 9);
  EXPECT_EQ(m.counters().reverseArcUpdates - before, 2u);  // k = 2, not 8
}

TEST(ApproxA, NaiveUpdatesAllCoTags) {
  FolksonomyModel m(exactMode(), 3);
  m.insertResource(0, std::vector<u32>{0, 1, 2, 3, 4, 5, 6, 7});
  u64 before = m.counters().reverseArcUpdates;
  m.tagResource(0, 9);
  EXPECT_EQ(m.counters().reverseArcUpdates - before, 8u);  // |Tags(r)|
}

TEST(ApproxA, LargeKDegeneratesToExact) {
  // k >= |Tags(r)| always: A has no effect, so A-only == exact.
  Rng rng(8);
  FolksonomyModel exact(exactMode(), 5);
  FolksonomyModel approx(approxAOnly(1000), 5);
  for (int i = 0; i < 50; ++i) {
    u32 r = static_cast<u32>(rng.uniform(10));
    u32 t = static_cast<u32>(rng.uniform(8));
    exact.tagResource(r, t);
    approx.tagResource(r, t);
  }
  EXPECT_EQ(exact.fg().totalWeight(), approx.fg().totalWeight());
  EXPECT_EQ(exact.fg().arcCount(), approx.fg().arcCount());
}

TEST(ApproxB, NewArcStartsAtOne) {
  FolksonomyModel m(approxBOnly(), 1);
  // Build u(t1, r) = 5, then attach t2: exact forward would be 5; B gives 1.
  m.tagResource(0, t1);
  for (int i = 0; i < 4; ++i) m.tagResource(0, t1);
  m.tagResource(0, t2);
  EXPECT_EQ(m.fg().weight(t2, t1), 1u);  // Approximation B
  EXPECT_EQ(m.fg().weight(t1, t2), 1u);  // reverse +1 (unaffected by B)
}

TEST(ApproxB, ExistingArcGetsExactIncrement) {
  FolksonomyModel m(approxBOnly(), 1);
  // Create arc (t2,t1) via resource 0 first.
  m.insertResource(0, std::vector<u32>{t1, t2});
  ASSERT_EQ(m.fg().weight(t2, t1), 1u);
  // On resource 1: u(t1,r1)=4, then t2 arrives. Arc exists => += u(τ,r)=4.
  for (int i = 0; i < 4; ++i) m.tagResource(1, t1);
  m.tagResource(1, t2);
  EXPECT_EQ(m.fg().weight(t2, t1), 1u + 4u);
}

TEST(ModelCounters, OperationCountsTrack) {
  FolksonomyModel m(exactMode(), 1);
  m.insertResource(0, std::vector<u32>{0, 1});
  m.tagResource(0, 2);
  EXPECT_EQ(m.counters().resourceInsertions, 1u);
  EXPECT_EQ(m.counters().tagInsertions, 1u);
}

TEST(ModelFreeze, FreezeFgMatchesDynamic) {
  FolksonomyModel m = figure2Start();
  CsrFg frozen = m.freezeFg();
  EXPECT_EQ(frozen.numArcs(), m.fg().arcCount());
  m.fg().forEachArc([&](u32 a, u32 b, u64 w) {
    EXPECT_EQ(frozen.weightOf(a, b), w);
  });
}

TEST(ApproxDeterminism, SameSeedSameGraph) {
  auto build = [](u64 seed) {
    FolksonomyModel m(approxMode(1), seed);
    Rng rng(99);
    for (int i = 0; i < 300; ++i) {
      m.tagResource(static_cast<u32>(rng.uniform(20)),
                    static_cast<u32>(rng.uniform(10)));
    }
    return m.fg().totalWeight();
  };
  EXPECT_EQ(build(5), build(5));
}

}  // namespace
}  // namespace dharma::folk
