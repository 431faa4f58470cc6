#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>
#include <set>
#include <string_view>
#include <vector>

#include "util/hash.h"
#include "util/mathutil.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace imdpp {
namespace {

TEST(Hash, Deterministic) {
  EXPECT_EQ(HashTuple(1, 2, 3), HashTuple(1, 2, 3));
  EXPECT_EQ(UnitHash(42, 7), UnitHash(42, 7));
}

TEST(Hash, SensitiveToEveryComponent) {
  EXPECT_NE(HashTuple(1, 2, 3), HashTuple(1, 2, 4));
  EXPECT_NE(HashTuple(1, 2, 3), HashTuple(1, 3, 2));
  EXPECT_NE(HashTuple(1, 2, 3), HashTuple(2, 2, 3));
  EXPECT_NE(HashTuple(0, 0), HashTuple(0, 0, 0));
}

TEST(Hash, UnitRangeIsHalfOpen) {
  for (uint64_t i = 0; i < 1000; ++i) {
    double u = UnitHash(i, i * 31);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Hash, UniformityRoughly) {
  // Chi-square-lite: 10 buckets over 10k draws should each hold ~1000.
  std::vector<int> buckets(10, 0);
  for (uint64_t i = 0; i < 10000; ++i) {
    ++buckets[static_cast<int>(UnitHash(999, i) * 10)];
  }
  for (int b : buckets) {
    EXPECT_GT(b, 800);
    EXPECT_LT(b, 1200);
  }
}

TEST(Hash, CollisionFreeOnSmallDomain) {
  std::set<uint64_t> seen;
  for (uint64_t a = 0; a < 64; ++a) {
    for (uint64_t b = 0; b < 64; ++b) {
      seen.insert(HashTuple(a, b));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);
}

// HashExtend continues HashTuple's fold: hashing a prefix once and
// extending it by the rest is the same value at every split point. The
// fields mix the simulator's coin-key shapes (seed, purpose tag, round,
// step, users, items) with negative and full-width values, which must
// take the same static_cast<uint64_t> in both.
TEST(Hash, ExtendMatchesTupleAtEverySplit) {
  const uint64_t seed = 0xfedcba9876543210ULL;
  const uint64_t tag = 2;
  const int neg = -7;
  const int64_t big = int64_t{1} << 40;
  const uint64_t top = ~uint64_t{0};
  const uint32_t ordinal = 0xffffffffu;
  const int u = 123456789;
  const int y = -1;

  // 7 fields.
  const uint64_t want7 = HashTuple(seed, tag, neg, big, top, ordinal, u);
  EXPECT_EQ(HashExtend(HashTuple(seed), tag, neg, big, top, ordinal, u),
            want7);
  EXPECT_EQ(HashExtend(HashTuple(seed, tag), neg, big, top, ordinal, u),
            want7);
  EXPECT_EQ(HashExtend(HashTuple(seed, tag, neg), big, top, ordinal, u),
            want7);
  EXPECT_EQ(HashExtend(HashTuple(seed, tag, neg, big), top, ordinal, u),
            want7);
  EXPECT_EQ(HashExtend(HashTuple(seed, tag, neg, big, top), ordinal, u),
            want7);
  EXPECT_EQ(HashExtend(HashTuple(seed, tag, neg, big, top, ordinal), u),
            want7);
  EXPECT_EQ(HashExtend(want7), want7);  // empty suffix

  // 8 fields, including chained extensions (the simulator's per-step,
  // per-source, per-edge, per-pair levels).
  const uint64_t want8 = HashTuple(seed, tag, neg, big, top, ordinal, u, y);
  EXPECT_EQ(HashExtend(HashTuple(seed), tag, neg, big, top, ordinal, u, y),
            want8);
  EXPECT_EQ(HashExtend(HashTuple(seed, tag), neg, big, top, ordinal, u, y),
            want8);
  EXPECT_EQ(HashExtend(HashTuple(seed, tag, neg), big, top, ordinal, u, y),
            want8);
  EXPECT_EQ(HashExtend(HashTuple(seed, tag, neg, big), top, ordinal, u, y),
            want8);
  EXPECT_EQ(HashExtend(HashTuple(seed, tag, neg, big, top), ordinal, u, y),
            want8);
  EXPECT_EQ(HashExtend(HashTuple(seed, tag, neg, big, top, ordinal), u, y),
            want8);
  EXPECT_EQ(HashExtend(want7, y), want8);
  const uint64_t step = HashTuple(seed, tag, neg, big);
  EXPECT_EQ(HashExtend(HashExtend(HashExtend(step, top), ordinal, u), y),
            want8);
  EXPECT_EQ(HashToUnit(HashExtend(want7, y)),
            UnitHash(seed, tag, neg, big, top, ordinal, u, y));

  // A negative field hashes as its sign-extended 64-bit image.
  EXPECT_EQ(HashExtend(HashTuple(seed), neg),
            HashExtend(HashTuple(seed), static_cast<uint64_t>(int64_t{-7})));
  EXPECT_NE(HashExtend(HashTuple(seed), neg),
            HashExtend(HashTuple(seed), uint64_t{0xfffffff9u}));
}

// HashBytes is the XXH64 algorithm; on little-endian hosts (where
// memcpy-loaded words match XXH64's canonical byte order) it reproduces
// the reference vectors exactly.
TEST(HashBytes, MatchesXxh64ReferenceVectors) {
  if constexpr (std::endian::native == std::endian::little) {
    EXPECT_EQ(HashBytes(0, "", 0), 0xef46db3751d8e999ULL);
    EXPECT_EQ(HashBytes(0, "a", 1), 0xd24ec4f1a98c6e5bULL);
    EXPECT_EQ(HashBytes(0, "abc", 3), 0x44bc2cf5ad770999ULL);
    const std::string_view text = "Nobody inspects the spammish repetition";
    EXPECT_EQ(HashBytes(0, text.data(), text.size()), 0xfbcea83c8a378bf1ULL);
  }
}

std::vector<unsigned char> PatternBytes(size_t n) {
  std::vector<unsigned char> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<unsigned char>(SplitMix64(i) >> 56);
  }
  return bytes;
}

TEST(HashBytes, EveryTailLengthIsConsumed) {
  // Lengths around the 8-byte word and 32-byte stripe boundaries: every
  // prefix hashes differently from every other, and flipping the LAST
  // byte (the one the tail fold handles) always changes the hash.
  const std::vector<unsigned char> bytes = PatternBytes(100);
  std::set<uint64_t> seen;
  for (size_t n : {0, 1, 7, 8, 31, 32, 33, 100}) {
    SCOPED_TRACE(n);
    std::vector<unsigned char> prefix(bytes.begin(), bytes.begin() + n);
    const uint64_t h = HashBytes(17, prefix.data(), n);
    EXPECT_EQ(HashBytes(17, prefix.data(), n), h);
    EXPECT_NE(HashBytes(18, prefix.data(), n), h);  // the seed is mixed in
    EXPECT_TRUE(seen.insert(h).second);
    if (n > 0) {
      prefix.back() ^= 0x01;
      EXPECT_NE(HashBytes(17, prefix.data(), n), h);
    }
  }
}

TEST(HashBytes, IndependentOfAlignment) {
  const std::vector<unsigned char> bytes = PatternBytes(100);
  const uint64_t h = HashBytes(5, bytes.data(), bytes.size());
  std::vector<unsigned char> buffer(bytes.size() + 16);
  for (size_t offset = 0; offset < 16; ++offset) {
    std::copy(bytes.begin(), bytes.end(), buffer.begin() + offset);
    EXPECT_EQ(HashBytes(5, buffer.data() + offset, bytes.size()), h)
        << "offset " << offset;
  }
}

TEST(HashBytes, EverySingleBitFlipChangesTheHash) {
  std::vector<unsigned char> bytes = PatternBytes(100);
  const uint64_t h = HashBytes(0, bytes.data(), bytes.size());
  std::set<uint64_t> seen = {h};
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_TRUE(seen.insert(HashBytes(0, bytes.data(), bytes.size())).second)
        << "bit " << bit;
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(HashBytes(0, bytes.data(), bytes.size()), h);
}

TEST(Rng, DeterministicStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.NextU32() == b.NextU32());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.NextBelow(17), 17u);
}

TEST(Rng, NextUnitMeanNearHalf) {
  Rng r(5);
  double s = 0.0;
  for (int i = 0; i < 10000; ++i) s += r.NextUnit();
  EXPECT_NEAR(s / 10000.0, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng r(11);
  double s = 0.0, s2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = r.NextGaussian();
    s += g;
    s2 += g * g;
  }
  EXPECT_NEAR(s / n, 0.0, 0.05);
  EXPECT_NEAR(s2 / n, 1.0, 0.1);
}

TEST(Rng, LogNormalPositive) {
  Rng r(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(r.NextLogNormal(0.5, 0.6), 0.0);
}

TEST(MathUtil, Clip01) {
  EXPECT_DOUBLE_EQ(Clip01(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(Clip01(0.5), 0.5);
  EXPECT_DOUBLE_EQ(Clip01(1.5), 1.0);
}

TEST(MathUtil, JaccardSorted) {
  std::vector<int> a{1, 2, 3}, b{2, 3, 4};
  EXPECT_DOUBLE_EQ(JaccardSorted(a, b), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSorted(a, a), 1.0);
  std::vector<int> empty;
  EXPECT_DOUBLE_EQ(JaccardSorted(a, empty), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSorted(empty, empty), 0.0);
}

TEST(MathUtil, Cosine) {
  EXPECT_DOUBLE_EQ(Cosine({1, 0}, {0, 1}), 0.0);
  EXPECT_NEAR(Cosine({1, 1}, {1, 1}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Cosine({0, 0}, {1, 1}), 0.0);
}

TEST(MathUtil, MeanStd) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_NEAR(StdDev(v), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t;
  t.SetHeader({"a", "bbbb"});
  t.AddRow({"xx", "y"});
  std::string out = t.Render();
  EXPECT_NE(out.find("a   bbbb"), std::string::npos);
  EXPECT_NE(out.find("xx  y"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(TextTable::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::Int(42), "42");
}

TEST(ThreadPool, HardwareConcurrencyIsPositive) {
  EXPECT_GE(util::HardwareConcurrency(), 1);
}

TEST(ThreadPool, ResolveNumThreads) {
  EXPECT_EQ(util::ResolveNumThreads(util::kAutoThreads),
            util::HardwareConcurrency());
  EXPECT_EQ(util::ResolveNumThreads(-7), util::HardwareConcurrency());
  EXPECT_EQ(util::ResolveNumThreads(0), 0);
  EXPECT_EQ(util::ResolveNumThreads(1), 1);
  EXPECT_EQ(util::ResolveNumThreads(16), 16);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  constexpr int kN = 100;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ReusableAcrossBatches) {
  util::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::vector<int> out(7, 0);  // distinct slots: no synchronization needed
    pool.ParallelFor(7, [&](int i) { out[i] = i * i; });
    for (int i = 0; i < 7; ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, ZeroWorkersRunsOnCaller) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(5);
  pool.ParallelFor(5, [&](int i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, EmptyAndNegativeBatchesAreNoops) {
  util::ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  pool.ParallelFor(-3, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, MoreWorkersThanTasks) {
  util::ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(2);
  pool.ParallelFor(2, [&](int i) { hits[i].fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ThreadPool, PerIndexPartialsReduceDeterministically) {
  // The usage pattern the Monte-Carlo engine relies on: each task writes
  // its own partial, the caller folds in index order.
  util::ThreadPool pool(4);
  constexpr int kN = 33;
  std::vector<double> partial(kN, 0.0);
  pool.ParallelFor(kN, [&](int i) { partial[i] = 1.0 / (1 + i); });
  const double total = std::accumulate(partial.begin(), partial.end(), 0.0);
  double expected = 0.0;
  for (int i = 0; i < kN; ++i) expected += 1.0 / (1 + i);
  EXPECT_EQ(total, expected);
}

}  // namespace
}  // namespace imdpp
