// Unit tests for src/util: rng determinism and distributions, ProcessSet
// algebra, payload serde round-trips, stats, and table formatting.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/value_set.hpp"

namespace ssvsp {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniformInt(-3, 11);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 11);
  }
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniformInt(2, 1), InvariantViolation);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniformReal();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.5);
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(Rng, SubsetMaskStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto m = rng.subsetMask(5);
    EXPECT_LT(m, 32u);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(23);
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

TEST(ProcessSet, EmptyByDefault) {
  ProcessSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0);
}

TEST(ProcessSet, InsertEraseContains) {
  ProcessSet s;
  s.insert(3);
  s.insert(0);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(0));
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.size(), 2);
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.size(), 1);
}

TEST(ProcessSet, FullSet) {
  const auto s = ProcessSet::full(6);
  EXPECT_EQ(s.size(), 6);
  for (ProcessId p = 0; p < 6; ++p) EXPECT_TRUE(s.contains(p));
  EXPECT_FALSE(s.contains(6));
}

TEST(ProcessSet, FullSet64) {
  const auto s = ProcessSet::full(64);
  EXPECT_EQ(s.size(), 64);
  EXPECT_TRUE(s.contains(63));
}

TEST(ProcessSet, SetAlgebra) {
  const ProcessSet a{0, 1, 2};
  const ProcessSet b{2, 3};
  EXPECT_EQ((a | b), (ProcessSet{0, 1, 2, 3}));
  EXPECT_EQ((a & b), ProcessSet{2});
  EXPECT_EQ((a - b), (ProcessSet{0, 1}));
  EXPECT_TRUE((a & b).isSubsetOf(a));
  EXPECT_TRUE(ProcessSet().isSubsetOf(a));
  EXPECT_FALSE(a.isSubsetOf(b));
}

TEST(ProcessSet, IterationInOrder) {
  const ProcessSet s{5, 1, 9};
  std::vector<ProcessId> got(s.begin(), s.end());
  EXPECT_EQ(got, (std::vector<ProcessId>{1, 5, 9}));
}

TEST(ProcessSet, MinAndToString) {
  const ProcessSet s{4, 2, 7};
  EXPECT_EQ(s.min(), 2);
  EXPECT_EQ(s.toString(), "{2,4,7}");
  EXPECT_THROW(ProcessSet().min(), InvariantViolation);
}

TEST(ProcessSet, OutOfRangeIdThrows) {
  ProcessSet s;
  EXPECT_THROW(s.insert(64), InvariantViolation);
  EXPECT_THROW(s.insert(-1), InvariantViolation);
}

TEST(ValueSet, InsertIterateMin) {
  ValueSet s;
  EXPECT_TRUE(s.empty());
  s.insert(5);
  s.insert(1);
  s.insert(5);
  s.insert(3);
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s.min(), 1);
  const std::vector<Value> got(s.begin(), s.end());
  EXPECT_EQ(got, (std::vector<Value>{1, 3, 5}));  // ascending, deduplicated
  EXPECT_THROW(ValueSet().min(), InvariantViolation);
  EXPECT_THROW(s.insert(64), InvariantViolation);
  EXPECT_THROW(s.insert(-1), InvariantViolation);
}

TEST(ValueSet, SingleAndUnion) {
  const ValueSet a = ValueSet::single(0);
  const ValueSet b{63, 2};
  EXPECT_EQ((a | b).size(), 3);
  EXPECT_EQ((a | b).min(), 0);
  EXPECT_EQ((a & b).size(), 0);
  ValueSet c = a;
  c |= b;
  EXPECT_EQ(c, (a | b));
  EXPECT_EQ(ValueSet::fromMask(c.mask()), c);
}

TEST(Serde, IntRoundTrip) {
  PayloadWriter w;
  w.putInt(42).putInt(-7).putBool(true).putProcess(3);
  const Payload p = std::move(w).take();
  PayloadReader r(p);
  EXPECT_EQ(r.getInt(), 42);
  EXPECT_EQ(r.getInt(), -7);
  EXPECT_TRUE(r.getBool());
  EXPECT_EQ(r.getProcess(), 3);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serde, ProcessSetRoundTrip) {
  const ProcessSet s{0, 31, 32, 63};
  PayloadWriter w;
  w.putProcessSet(s);
  PayloadReader r(w.peek());
  EXPECT_EQ(r.getProcessSet(), s);
}

TEST(Serde, UnderflowThrows) {
  const Payload p{1};
  PayloadReader r(p);
  r.getInt();
  EXPECT_THROW(r.getInt(), InvariantViolation);
}

TEST(Serde, PayloadToString) {
  EXPECT_EQ(payloadToString({1, 2, 3}), "[1 2 3]");
  EXPECT_EQ(payloadToString({}), "[]");
  EXPECT_EQ(payloadToString({-1, 0, 2, 3, 4, 5, 6, 7}), "[-1 0 2 3 4 5 6 7]");
}

// Payload keeps std::vector<std::int32_t> value semantics on both sides of
// its inline/heap boundary: kInlineWords words stay inside the object, one
// more moves them to the heap.
constexpr std::size_t kInline = Payload::kInlineWords;

/// Words 1, 2, .., n (distinct, so a swapped or lost word shows).
Payload counting(std::size_t n, std::int32_t from = 1) {
  Payload p;
  for (std::size_t i = 0; i < n; ++i)
    p.push_back(from + static_cast<std::int32_t>(i));
  return p;
}

std::vector<std::int32_t> asVector(const Payload& p) {
  return std::vector<std::int32_t>(p.begin(), p.end());
}

TEST(Payload, InlineBoundary) {
  const Payload atCapacity = counting(kInline);
  EXPECT_EQ(atCapacity.size(), kInline);
  EXPECT_EQ(atCapacity.capacity(), kInline);  // still inline
  const Payload spilled = counting(kInline + 1);
  EXPECT_EQ(spilled.size(), kInline + 1);
  EXPECT_GT(spilled.capacity(), kInline);
  for (std::size_t i = 0; i < kInline + 1; ++i)
    EXPECT_EQ(spilled[i], static_cast<std::int32_t>(i + 1));
  for (std::size_t i = 0; i < kInline; ++i)
    EXPECT_EQ(atCapacity[i], static_cast<std::int32_t>(i + 1));
  EXPECT_EQ(sizeof(Payload), 32u);

  // Initializer-list and iterator-range construction on both sides.
  EXPECT_EQ((Payload{1, 2, 3, 4, 5, 6}), atCapacity);
  EXPECT_EQ((Payload{1, 2, 3, 4, 5, 6, 7}), spilled);
  const std::vector<std::int32_t> words{1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(Payload(words.begin(), words.end()), spilled);
  EXPECT_EQ(Payload(words.begin(), words.begin() + kInline), atCapacity);
  EXPECT_EQ(asVector(spilled), words);

  // clear() keeps the buffer, like std::vector.
  Payload cleared = spilled;
  const std::size_t cap = cleared.capacity();
  cleared.clear();
  EXPECT_TRUE(cleared.empty());
  EXPECT_EQ(cleared.capacity(), cap);
  cleared.push_back(9);
  EXPECT_EQ(cleared, Payload{9});
}

TEST(Payload, CopyMoveAndSelfAssignmentInEveryDirection) {
  const std::size_t sizes[] = {0, 2, kInline, kInline + 1, 3 * kInline};
  for (const std::size_t from : sizes) {
    const Payload source = counting(from, 100);
    SCOPED_TRACE("source size " + std::to_string(from));

    Payload copied(source);
    EXPECT_EQ(copied, source);
    Payload moveSource(source);
    Payload moved(std::move(moveSource));
    EXPECT_EQ(moved, source);
    EXPECT_TRUE(moveSource.empty());  // NOLINT(bugprone-use-after-move)

    for (const std::size_t to : sizes) {
      SCOPED_TRACE("target size " + std::to_string(to));
      Payload copyTarget = counting(to);
      copyTarget = source;
      EXPECT_EQ(copyTarget, source);
      EXPECT_EQ(asVector(copyTarget), asVector(source));

      Payload moveTarget = counting(to);
      Payload donor(source);
      moveTarget = std::move(donor);
      EXPECT_EQ(moveTarget, source);
      EXPECT_TRUE(donor.empty());  // NOLINT(bugprone-use-after-move)
      // A moved-from payload is reusable.
      donor.push_back(7);
      EXPECT_EQ(donor, Payload{7});

      // The target keeps working after growing across the boundary.
      for (std::size_t i = 0; i < kInline + 2; ++i) copyTarget.push_back(-1);
      EXPECT_EQ(copyTarget.size(), from + kInline + 2);
      EXPECT_EQ(Payload(copyTarget.begin(), copyTarget.begin() + from),
                source);
    }

    Payload self = source;
    Payload& alias = self;
    self = alias;
    EXPECT_EQ(self, source);
    self = std::move(alias);
    EXPECT_EQ(self, source);
  }
}

TEST(Payload, ComparisonAgreesWithVector) {
  Rng rng(0x9a71);
  std::vector<std::vector<std::int32_t>> words;
  for (int i = 0; i < 400; ++i) {
    const auto len = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(2 * kInline + 1)));
    std::vector<std::int32_t> w;
    // A small alphabet, so equal prefixes and equal payloads are common.
    for (std::size_t k = 0; k < len; ++k)
      w.push_back(static_cast<std::int32_t>(rng.uniformInt(-1, 1)));
    words.push_back(std::move(w));
  }
  for (const auto& a : words) {
    const Payload pa(a.begin(), a.end());
    ASSERT_EQ(pa.size(), a.size());
    for (const auto& b : words) {
      const Payload pb(b.begin(), b.end());
      EXPECT_EQ(pa == pb, a == b);
      EXPECT_EQ(pa != pb, a != b);
      EXPECT_EQ(pa < pb, a < b);
      EXPECT_EQ(pa <= pb, a <= b);
      EXPECT_EQ(pa > pb, a > b);
    }
  }
}

TEST(Payload, ReaderUnderflowThrowsOnBothSidesOfTheBoundary) {
  for (const std::size_t n : {std::size_t{0}, kInline, kInline + 1}) {
    const Payload p = counting(n);
    PayloadReader r(p);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(r.getInt(), static_cast<std::int32_t>(i + 1));
    EXPECT_TRUE(r.exhausted());
    EXPECT_THROW(r.getInt(), InvariantViolation);
  }
}

TEST(Stats, BasicSummary) {
  Stats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 4.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.5);
}

TEST(Stats, EmptyThrows) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), InvariantViolation);
  EXPECT_THROW(s.percentile(50), InvariantViolation);
}

TEST(Stats, StddevOfConstant) {
  Stats s;
  for (int i = 0; i < 5; ++i) s.add(7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"a", "bee"});
  t.addRowValues(1, "x");
  t.addRowValues(23, "yy");
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a  | bee |"), std::string::npos);
  EXPECT_NE(out.find("| 23 | yy  |"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), InvariantViolation);
}

TEST(Check, MacrosThrowWithContext) {
  try {
    SSVSP_CHECK_MSG(1 == 2, "ctx " << 42);
    FAIL() << "should have thrown";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace ssvsp
