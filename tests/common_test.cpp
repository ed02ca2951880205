#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/bitset.hpp"
#include "common/ids.hpp"
#include "common/interval.hpp"
#include "common/rng.hpp"

namespace crooks {
namespace {

TEST(Ids, StrongTypesCompare) {
  EXPECT_EQ(TxnId{7}, TxnId{7});
  EXPECT_NE(TxnId{7}, TxnId{8});
  EXPECT_LT(TxnId{7}, TxnId{8});
  EXPECT_EQ(kInitTxn, TxnId{0});
  EXPECT_EQ(Key{3}, Key{3});
  EXPECT_LT(Key{2}, Key{3});
}

TEST(Ids, Hashable) {
  std::unordered_set<TxnId> s{TxnId{1}, TxnId{2}, TxnId{1}};
  EXPECT_EQ(s.size(), 2u);
  std::unordered_set<Key> ks{Key{1}, Key{2}};
  EXPECT_TRUE(ks.contains(Key{2}));
}

TEST(Ids, ToString) {
  EXPECT_EQ(to_string(TxnId{42}), "T42");
  EXPECT_EQ(to_string(Key{9}), "k9");
  EXPECT_EQ(to_string(kNoSession), "s-");
  EXPECT_EQ(to_string(SessionId{1}), "s1");
}

TEST(Interval, EmptyByDefault) {
  StateInterval iv;
  EXPECT_TRUE(iv.empty());
  EXPECT_FALSE(iv.contains(0));
}

TEST(Interval, ContainsEndpoints) {
  StateInterval iv{2, 5};
  EXPECT_FALSE(iv.empty());
  EXPECT_TRUE(iv.contains(2));
  EXPECT_TRUE(iv.contains(5));
  EXPECT_FALSE(iv.contains(1));
  EXPECT_FALSE(iv.contains(6));
}

TEST(Interval, Intersect) {
  StateInterval a{0, 5}, b{3, 9};
  EXPECT_EQ(a.intersect(b), (StateInterval{3, 5}));
  EXPECT_EQ(b.intersect(a), (StateInterval{3, 5}));
  StateInterval c{6, 9};
  EXPECT_TRUE(a.intersect(c).empty());
}

TEST(Interval, SingletonIntersection) {
  StateInterval a{0, 3}, b{3, 7};
  const StateInterval i = a.intersect(b);
  EXPECT_FALSE(i.empty());
  EXPECT_EQ(i, (StateInterval{3, 3}));
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) differ |= (a() != b());
  EXPECT_TRUE(differ);
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BelowRoughlyUniform) {
  Rng r(99);
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[r.below(4)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, SplitIndependent) {
  Rng a(5);
  Rng b = a.split();
  EXPECT_NE(a(), b());
}

TEST(Bitset, SetTestReset) {
  DynamicBitset b(130);
  EXPECT_FALSE(b.test(0));
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  b.reset(64);
  EXPECT_FALSE(b.test(64));
}

TEST(Bitset, CountAndAny) {
  DynamicBitset b(100);
  EXPECT_FALSE(b.any());
  EXPECT_EQ(b.count(), 0u);
  b.set(3);
  b.set(77);
  EXPECT_TRUE(b.any());
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, OrWith) {
  DynamicBitset a(70), b(70);
  a.set(1);
  b.set(65);
  a.or_with(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_TRUE(a.test(65));
  EXPECT_FALSE(b.test(1));
}

TEST(Bitset, ForEachInOrder) {
  DynamicBitset b(200);
  std::set<std::size_t> expect{0, 63, 64, 127, 199};
  for (std::size_t i : expect) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, std::vector<std::size_t>(expect.begin(), expect.end()));
}

TEST(Bitset, ForEachInRangeAndDropWords) {
  DynamicBitset b(200);
  for (std::size_t i : {0u, 5u, 63u, 64u, 100u, 127u, 128u, 199u}) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_in(5, 128, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{5, 63, 64, 100, 127}));
  seen.clear();
  b.for_each_in(64, 64, [&](std::size_t i) { seen.push_back(i); });
  b.for_each_in(150, 999, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{199}));

  b.drop_words(2);  // bits 128.. shift down to 0..
  EXPECT_EQ(b.size(), 72u);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(71));
  EXPECT_EQ(b.count(), 2u);
}

}  // namespace
}  // namespace crooks
