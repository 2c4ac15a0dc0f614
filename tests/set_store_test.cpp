// Tests for the per-solve proposition-set store (core/set_store) and the
// never-moving paged array under it (support/paged_vec).
#include <gtest/gtest.h>

#include <vector>

#include "core/set_store.hpp"
#include "support/paged_vec.hpp"

namespace sekitei::core {
namespace {

std::vector<PropId> props(std::initializer_list<std::uint32_t> ids) {
  std::vector<PropId> out;
  for (const std::uint32_t i : ids) out.emplace_back(i);
  return out;
}

/// A distinct sorted set per `k`, of length 1 + k % 7.
std::vector<PropId> nth_set(std::uint32_t k) {
  std::vector<PropId> out;
  for (std::uint32_t j = 0; j <= k % 7; ++j) out.emplace_back(k * 8 + j);
  return out;
}

TEST(SetStore, InternIsIdempotentAndIdsAreDense) {
  SetStore store;
  const auto a = props({1, 2, 3});
  const auto b = props({1, 2, 4});
  EXPECT_EQ(store.intern(a), SetId(0));
  EXPECT_EQ(store.intern(b), SetId(1));
  EXPECT_EQ(store.intern(a), SetId(0));
  EXPECT_EQ(store.intern(b), SetId(1));
  EXPECT_EQ(store.size(), 2u);
  const auto back = store[SetId(1)];
  EXPECT_EQ(std::vector<PropId>(back.begin(), back.end()), b);
}

TEST(SetStore, SpansStayValidAcrossGrowth) {
  SetStore store;
  // 20k sets of up to 7 ids span many 64 KiB arena pages and several
  // table rehashes.
  constexpr std::uint32_t kSets = 20000;
  std::vector<std::span<const PropId>> spans;
  for (std::uint32_t k = 0; k < kSets; ++k) {
    const SetId id = store.intern(nth_set(k));
    ASSERT_EQ(id, SetId(k));
    spans.push_back(store[id]);
  }
  for (std::uint32_t k = 0; k < kSets; ++k) {
    const auto want = nth_set(k);
    ASSERT_EQ(std::vector<PropId>(spans[k].begin(), spans[k].end()), want) << k;
    ASSERT_EQ(store.find(want), SetId(k));
    ASSERT_EQ(store.intern(want), SetId(k));
  }
  EXPECT_EQ(store.size(), kSets);
}

TEST(SetStore, FindNeverInserts) {
  SetStore store;
  EXPECT_FALSE(store.find(props({1, 2})).valid());  // empty store
  store.intern(props({1, 2}));
  EXPECT_FALSE(store.find(props({1, 3})).valid());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(props({1, 2})), SetId(0));
}

TEST(SetStore, EmptySet) {
  SetStore store;
  const std::vector<PropId> empty;
  EXPECT_FALSE(store.find(empty).valid());
  const SetId e = store.intern(empty);
  EXPECT_EQ(e, SetId(0));
  EXPECT_TRUE(store[e].empty());
  EXPECT_EQ(store.find(empty), e);
  EXPECT_EQ(store.intern(props({0})), SetId(1));  // distinct from {0}
  EXPECT_EQ(store.intern(empty), e);
}

TEST(SetStore, SharedPrefixesOfDifferentLengthsAreDistinct) {
  SetStore store;
  const SetId one = store.intern(props({5}));
  const SetId two = store.intern(props({5, 6}));
  const SetId three = store.intern(props({5, 6, 7}));
  EXPECT_NE(one, two);
  EXPECT_NE(two, three);
  EXPECT_EQ(store[one].size(), 1u);
  EXPECT_EQ(store[two].size(), 2u);
  EXPECT_EQ(store[three].size(), 3u);
  EXPECT_EQ(store.find(props({5, 6})), two);
  EXPECT_FALSE(store.find(props({5, 6, 7, 8})).valid());
}

TEST(SetStore, HashDiscriminates) {
  EXPECT_EQ(SetStore::hash(props({1, 2})), SetStore::hash(props({1, 2})));
  EXPECT_NE(SetStore::hash(props({1, 2})), SetStore::hash(props({1, 3})));
  EXPECT_NE(SetStore::hash(props({1, 2})), SetStore::hash(props({1, 2, 0})));
  // Ids differing only in high bits still land in different top bits (the
  // bits that pick the table slot).
  EXPECT_NE(SetStore::hash(props({1u << 20})) >> 26, SetStore::hash(props({2u << 20})) >> 26);
}

TEST(PagedVec, ElementsNeverMove) {
  PagedVec<std::uint64_t> v;
  v.push_back(7);
  const std::uint64_t* first = &v[0];
  for (std::uint64_t i = 1; i < 100000; ++i) v.push_back(i * 3);
  EXPECT_EQ(&v[0], first);
  EXPECT_EQ(v[0], 7u);
  for (std::uint64_t i = 1; i < 100000; ++i) ASSERT_EQ(v[i], i * 3) << i;
  v.pop_back();
  EXPECT_EQ(v.size(), 99999u);
  EXPECT_EQ(v[v.size() - 1], 99998u * 3);
  v.clear();
  EXPECT_EQ(v.size(), 0u);
  v.grow_to(3, 9);
  EXPECT_EQ(v[2], 9u);
  EXPECT_EQ(&v[0], first);  // clear() keeps the pages
}

}  // namespace
}  // namespace sekitei::core
