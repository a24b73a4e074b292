// Bit-exactness contracts of the incremental marginal-gain evaluators and
// the mask-native oracle paths: the fast paths must return doubles that are
// bitwise equal to the plain oracle's, so sweep CSVs stay byte-identical
// whichever path the solver takes. Also the incremental matching oracle's
// dead-job marks against a fresh Hopcroft–Karp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "matching/bipartite_graph.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/matching_oracle.hpp"
#include "submodular/coverage.hpp"
#include "submodular/facility_location.hpp"
#include "submodular/greedy.hpp"
#include "submodular/set_function.hpp"
#include "util/rng.hpp"

namespace ps::submodular {
namespace {

// EXPECT_EQ on doubles compares by value (0.0 == -0.0, NaN != NaN); the
// contract here is stronger: identical bit patterns.
::testing::AssertionResult BitEqual(double a, double b) {
  std::uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ab == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

template <typename MakeFn>
void check_incremental_contract(MakeFn&& make, int n, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto f = make(rng);
  ASSERT_EQ(f.ground_size(), n);
  auto inc = f.make_incremental();
  ASSERT_NE(inc, nullptr);

  ItemSet chosen(n);
  util::Rng walk(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<int> members;
  for (int step = 0; step < 120; ++step) {
    // Probe every item against the current working set.
    for (int i = 0; i < n; ++i) {
      if (chosen.contains(i)) continue;
      EXPECT_TRUE(BitEqual(inc->value_with(i), f.value(chosen.with(i))))
          << "value_with item " << i << " at step " << step;
      EXPECT_TRUE(BitEqual(inc->gain(i), f.marginal(chosen, i)))
          << "gain item " << i << " at step " << step;
    }
    // Random add, or remove to exercise the downsizing path.
    if (!members.empty() && walk.bernoulli(0.3)) {
      const std::size_t pos = static_cast<std::size_t>(
          walk.uniform_int(0, static_cast<int>(members.size()) - 1));
      const int item = members[pos];
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(pos));
      chosen.erase(item);
      inc->remove(item);
    } else {
      const int item = walk.uniform_int(0, n - 1);
      if (chosen.contains(item)) continue;
      chosen.insert(item);
      inc->add(item);
      members.push_back(item);
    }
  }
}

TEST(IncrementalOracle, CoverageMatchesPlainOracleBitwise) {
  check_incremental_contract(
      [](util::Rng& rng) {
        return CoverageFunction::random(24, 70, 5, 2.0, rng);
      },
      24, 11);
}

TEST(IncrementalOracle, CoverageLargeUniverse) {
  check_incremental_contract(
      [](util::Rng& rng) {
        return CoverageFunction::random(16, 300, 9, 3.0, rng);
      },
      16, 12);
}

TEST(IncrementalOracle, FacilityLocationMatchesPlainOracleBitwise) {
  check_incremental_contract(
      [](util::Rng& rng) {
        return FacilityLocationFunction::random(20, 45, 2.0, rng);
      },
      20, 13);
}

TEST(IncrementalOracle, CountingOracleForwardsAndCounts) {
  util::Rng rng(17);
  const auto f = CoverageFunction::random(12, 30, 4, 2.0, rng);
  CountingOracle counting(f);
  auto inc = counting.make_incremental();
  ASSERT_NE(inc, nullptr);
  const auto before = counting.value_calls();
  ItemSet empty(12);
  EXPECT_TRUE(BitEqual(inc->value_with(3), f.value(empty.with(3))));
  (void)inc->gain(5);
  EXPECT_EQ(counting.value_calls(), before + 2);
  inc->add(3);  // bookkeeping, not an oracle query
  EXPECT_EQ(counting.value_calls(), before + 2);
}

TEST(IncrementalOracle, GreedyVariantsAgreeWithGenericPath) {
  // The incremental engine must leave greedy's outputs untouched: lazy and
  // plain greedy take different query paths through it, so their identical
  // pick sequences and bitwise-identical value curves pin the contract.
  util::Rng rng(23);
  const auto f = CoverageFunction::random(40, 90, 6, 2.0, rng);
  const auto plain = greedy_max_cardinality(f, 10);
  const auto lazy = lazy_greedy_max_cardinality(f, 10);
  EXPECT_EQ(plain.order, lazy.order);
  EXPECT_TRUE(BitEqual(plain.value, lazy.value));
  ASSERT_EQ(plain.value_curve.size(), lazy.value_curve.size());
  for (std::size_t i = 0; i < plain.value_curve.size(); ++i) {
    EXPECT_TRUE(BitEqual(plain.value_curve[i], lazy.value_curve[i])) << i;
  }
}

TEST(IncrementalOracle, ValueMaskMatchesValue) {
  util::Rng rng(29);
  const auto f = CoverageFunction::random(14, 40, 4, 2.0, rng);
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << 14); mask += 37) {
    EXPECT_TRUE(BitEqual(f.value_mask(mask),
                         f.value(ItemSet::from_mask(14, mask))));
  }
}

TEST(IncrementalOracle, ExhaustiveMaskNativeMatchesReference) {
  util::Rng rng(31);
  const auto f = CoverageFunction::random(12, 30, 4, 2.0, rng);
  for (int k : {0, 1, 3, 12}) {
    const auto best = exhaustive_max_cardinality(f, k);
    // Reference: filtered full scan materializing every candidate set.
    ItemSet ref_best(12);
    double ref_value = f.value(ref_best);
    for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << 12); ++mask) {
      if (__builtin_popcountll(mask) > k) continue;
      const ItemSet s = ItemSet::from_mask(12, mask);
      const double v = f.value(s);
      if (v > ref_value) {
        ref_value = v;
        ref_best = s;
      }
    }
    EXPECT_TRUE(BitEqual(best.value, ref_value)) << "k=" << k;
    EXPECT_EQ(best.chosen, ref_best) << "k=" << k;

    const auto exact = exhaustive_max_exact_cardinality(f, k);
    ItemSet ref_exact(12);
    double ref_exact_value = f.value(ref_exact);
    for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << 12); ++mask) {
      if (__builtin_popcountll(mask) != std::min(k, 12)) continue;
      const ItemSet s = ItemSet::from_mask(12, mask);
      const double v = f.value(s);
      if (v > ref_exact_value) {
        ref_exact_value = v;
        ref_exact = s;
      }
    }
    EXPECT_TRUE(BitEqual(exact.value, ref_exact_value)) << "k=" << k;
    if (k > 0) {
      EXPECT_EQ(exact.chosen, ref_exact) << "k=" << k;
    }
  }
}

TEST(IncrementalOracle, ValueMemoSurvivesInstanceInterleaving) {
  // The one-entry repeated-query memo keys on (instance, generation, set):
  // alternating queries across two instances with the same query set must
  // return each instance's own value.
  util::Rng rng(37);
  const auto f1 = CoverageFunction::random(16, 40, 4, 2.0, rng);
  const auto f2 = CoverageFunction::random(16, 40, 4, 2.0, rng);
  ItemSet s(16, {0, 3, 7, 11});
  const double v1 = f1.value(s);
  const double v2 = f2.value(s);
  ASSERT_NE(v1, v2);  // distinct random instances
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_TRUE(BitEqual(f1.value(s), v1));
    EXPECT_TRUE(BitEqual(f2.value(s), v2));
  }
}

}  // namespace
}  // namespace ps::submodular

namespace ps::matching {
namespace {

/// F(S) by a fresh Hopcroft–Karp over the slot set S.
int fresh_size(const BipartiteGraph& graph, const submodular::ItemSet& s) {
  return hopcroft_karp(graph, s).size;
}

/// Checks the oracle after one add_x: its size is the maximum matching of
/// its slot set, its matching is a real one, and a what-if gain equals the
/// difference of two fresh matchings.
void check_oracle(const BipartiteGraph& graph,
                  const IncrementalMatchingOracle& oracle,
                  const std::vector<int>& extra, const char* where) {
  ASSERT_EQ(oracle.size(), fresh_size(graph, oracle.active_x())) << where;
  MatchingResult current;
  current.match_x = oracle.match_x();
  current.match_y = oracle.match_y();
  current.size = oracle.size();
  ASSERT_TRUE(is_valid_matching(graph, current, oracle.active_x())) << where;

  submodular::ItemSet with_extra = oracle.active_x();
  for (int x : extra) with_extra.insert(x);
  IncrementalMatchingOracle fresh(graph);
  with_extra.for_each([&](int x) { fresh.add_x(x); });
  ASSERT_EQ(oracle.gain_of(extra), fresh.size() - oracle.size()) << where;
  ASSERT_EQ(fresh.size(), fresh_size(graph, with_extra)) << where;
}

TEST(IncrementalMatchingOracle, MatchesHopcroftKarpOnRandomAddOrders) {
  int failed_adds = 0;
  for (int trial = 0; trial < 300; ++trial) {
    util::Rng rng(0xDEAD + static_cast<std::uint64_t>(trial));
    const int num_x = rng.uniform_int(1, 24);
    const int num_y = rng.uniform_int(1, 24);
    // Sparse graphs with more slots than jobs make searches fail often,
    // which is where dead marks are set and then relied on.
    const auto graph = BipartiteGraph::random(
        num_x, num_y, rng.uniform_double(0.05, 0.4), rng);
    std::vector<int> order(static_cast<std::size_t>(num_x));
    for (int x = 0; x < num_x; ++x) order[static_cast<std::size_t>(x)] = x;
    rng.shuffle(order);

    IncrementalMatchingOracle oracle(graph);
    for (std::size_t k = 0; k < order.size(); ++k) {
      const int before = oracle.size();
      oracle.add_x(order[k]);
      if (oracle.size() == before) ++failed_adds;
      // A what-if over a random handful of the slots not yet added.
      std::vector<int> extra;
      for (std::size_t r = k + 1; r < order.size(); ++r) {
        if (rng.bernoulli(0.3)) extra.push_back(order[r]);
      }
      check_oracle(graph, oracle, extra, "random order");
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(failed_adds, 300);
}

TEST(IncrementalMatchingOracle, LaterSlotNextToADeadJobStillAugments) {
  // Slots 0 and 1 both see only job 0: adding slot 1 fails, so job 0 is
  // dead. Slot 2 sees job 0 first, then job 1, and must still match job 1;
  // slot 3 sees only job 0 and must fail; slot 4 reaches job 2 only by
  // displacing job 1 from slot 2 along 4 -> 1 -> 2 -> 2.
  BipartiteGraph graph(5, 3);
  graph.add_edge(0, 0);
  graph.add_edge(1, 0);
  graph.add_edge(2, 0);
  graph.add_edge(2, 1);
  graph.add_edge(2, 2);
  graph.add_edge(3, 0);
  graph.add_edge(4, 0);
  graph.add_edge(4, 1);

  IncrementalMatchingOracle oracle(graph);
  EXPECT_EQ(oracle.add_x(0), 1);
  EXPECT_EQ(oracle.add_x(1), 0);
  check_oracle(graph, oracle, {2, 3, 4}, "after the failed add");
  EXPECT_EQ(oracle.gain_of({3}), 0);
  EXPECT_EQ(oracle.gain_of({2, 4}), 2);
  EXPECT_EQ(oracle.add_x(2), 1);
  EXPECT_EQ(oracle.match_x()[2], 1);
  EXPECT_EQ(oracle.add_x(3), 0);
  check_oracle(graph, oracle, {4}, "after the second failed add");
  EXPECT_EQ(oracle.add_x(4), 1);
  EXPECT_EQ(oracle.size(), 3);
  EXPECT_EQ(oracle.match_x()[4], 1);
  EXPECT_EQ(oracle.match_x()[2], 2);
  check_oracle(graph, oracle, {}, "at the end");
}

}  // namespace
}  // namespace ps::matching
