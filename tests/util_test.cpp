// Unit tests for src/util: RNG distributions and determinism, thread pool,
// statistics accumulators, table and CSV formatting, and the number codec
// against its printf/strtod oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/time.hpp"
#include "util/csv.hpp"
#include "util/number_codec.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ps::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, UniformU64CoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_u64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntInclusiveEndpoints) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanNearHalf) {
  Rng rng(13);
  Accumulator acc(false);
  for (int i = 0; i < 100000; ++i) acc.add(rng.uniform_double());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, NormalMeanAndVariance) {
  Rng rng(19);
  Accumulator acc(false);
  for (int i = 0; i < 100000; ++i) acc.add(rng.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.variance(), 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  Accumulator acc(false);
  for (int i = 0; i < 100000; ++i) acc.add(rng.exponential(2.0));
  EXPECT_NEAR(acc.mean(), 0.5, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(29);
  const auto p = rng.permutation(50);
  std::set<int> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Rng, PermutationUniformFirstElement) {
  Rng rng(31);
  std::vector<int> counts(4, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    ++counts[static_cast<std::size_t>(rng.permutation(4)[0])];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.25, 0.02);
  }
}

TEST(Rng, SampleWithoutReplacementSortedDistinct) {
  Rng rng(37);
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = rng.sample_without_replacement(20, 7);
    ASSERT_EQ(s.size(), 7u);
    for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_LT(s[i], s[i + 1]);
    for (int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(Rng, SampleFullRange) {
  Rng rng(41);
  const auto s = rng.sample_without_replacement(5, 5);
  EXPECT_EQ(s, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Rng, SampleOverloadsSelectIdenticalSamples) {
  // The out-param and mask overloads reuse a persistent identity pool; they
  // must select the same elements and consume the same number of draws as
  // the allocating overload, for any interleaving of (n, k).
  const int cases[][2] = {{10, 3}, {64, 64}, {65, 1}, {300, 17}, {7, 0},
                          {128, 40}, {300, 17}, {10, 10}};
  for (const auto& c : cases) {
    const int n = c[0], k = c[1];
    util::Rng a(99), b(99), m(99);
    // Burn a few draws so each case starts mid-stream.
    for (int i = 0; i < n % 5; ++i) {
      (void)a();
      (void)b();
      (void)m();
    }
    const auto sorted = a.sample_without_replacement(n, k);
    std::vector<int> out;
    b.sample_without_replacement(n, k, out);
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, sorted) << "n=" << n << " k=" << k;
    std::vector<std::uint64_t> words((n + 63) / 64, 0);
    m.sample_without_replacement_mask(n, k, words.data());
    std::vector<int> from_mask;
    for (int i = 0; i < n; ++i) {
      if ((words[i / 64] >> (i % 64)) & 1) from_mask.push_back(i);
    }
    EXPECT_EQ(from_mask, sorted) << "n=" << n << " k=" << k;
    // All three consumed identical draws: the streams stay in lockstep.
    const auto next = a();
    EXPECT_EQ(next, b()) << "n=" << n << " k=" << k;
    EXPECT_EQ(next, m()) << "n=" << n << " k=" << k;
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(43);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  // A non-zero begin checks that indices are offset, not renumbered.
  constexpr std::size_t kBegin = 5;
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    ThreadPool pool(workers);
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, workers, workers + 1,
                          std::size_t{10000}}) {
      std::vector<std::atomic<int>> hits(kBegin + n);
      pool.parallel_for(kBegin, kBegin + n,
                        [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), i < kBegin ? 0 : 1)
            << "workers=" << workers << " n=" << n << " index " << i;
      }
    }
  }
}

TEST(ThreadPool, ParallelForSpreadsTrailingSlowIndices) {
  // Grid order puts the expensive trials last. Contiguous chunks would hand
  // all six slow indices to one thread; dynamic claiming must not.
  constexpr std::size_t kN = 60;
  constexpr std::size_t kSlow = 6;
  ThreadPool pool(2);
  std::vector<std::thread::id> ran_on(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) {
    if (i >= kN - kSlow) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ran_on[i] = std::this_thread::get_id();
  });
  const std::set<std::thread::id> slow_threads(ran_on.end() - kSlow,
                                               ran_on.end());
  EXPECT_GE(slow_threads.size(), 2u);
}

TEST(ThreadPool, ParallelForRethrowsTheBodysExceptionOnTheCaller) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 200;
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(0, kN,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 0) throw std::length_error("boom");
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(1));
                                 }),
               std::length_error);
  // Claims stop once the failure is recorded.
  EXPECT_LT(ran.load(), kN);

  // The pool is intact: the next parallel_for runs every index normally.
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForN, SerialCutoffStillRuns) {
  std::vector<int> hits(10, 0);
  parallel_for_n(hits.size(), [&](std::size_t i) { hits[i] = 1; }, 2, 32);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Accumulator, MeanVarianceMinMax) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

// Regression: statistics undefined for n < 2 must come back finite (the CSV
// layer additionally renders them as empty cells) — never NaN.
TEST(Accumulator, Ci95AndStddevFiniteForFewerThanTwoSamples) {
  Accumulator empty;
  EXPECT_TRUE(std::isfinite(empty.ci95_halfwidth()));
  EXPECT_TRUE(std::isfinite(empty.stddev()));
  Accumulator one;
  one.add(3.5);
  EXPECT_TRUE(std::isfinite(one.ci95_halfwidth()));
  EXPECT_DOUBLE_EQ(one.ci95_halfwidth(), 0.0);
  EXPECT_TRUE(std::isfinite(one.stddev()));
  EXPECT_EQ(one.summary().find("nan"), std::string::npos);
}

TEST(Accumulator, QuantileInterpolates) {
  Accumulator acc;
  for (int i = 0; i <= 100; ++i) acc.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(acc.median(), 50.0);
  EXPECT_NEAR(acc.quantile(0.25), 25.0, 1e-9);
}

TEST(Accumulator, SummaryMentionsCount) {
  Accumulator acc;
  acc.add(1.0);
  acc.add(3.0);
  EXPECT_NE(acc.summary().find("n=2"), std::string::npos);
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps to bin 0
  h.add(0.5);
  h.add(9.9);
  h.add(42.0);   // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
  EXPECT_FALSE(h.render().empty());
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.set_caption("caption");
  t.row().cell("alpha").cell(1.5);
  t.row().cell("b").cell(42);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("caption"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, FormatNumber) {
  EXPECT_EQ(format_number(0.5), "0.5");
  EXPECT_EQ(format_number(12345.678), "1.235e+04");
}

TEST(Csv, WritesQuotedCells) {
  const std::string path = testing::TempDir() + "/ps_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    ASSERT_TRUE(w.ok());
    w.write_row(std::vector<std::string>{"x,y", "plain"});
    w.write_row(std::vector<double>{1.5, 2.0});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",plain");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2");
  std::remove(path.c_str());
}

TEST(Accumulator, StateRoundTripIsBitIdentical) {
  Accumulator acc(/*keep_samples=*/false);
  for (double x : {0.1, -2.75, 3.333333333333333, 1e-17, 41.0}) acc.add(x);
  const Accumulator restored = Accumulator::from_state(acc.state());
  EXPECT_EQ(restored.count(), acc.count());
  // Bitwise equality, not approximate: the state is the exact streaming
  // representation, so every derived statistic must match to the last bit.
  EXPECT_EQ(restored.mean(), acc.mean());
  EXPECT_EQ(restored.variance(), acc.variance());
  EXPECT_EQ(restored.stddev(), acc.stddev());
  EXPECT_EQ(restored.min(), acc.min());
  EXPECT_EQ(restored.max(), acc.max());
  EXPECT_EQ(restored.sum(), acc.sum());
  EXPECT_EQ(restored.ci95_halfwidth(), acc.ci95_halfwidth());
}

TEST(PercentileOfSorted, ExactOrderStatistics) {
  const std::vector<double> sorted = {-8.0, -1.0, 0.0, 3.0, 3.0, 12.0};
  // index = min(n-1, floor(q * n)), n = 6.
  EXPECT_EQ(percentile_of_sorted(sorted, 0.0), -8.0);
  EXPECT_EQ(percentile_of_sorted(sorted, 0.5), 3.0);    // floor(3.0) = 3
  EXPECT_EQ(percentile_of_sorted(sorted, 0.95), 12.0);  // floor(5.7) = 5
  EXPECT_EQ(percentile_of_sorted(sorted, 1.0), 12.0);   // clamped to n-1
  EXPECT_EQ(percentile_of_sorted({7.5}, 0.5), 7.5);
  // Exact, never interpolated: the result is always an element.
  const std::vector<double> pair = {1.0, 2.0};
  EXPECT_EQ(percentile_of_sorted(pair, 0.49), 1.0);
  EXPECT_EQ(percentile_of_sorted(pair, 0.5), 2.0);
}

TEST(Accumulator, PercentileIsPercentileOfSortedSamples) {
  Accumulator acc(/*keep_samples=*/true);
  for (double x : {4.0, -2.0, 4.0, 0.5, 19.0, -2.0, 3.25}) acc.add(x);
  ASSERT_TRUE(acc.samples_kept());
  for (double q : {0.0, 0.05, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(acc.percentile(q),
              percentile_of_sorted(acc.sorted_samples(), q));
  }
  EXPECT_TRUE(
      std::is_sorted(acc.sorted_samples().begin(), acc.sorted_samples().end()));
}

TEST(Accumulator, FromStateAndSamplesRestoresPercentiles) {
  Accumulator acc(/*keep_samples=*/true);
  for (double x : {0.1, -2.75, 3.333333333333333, 1e-17, 41.0}) acc.add(x);
  std::vector<double> samples = acc.sorted_samples();
  const Accumulator restored =
      Accumulator::from_state_and_samples(acc.state(), std::move(samples));
  ASSERT_TRUE(restored.samples_kept());
  // Streaming statistics AND percentiles are bit-identical — the cache-store
  // v2 round-trip contract.
  EXPECT_EQ(restored.mean(), acc.mean());
  EXPECT_EQ(restored.variance(), acc.variance());
  EXPECT_EQ(restored.min(), acc.min());
  EXPECT_EQ(restored.max(), acc.max());
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(restored.percentile(q), acc.percentile(q));
  }
  EXPECT_EQ(restored.sorted_samples(), acc.sorted_samples());
}

TEST(Accumulator, StreamingOnlyReportsSamplesNotKept) {
  Accumulator acc(/*keep_samples=*/false);
  acc.add(1.0);
  EXPECT_FALSE(acc.samples_kept());
  EXPECT_FALSE(Accumulator::from_state(acc.state()).samples_kept());
}

TEST(Accumulator, FromStateResumesStreaming) {
  Accumulator original(/*keep_samples=*/false);
  original.add(1.0);
  original.add(5.0);
  Accumulator resumed = Accumulator::from_state(original.state());
  original.add(-3.0);
  resumed.add(-3.0);
  EXPECT_EQ(resumed.mean(), original.mean());
  EXPECT_EQ(resumed.variance(), original.variance());
  EXPECT_EQ(resumed.min(), original.min());
  EXPECT_EQ(resumed.max(), original.max());
}

TEST(StopWatch, MeasuresNonNegative) {
  obs::StopWatch t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.milliseconds(), 0.0);
}

// --- number codec ------------------------------------------------------

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double from_bits(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Checks one value against the oracles: format_param must write what
/// printf("%.17g") writes, and parse_double must accept that rendering and
/// return strtod's bits. Returns an empty string, or the first difference.
std::string codec_difference(double value) {
  char expected[64];
  std::snprintf(expected, sizeof(expected), "%.17g", value);
  const std::string rendered = format_param(value);
  if (rendered != expected) {
    return "render " + rendered + " vs printf " + expected;
  }
  double parsed = 0.0;
  if (!parse_double(rendered, parsed)) return "parse rejected " + rendered;
  const double oracle = std::strtod(expected, nullptr);
  if (bits_of(parsed) != bits_of(oracle)) {
    return "parse of " + rendered + " differs from strtod";
  }
  if (!std::isnan(value) && bits_of(parsed) != bits_of(value)) {
    return "parse of " + rendered + " does not round-trip";
  }
  return "";
}

TEST(NumberCodec, MatchesPrintfAndStrtodOnAMillionBitPatterns) {
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
      from_bits(0x000fffffffffffffULL),  // largest subnormal
      5e-321,
      0.1,
      1.0 / 3.0,
      1e15,
      1e16,
      1e17,
      123456789012345678.0};
  Rng rng(20101001);
  // Uniform bit patterns cover every exponent about equally often, NaN
  // payloads included; ratios of small integers are the values the sweeps
  // actually write.
  for (int i = 0; i < 1'000'000; ++i) values.push_back(from_bits(rng()));
  for (int i = 0; i < 100'000; ++i) {
    values.push_back(static_cast<double>(rng.uniform_int(1, 1000)) /
                     static_cast<double>(rng.uniform_int(1, 1000)));
  }

  std::size_t differences = 0;
  std::string first;
  for (double value : values) {
    const std::string difference = codec_difference(value);
    if (difference.empty()) continue;
    if (differences++ == 0) first = difference;
  }
  EXPECT_EQ(differences, 0u) << "first: " << first;
}

TEST(NumberCodec, ParseRejectsWhatNoRenderingWrites) {
  double value = 0.0;
  for (const char* token : {"", "+1", "0x10", "0x1p3", " 1", "1 ", "1.5abc",
                            "1e", "1e-400", "-1e-400", "1e400", "-1e400"}) {
    EXPECT_FALSE(parse_double(token, value)) << "'" << token << "'";
  }
  // An exact subnormal keeps its value and loads.
  ASSERT_TRUE(parse_double("5e-321", value));
  EXPECT_EQ(value, std::strtod("5e-321", nullptr));
  ASSERT_TRUE(parse_double("-0", value));
  EXPECT_TRUE(std::signbit(value));

  std::uint64_t count = 0;
  for (const char* token : {"", "-1", "+1", "0x10", "5abc", " 5", "5 ", "1e3",
                            "18446744073709551616"}) {
    EXPECT_FALSE(parse_count(token, count)) << "'" << token << "'";
  }
  ASSERT_TRUE(parse_count("18446744073709551615", count));
  EXPECT_EQ(count, std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(parse_count("0", count));
  EXPECT_EQ(count, 0u);
}

}  // namespace
}  // namespace ps::util
