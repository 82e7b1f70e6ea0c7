// Unit tests for mfw::util: statistics, byte formatting, CRC32, strings,
// globbing, RNG determinism, blocking queue, thread pool, and the
// command-line parser.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "util/ascii_plot.hpp"
#include "util/blocking_queue.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/json_writer.hpp"
#include "util/log.hpp"
#include "util/lru.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/zipf.hpp"

namespace mfw::util {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(StreamingStats, MatchesClosedForm) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, SingleSampleHasZeroVariance) {
  StreamingStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Percentile, RejectsOutOfRange) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101), std::invalid_argument);
  // Out-of-range p is rejected even when the sample is empty.
  EXPECT_THROW(percentile({}, -1), std::invalid_argument);
  EXPECT_THROW(percentile({}, 101), std::invalid_argument);
}

TEST(Percentile, EmptySampleIsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 100), 0.0);
}

TEST(Percentile, SingleSampleIsThatSample) {
  const std::vector<double> xs{42.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 42.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 95), 42.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 42.0);
}

TEST(Percentile, TwoSamplesInterpolateBetween) {
  const std::vector<double> xs{10.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 15.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 20.0);
}

TEST(Histogram, BinsAndClamps) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);  // clamps into first bin
  h.add(0.5);
  h.add(9.99);
  h.add(100.0);  // clamps into last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

TEST(Bytes, ParsesUnits) {
  EXPECT_EQ(parse_bytes("512"), 512u);
  EXPECT_EQ(parse_bytes("1KB"), 1024u);
  EXPECT_EQ(parse_bytes("32GB"), 32ull * kGiB);
  EXPECT_EQ(parse_bytes("8.4 GB"),
            static_cast<std::uint64_t>(
                std::llround(8.4 * static_cast<double>(kGiB))));
  EXPECT_EQ(parse_bytes("1.5TiB"),
            static_cast<std::uint64_t>(
                std::llround(1.5 * static_cast<double>(kTiB))));
}

TEST(Bytes, RejectsGarbage) {
  EXPECT_THROW(parse_bytes("abc"), std::invalid_argument);
  EXPECT_THROW(parse_bytes("12parsecs"), std::invalid_argument);
}

TEST(Bytes, FormatsRoundTrippable) {
  EXPECT_EQ(format_bytes(32ull * kGiB), "32.0GB");
  EXPECT_EQ(format_bytes(100), "100B");
  EXPECT_EQ(format_bytes(1536), "1.50KB");
}

TEST(Bytes, FormatsSeconds) {
  EXPECT_EQ(format_seconds(44.0), "44.00s");
  EXPECT_EQ(format_seconds(0.05), "50ms");
  EXPECT_EQ(format_seconds(125.0), "2m05s");
}

TEST(Crc32, KnownVectors) {
  // Standard check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Crc32 inc;
  inc.update("1234", 4);
  inc.update("56789", 5);
  EXPECT_EQ(inc.value(), crc32("123456789", 9));
}

// Independent oracle: CRC-32 one bit at a time, no table and no folding.
// Takes and returns the raw register (start 0xffffffff, final value ~reg).
std::uint32_t crc32_bitwise(std::uint32_t reg, const std::uint8_t* p,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    reg ^= p[i];
    for (int k = 0; k < 8; ++k)
      reg = (reg >> 1) ^ (0xedb88320u & (0u - (reg & 1u)));
  }
  return reg;
}

std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n) {
  return ~crc32_bitwise(0xffffffffu, p, n);
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndOffset) {
  // Lengths cross the folding kernel's 64-byte entry and 16-byte steps;
  // offsets 0-15 cover every load alignment.
  constexpr std::size_t kMaxLen = 2048;
  const auto buf = random_bytes(kMaxLen + 16, 7);
  for (std::size_t off = 0; off < 16; ++off) {
    std::uint32_t reg = 0xffffffffu;  // oracle over buf[off, off + len)
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(crc32(buf.data() + off, len), ~reg)
          << "len " << len << " offset " << off;
      if (len < kMaxLen) reg = crc32_bitwise(reg, buf.data() + off + len, 1);
    }
  }
}

TEST(Crc32, MatchesBitwiseOracleOnLargeBuffer) {
  // About one materialized granule's hdfl payload, with an odd tail.
  const auto buf = random_bytes((33u << 20) + 13, 11);
  EXPECT_EQ(crc32(buf.data(), buf.size()),
            crc32_bitwise(buf.data(), buf.size()));
}

TEST(Crc32, SplitUpdatesMatchOneShot) {
  // Each half lands on either side of the table loop's 16-byte tail and the
  // kernel's 64-byte minimum, so the state crosses every path boundary.
  for (const std::size_t total : {std::size_t{200}, std::size_t{4096 + 37}}) {
    const auto buf = random_bytes(total, total);
    const std::uint32_t whole = crc32_bitwise(buf.data(), buf.size());
    for (const std::size_t cut : {0, 1, 15, 16, 17, 63, 64, 65, 79, 80, 81,
                                  127, 128, 129}) {
      for (const std::size_t split : {cut, total - cut}) {
        Crc32 inc;
        inc.update(buf.data(), split);
        inc.update(buf.data() + split, total - split);
        EXPECT_EQ(inc.value(), whole)
            << "total " << total << " split " << split;
      }
    }
  }
}

TEST(Crc32, EverySingleBitFlipChangesTheCrc) {
  auto buf = random_bytes(4096, 3);
  const std::uint32_t clean = crc32(buf.data(), buf.size());
  for (std::size_t bit = 0; bit < buf.size() * 8; ++bit) {
    buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ASSERT_NE(crc32(buf.data(), buf.size()), clean) << "bit " << bit;
    buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(Strings, ParseCountIsStrict) {
  std::size_t out = 7;
  EXPECT_TRUE(parse_count("0", 0, out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(parse_count("2000", 1, out));
  EXPECT_EQ(out, 2000u);
  for (const char* bad : {"", "2000x", "x", "-1", "+1", " 1", "1 ", "1e3",
                          "1.5", "99999999999999999999999"}) {
    out = 7;
    EXPECT_FALSE(parse_count(bad, 0, out)) << bad;
    EXPECT_EQ(out, 7u) << bad;
  }
  EXPECT_FALSE(parse_count("0", 1, out));
}

TEST(Strings, ParseRealIsStrict) {
  double out = 7.0;
  EXPECT_TRUE(parse_real("2.5", 0.0, out));
  EXPECT_EQ(out, 2.5);
  EXPECT_TRUE(parse_real(".5", 0.0, out));
  EXPECT_EQ(out, 0.5);
  EXPECT_TRUE(parse_real("3e2", 0.0, out));
  EXPECT_EQ(out, 300.0);
  EXPECT_TRUE(parse_real("-1", -2.0, out));
  EXPECT_EQ(out, -1.0);
  for (const char* bad : {"", "abc", "1x", "+1", " 1", "1 ", "1e", "-",
                          "inf", "nan", "0x10", "1e999", "1,5"}) {
    out = 7.0;
    EXPECT_FALSE(parse_real(bad, -10.0, out)) << bad;
    EXPECT_EQ(out, 7.0) << bad;
  }
  EXPECT_FALSE(parse_real("-0.5", 0.0, out));
  EXPECT_TRUE(parse_real("0", 0.0, out));
}

/// Values whose six-decimal text is easy to get wrong: signed zeros, exact
/// binary ties at the sixth decimal (0.0078125 = 2^-7 rounds half to even
/// down, 0.0234375 = 3/128 up), tiny, huge and non-finite values, then a
/// sweep of dyadic fractions and of mantissas at every decimal magnitude.
std::vector<double> fixed6_cases() {
  using limits = std::numeric_limits<double>;
  std::vector<double> cases = {
      0.0,          -0.0,       1.0,         -1.5,        0.1,
      123.456789,   1e-7,       -1e-7,       5e-7,        0.0078125,
      -0.0078125,   0.0234375,  0.5,         2.5,         1234567.8912345,
      1e20,         -1e20,      1e300,       -1e300,      limits::max(),
      -limits::max(),           limits::denorm_min(),     limits::infinity(),
      -limits::infinity(),      limits::quiet_NaN(),      -limits::quiet_NaN()};
  for (int shift = 1; shift <= 24; ++shift)
    for (int k = 1; k <= 64; ++k) cases.push_back(std::ldexp(k, -shift));
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int exponent = -9; exponent <= 22; ++exponent) {
    for (int i = 0; i < 64; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double mantissa = static_cast<double>(state >> 11) * 0x1p-53;
      cases.push_back((i % 2 ? -1.0 : 1.0) * mantissa *
                      std::pow(10.0, exponent));
    }
  }
  return cases;
}

TEST(Strings, Fixed6IsTheTextOfToString) {
  for (const double value : fixed6_cases())
    EXPECT_EQ(fixed6(value), std::to_string(value)) << value;
  EXPECT_EQ(fixed6(0.0078125), "0.007812");
  EXPECT_EQ(fixed6(0.0234375), "0.023438");
  EXPECT_EQ(fixed6(-0.0), "-0.000000");
}

TEST(Strings, AppendPaddedIsPrintfZeroPadding) {
  for (const int value : {0, 1, -1, 7, -7, 42, 999, 2022, 12345, -12345,
                          std::numeric_limits<int>::max(),
                          std::numeric_limits<int>::min()}) {
    for (int width = 0; width <= 12; ++width) {
      char expect[32];
      std::snprintf(expect, sizeof expect, "%0*d", width, value);
      std::string out = "x";
      append_padded(out, value, width);
      EXPECT_EQ(out, std::string("x") + expect)
          << value << " at width " << width;
    }
  }
}

TEST(Strings, ParseDoublePrefixReadsWhatFixed6Writes) {
  // Every text fixed6 writes reads back to strtod's double.
  for (const double value : fixed6_cases()) {
    if (!std::isfinite(value)) continue;
    const std::string text = fixed6(value);
    double out = 7.0;
    ASSERT_TRUE(parse_double_prefix(text, out)) << text;
    EXPECT_EQ(out, std::strtod(text.c_str(), nullptr)) << text;
  }
  // The longest numeric prefix, as strtod reads it.
  for (const char* text : {"0", "3", "-12", "2.5", ".5", "-0.25", "1e300",
                           "-1e-300", "12abc", "1.5e", "0.1.2", "4 5", "inf",
                           "-inf", "infinity"}) {
    double out = 7.0;
    ASSERT_TRUE(parse_double_prefix(text, out)) << text;
    EXPECT_EQ(out, std::strtod(text, nullptr)) << text;
  }
  double out = 7.0;
  ASSERT_TRUE(parse_double_prefix("nan", out));
  EXPECT_TRUE(std::isnan(out));
  // Hex is not read: "0x10" is 0 followed by other text.
  ASSERT_TRUE(parse_double_prefix("0x10", out));
  EXPECT_EQ(out, 0.0);
  // No numeric prefix, a blank or '+' before it, or out of range: `out` is
  // left alone.
  for (const char* text : {"", "abc", "-", ".", "e5", " 1", "+1", "1e999",
                           "-1e999"}) {
    out = 7.0;
    EXPECT_FALSE(parse_double_prefix(text, out)) << text;
    EXPECT_EQ(out, 7.0) << text;
  }
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, GlobMatch) {
  EXPECT_TRUE(glob_match("*.ncl", "tiles/file.ncl"));
  EXPECT_TRUE(glob_match("tiles/*.ncl", "tiles/file.ncl"));
  EXPECT_FALSE(glob_match("tiles/*.ncl", "outbox/file.ncl"));
  EXPECT_TRUE(glob_match("MOD0?1KM*", "MOD021KM.A2022001.0000.061.hdf"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_FALSE(glob_match("?", ""));
  EXPECT_TRUE(glob_match("a*b*c", "axxbyyc"));
  EXPECT_FALSE(glob_match("a*b*c", "axxbyy"));
}

TEST(Strings, PathHelpers) {
  EXPECT_EQ(path_join("a/", "/b"), "a/b");
  EXPECT_EQ(path_join("", "b"), "b");
  EXPECT_EQ(path_basename("a/b/c.nc"), "c.nc");
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(1234), b(1234), c(99);
  EXPECT_EQ(a(), b());
  Rng a2(1234);
  (void)c();
  EXPECT_NE(a2(), c());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  StreamingStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, NormalIsBoxMullerOfItsDraws) {
  // normal() consumes the words of one normal_draw, u1 then u2, and returns
  // box_muller of them: MOD02 draws a row's pairs first and computes their
  // normals afterwards, so both must hold bit for bit.
  Rng a(21), b(21), c(21);
  for (int i = 0; i < 100000; ++i) {
    const auto d = b.normal_draw();
    const double u1 = c.uniform();
    const double u2 = c.uniform();
    ASSERT_GT(u1, 0.0);  // no redraw at this seed
    ASSERT_EQ(d.u1, u1);
    ASSERT_EQ(d.u2, u2);
    const double n = a.normal();
    const double direct = std::sqrt(-2.0 * std::log(u1)) *
                          std::cos(2.0 * std::numbers::pi * u2);
    ASSERT_EQ(std::memcmp(&n, &direct, sizeof n), 0) << i;
    const double batch = Rng::box_muller(d.u1, d.u2);
    ASSERT_EQ(std::memcmp(&n, &batch, sizeof n), 0) << i;
  }
  const auto next = a();
  EXPECT_EQ(b(), next);
  EXPECT_EQ(c(), next);
}

TEST(Rng, LognormalMedianIsMedian) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 10001; ++i) xs.push_back(rng.lognormal_median(8.0, 0.3));
  EXPECT_NEAR(percentile(xs, 50), 8.0, 0.25);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(17);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.try_pop().value(), 3);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, CloseDrainsThenStops) {
  BlockingQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_FALSE(q.push(2));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, CrossThreadDelivery) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) q.push(i);
    q.close();
  });
  int count = 0;
  while (q.pop()) ++count;
  producer.join();
  EXPECT_EQ(count, 100);
}

TEST(ThreadPool, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) pool.submit([&] { ++counter; });
    pool.shutdown();
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ChunkedOverloadSeesContiguousRanges) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  parallel_for(pool, 103, 10, [&](std::size_t begin, std::size_t end) {
    EXPECT_LT(begin, end);
    EXPECT_LE(end, 103u);
    EXPECT_EQ(begin % 10, 0u);  // boundaries depend only on (n, chunk)
    total += end - begin;
  });
  EXPECT_EQ(total.load(), 103u);
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, OneThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  parallel_for(pool, 57, 4, [&](std::size_t begin, std::size_t end) {
    counter += static_cast<int>(end - begin);
  });
  EXPECT_EQ(counter.load(), 57);
}

TEST(ParallelFor, WorksAfterPoolShutdown) {
  ThreadPool pool(2);
  pool.shutdown();  // submit() now fails; the caller runs every chunk itself
  std::atomic<int> counter{0};
  parallel_for(pool, 20, 3, [&](std::size_t begin, std::size_t end) {
    counter += static_cast<int>(end - begin);
  });
  EXPECT_EQ(counter.load(), 20);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 100, 1,
                   [&](std::size_t begin, std::size_t) {
                     if (begin == 42) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, RejectsZeroChunk) {
  ThreadPool pool(1);
  EXPECT_THROW(parallel_for(pool, 5, 0, [](std::size_t, std::size_t) {}),
               std::invalid_argument);
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"a", "longer"});
  t.add_row({"1", "2"});
  const auto text = t.render();
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "a,longer\n1,2\n");
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvQuotesSpecials) {
  Table t({"x"});
  t.add_row({"a,b\"c"});
  EXPECT_EQ(t.to_csv(), "x\n\"a,b\"\"c\"\n");
}

TEST(Bytes, FormatsRates) {
  EXPECT_EQ(format_rate(12.4 * 1024 * 1024), "12.4MB/s");
  EXPECT_EQ(format_rate(3.0), "3.00B/s");
  EXPECT_EQ(format_rate(2.0 * 1024 * 1024 * 1024), "2.00GB/s");
}

TEST(Histogram, RenderShowsBars) {
  Histogram h(0.0, 4.0, 2);
  h.add(1.0);
  h.add(1.5);
  h.add(3.0);
  const auto text = h.render(10);
  EXPECT_NE(text.find("(2)"), std::string::npos);
  EXPECT_NE(text.find("(1)"), std::string::npos);
  EXPECT_THROW(Histogram(0.0, 4.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(4.0, 4.0, 2), std::invalid_argument);
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  // Smoke: output contains axes labels, legend names, and markers.
  Series a{"alpha", {0, 1, 2}, {0, 1, 4}, 'a'};
  Series b{"beta", {0, 1, 2}, {4, 1, 0}, 'b'};
  const auto plot = ascii_plot({a, b}, 30, 8, "xs", "ys");
  EXPECT_NE(plot.find("xs"), std::string::npos);
  EXPECT_NE(plot.find("ys"), std::string::npos);
  EXPECT_NE(plot.find("alpha"), std::string::npos);
  EXPECT_NE(plot.find('a'), std::string::npos);
  EXPECT_NE(plot.find('b'), std::string::npos);
}

TEST(AsciiPlot, BarsScaleToPeak) {
  const auto bars = ascii_bars({{"long", 10.0}, {"short", 1.0}}, 20);
  // The peak bar is 20 chars; the small one about 2.
  EXPECT_NE(bars.find(std::string(20, '#')), std::string::npos);
  EXPECT_EQ(bars.find(std::string(21, '#')), std::string::npos);
}

TEST(AsciiPlot, DegenerateInputsDoNotCrash) {
  EXPECT_FALSE(ascii_plot({}, 10, 4).empty());
  Series flat{"flat", {1, 1}, {2, 2}, '*'};
  EXPECT_FALSE(ascii_plot({flat}, 10, 4).empty());
  EXPECT_TRUE(ascii_bars({}).empty());
}

TEST(Logger, SinkReceivesFormattedLine) {
  auto& logger = Logger::instance();
  std::vector<std::string> lines;
  logger.set_sink([&](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  logger.set_level(LogLevel::kInfo);
  MFW_INFO("test", "hello ", 42);
  MFW_DEBUG("test", "hidden");
  logger.set_sink(nullptr);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "[INFO] test: hello 42");
}

TEST(Logger, LevelChecksAreLockFreeAndOrdered) {
  auto& logger = Logger::instance();
  logger.set_level(LogLevel::kWarn);
  EXPECT_EQ(logger.level(), LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug));
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(LogLevel::kWarn));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
  logger.set_level(LogLevel::kOff);
  EXPECT_FALSE(logger.enabled(LogLevel::kError));
  logger.set_level(LogLevel::kInfo);
}

TEST(Logger, LevelFiltersEvenWithSinkInstalled) {
  auto& logger = Logger::instance();
  std::vector<std::string> lines;
  logger.set_sink(
      [&](LogLevel, const std::string& line) { lines.push_back(line); });
  logger.set_level(LogLevel::kError);
  // Below-threshold calls must not reach the sink even when invoked
  // directly (bypassing the macro's early-out).
  logger.log(LogLevel::kInfo, "test", "filtered");
  logger.log(LogLevel::kError, "test", "kept");
  logger.set_sink(nullptr);
  logger.set_level(LogLevel::kInfo);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "[ERROR] test: kept");
}

TEST(JsonWriter, SeparatorControlReproducesReportIdioms) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "mfw.test/v1");
  w.field("count", 3);
  w.key("items", "\n ").begin_array();
  w.item("\n  ").begin_object().field("id", 1).end_object();
  w.item("\n  ").begin_object().field("id", 2).end_object();
  w.end_array("\n ");
  w.key("flat", "\n ").begin_array();
  w.inline_item().value(1);
  w.inline_item().value(2);
  w.inline_item().value(3);
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"schema\": \"mfw.test/v1\", \"count\": 3,"
            "\n \"items\": ["
            "\n  {\"id\": 1},"
            "\n  {\"id\": 2}\n ],"
            "\n \"flat\": [1, 2, 3]}");
}

TEST(JsonWriter, EmptyContainersAndEscaping) {
  JsonWriter w;
  w.begin_object();
  w.key("empty", "").begin_array().end_array("\n");  // close_prefix skipped
  w.field("text", "a\"b\\c\nd");
  w.field("flag", true);
  w.field("neg", -12);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"empty\": [], \"text\": \"a\\\"b\\\\c\\nd\", "
            "\"flag\": true, \"neg\": -12}");
  EXPECT_EQ(json_escape("tab\tend"), "tab\\tend");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_EQ(cache.get(1).value(), 10);  // promotes 1
  cache.put(3, 30);                     // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1).value(), 10);
  EXPECT_EQ(cache.get(3).value(), 30);
  EXPECT_EQ(cache.evictions(), 1u);
  cache.put(1, 11);  // overwrite keeps size
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.get(1).value(), 11);
  EXPECT_TRUE(cache.erase(3));
  EXPECT_FALSE(cache.erase(3));
}

TEST(ShardedLruCache, CountsHitsAcrossThreads) {
  ShardedLruCache<int, int> cache(64, 4);
  for (int i = 0; i < 32; ++i) cache.put(i, i * 2);
  std::vector<std::thread> threads;
  std::atomic<int> found{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 32; ++i) {
        if (auto v = cache.get(i); v && *v == i * 2)
          found.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(found.load(), 4 * 32);
  EXPECT_EQ(cache.hits(), 4u * 32u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_GT(cache.hit_rate(), 0.99);
}

TEST(ZipfGenerator, SkewsTowardLowRanksAndIsDeterministic) {
  ZipfGenerator zipf(100, 1.1);
  Rng rng_a(7), rng_b(7);
  std::vector<std::size_t> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t rank = zipf(rng_a);
    ASSERT_LT(rank, 100u);
    ++counts[rank];
    EXPECT_EQ(zipf(rng_b), rank);  // deterministic given the Rng
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 20);  // rank 0 well above uniform share
  // CDF is monotone and complete.
  EXPECT_DOUBLE_EQ(zipf.cdf(99), 1.0);
  EXPECT_LT(zipf.cdf(0), 1.0);
  EXPECT_GT(zipf.cdf(0), zipf.cdf(1) - zipf.cdf(0));  // mass decreasing

  ZipfGenerator uniform(4, 0.0);
  EXPECT_NEAR(uniform.cdf(0), 0.25, 1e-12);
}


// The declaration every parser case reads: a switch, a text, a count in
// [1, 365], a real of at least 0.5, a required and an optional positional.
cli::Command test_command() {
  return cli::Command("tool", {cli::positional("config.yaml"),
                               cli::optional("extra.yaml"), cli::flag("--quick"),
                               cli::text("--out", "path"),
                               cli::count("--days", "n", 1, 365),
                               cli::real("--window", "s", 0.5)});
}

/// The UsageError message `tokens` give, or "" when they parse.
std::string usage_error(const std::vector<std::string>& tokens) {
  try {
    test_command().parse(tokens);
  } catch (const cli::UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, ReadsEachDeclaredKind) {
  const auto args =
      test_command().parse({"a.yaml", "--days", "365", "--quick", "b.yaml",
                            "--window", "0.5", "--out", "-"});
  EXPECT_EQ(args.text("config.yaml"), "a.yaml");
  EXPECT_EQ(args.text("extra.yaml"), "b.yaml");
  EXPECT_TRUE(args.has("--quick"));
  EXPECT_EQ(args.count("--days", 7), 365u);
  EXPECT_EQ(args.real("--window", 2.0), 0.5);
  EXPECT_EQ(args.text("--out"), "-");  // a lone dash is a value, not a flag

  const auto defaults = test_command().parse({"a.yaml"});
  EXPECT_FALSE(defaults.has("--quick"));
  EXPECT_FALSE(defaults.has("extra.yaml"));
  EXPECT_FALSE(defaults.has("--undeclared"));
  EXPECT_EQ(defaults.text("--out", "fallback"), "fallback");
  EXPECT_EQ(defaults.count("--days", 7), 7u);
  EXPECT_EQ(defaults.real("--window", 2.0), 2.0);
  EXPECT_THROW(defaults.count("--out", 0), std::logic_error);
  EXPECT_THROW(defaults.text("--undeclared"), std::logic_error);
}

TEST(Cli, RejectsUnknownFlag) {
  EXPECT_EQ(usage_error({"a.yaml", "--bogus"}), "unknown flag '--bogus'");
  EXPECT_EQ(usage_error({"--quick=1", "a.yaml"}), "unknown flag '--quick=1'");
}

TEST(Cli, RejectsMissingValue) {
  EXPECT_EQ(usage_error({"a.yaml", "--out"}), "flag '--out' requires a value");
  // A value token starting with "--" is the next flag, never a value.
  EXPECT_EQ(usage_error({"a.yaml", "--out", "--quick"}),
            "flag '--out' requires a value");
  EXPECT_EQ(usage_error({"a.yaml", "--days", "--days", "3"}),
            "flag '--days' requires a value");
}

TEST(Cli, RejectsRepeatedFlag) {
  EXPECT_EQ(usage_error({"a.yaml", "--quick", "--quick"}),
            "repeated flag '--quick'");
  EXPECT_EQ(usage_error({"a.yaml", "--days", "2", "--days", "abc"}),
            "repeated flag '--days'");
}

TEST(Cli, RejectsCountOutsideItsRange) {
  EXPECT_EQ(usage_error({"a.yaml", "--days", "0"}),
            "invalid value '0' for flag '--days'");
  EXPECT_EQ(usage_error({"a.yaml", "--days", "366"}),
            "invalid value '366' for flag '--days'");
  EXPECT_EQ(usage_error({"a.yaml", "--days", "-5"}),
            "invalid value '-5' for flag '--days'");
  EXPECT_EQ(usage_error({"a.yaml", "--days", "3x"}),
            "invalid value '3x' for flag '--days'");
  EXPECT_EQ(usage_error({"a.yaml", "--days", "1"}), "");
}

TEST(Cli, RejectsRealBelowItsMinimum) {
  EXPECT_EQ(usage_error({"a.yaml", "--window", "0.4"}),
            "invalid value '0.4' for flag '--window'");
  EXPECT_EQ(usage_error({"a.yaml", "--window", "nan"}),
            "invalid value 'nan' for flag '--window'");
  EXPECT_EQ(usage_error({"a.yaml", "--window", "1e9"}), "");
}

TEST(Cli, RejectsExtraAndMissingPositionals) {
  EXPECT_EQ(usage_error({"a.yaml", "b.yaml", "c.yaml"}),
            "unexpected argument 'c.yaml'");
  EXPECT_EQ(usage_error({"--quick"}), "missing <config.yaml>");
  EXPECT_EQ(usage_error({}), "missing <config.yaml>");
  // The first rejected token wins over a missing positional.
  EXPECT_EQ(usage_error({"--bogus"}), "unknown flag '--bogus'");
}

TEST(Cli, UsageListsEveryDeclaredArg) {
  EXPECT_EQ(test_command().usage(),
            "usage: tool <config.yaml> [<extra.yaml>] [--quick] "
            "[--out <path>] [--days <n>]\n"
            "            [--window <s>]");
  EXPECT_EQ(cli::Command("bare").usage("  "), "  bare");
  // Every line stays within 80 columns, continuations under the first arg.
  const auto wide = cli::Command(
      "mfwctl wide", {cli::text("--aaaaaaaaaaaaaaaaaaaa", "path"),
                      cli::text("--bbbbbbbbbbbbbbbbbbbb", "path"),
                      cli::text("--cccccccccccccccccccc", "path")});
  EXPECT_EQ(wide.usage(),
            "usage: mfwctl wide [--aaaaaaaaaaaaaaaaaaaa <path>]\n"
            "                   [--bbbbbbbbbbbbbbbbbbbb <path>]\n"
            "                   [--cccccccccccccccccccc <path>]");
}

}  // namespace
}  // namespace mfw::util
