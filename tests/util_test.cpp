// Unit tests for mfw::util: statistics, byte formatting, CRC32, strings,
// globbing, RNG determinism, blocking queue, and thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "util/ascii_plot.hpp"
#include "util/blocking_queue.hpp"
#include "util/bytes.hpp"
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

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimAndJoin) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(join({"a", "b", "c"}, "/"), "a/b/c");
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
  EXPECT_EQ(path_dirname("a/b/c.nc"), "a/b");
  EXPECT_EQ(path_dirname("c.nc"), "");
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

}  // namespace
}  // namespace mfw::util
