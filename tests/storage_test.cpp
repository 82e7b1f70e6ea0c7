// Unit tests for filesystem abstractions: MemFs semantics, Lustre decorator
// accounting, buffer sharing between writers, readers and decoders, and the
// binary reader/writer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "storage/hdfl.hpp"
#include "storage/lustre_sim.hpp"
#include "storage/memfs.hpp"
#include "storage/ncl.hpp"
#include "storage/posixfs.hpp"
#include "storage/serialize.hpp"

namespace mfw::storage {
namespace {

TEST(MemFs, WriteReadRoundTrip) {
  MemFs fs("test");
  fs.write_text("a/b.txt", "hello");
  EXPECT_TRUE(fs.exists("a/b.txt"));
  EXPECT_EQ(fs.read_text("a/b.txt"), "hello");
  EXPECT_EQ(fs.file_size("a/b.txt"), 5u);
}

TEST(MemFs, MissingFileThrows) {
  MemFs fs("test");
  EXPECT_THROW(fs.read_file("nope"), std::runtime_error);
  EXPECT_THROW(fs.file_size("nope"), std::runtime_error);
  EXPECT_THROW(fs.rename("nope", "x"), std::runtime_error);
  EXPECT_FALSE(fs.exists("nope"));
}

TEST(MemFs, OverwriteReplacesAndBumpsMtime) {
  MemFs fs("test");
  fs.write_text("f", "one");
  const auto m1 = fs.list("f").front().mtime;
  fs.write_text("f", "two!");
  const auto m2 = fs.list("f").front().mtime;
  EXPECT_EQ(fs.read_text("f"), "two!");
  EXPECT_GT(m2, m1);
  EXPECT_EQ(fs.list("").size(), 1u);
}

TEST(MemFs, ListGlobAndSorted) {
  MemFs fs("test");
  fs.write_text("tiles/b.ncl", "");
  fs.write_text("tiles/a.ncl", "x");
  fs.write_text("outbox/c.ncl", "y");
  const auto tiles = fs.list("tiles/*.ncl");
  ASSERT_EQ(tiles.size(), 2u);
  EXPECT_EQ(tiles[0].path, "tiles/a.ncl");
  EXPECT_EQ(tiles[1].path, "tiles/b.ncl");
  EXPECT_EQ(fs.list("").size(), 3u);
}

TEST(MemFs, RemoveAndRename) {
  MemFs fs("test");
  fs.write_text("a", "1");
  fs.rename("a", "b");
  EXPECT_FALSE(fs.exists("a"));
  EXPECT_EQ(fs.read_text("b"), "1");
  EXPECT_TRUE(fs.remove("b"));
  EXPECT_FALSE(fs.remove("b"));
}

TEST(MemFs, TotalBytes) {
  MemFs fs("test");
  fs.write_text("a", "12345");
  fs.write_text("b", "123");
  EXPECT_EQ(fs.total_bytes(), 8u);
}

TEST(LustreSim, CountsBytesAndOps) {
  MemFs inner("scratch");
  LustreSimFs lustre(inner, 1e9);
  lustre.write_text("f", "12345678");
  (void)lustre.read_file("f");
  (void)lustre.read_file("f");
  EXPECT_EQ(lustre.bytes_written(), 8u);
  EXPECT_EQ(lustre.bytes_read(), 16u);
  EXPECT_EQ(lustre.write_ops(), 1u);
  EXPECT_EQ(lustre.read_ops(), 2u);
}

TEST(LustreSim, DelegatesSemantics) {
  MemFs inner("scratch");
  LustreSimFs lustre(inner, 1e9);
  lustre.write_text("a/f", "x");
  EXPECT_TRUE(inner.exists("a/f"));  // decorator writes through
  lustre.rename("a/f", "b/f");
  EXPECT_TRUE(lustre.exists("b/f"));
  EXPECT_EQ(lustre.list("b/*").size(), 1u);
  EXPECT_TRUE(lustre.remove("b/f"));
  EXPECT_THROW(LustreSimFs(inner, 0.0), std::invalid_argument);
}

Bytes text_bytes(std::string_view text) {
  const auto bytes = std::as_bytes(std::span(text.data(), text.size()));
  return std::vector<std::byte>(bytes.begin(), bytes.end());
}

std::string text_of(const Bytes& bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

bool points_inside(const Bytes& part, const Bytes& whole) {
  return part.data() >= whole.data() &&
         part.data() + part.size() <= whole.data() + whole.size();
}

TEST(Sharing, ReadReturnsTheWrittenBuffer) {
  MemFs inner("scratch");
  LustreSimFs lustre(inner, 1e9);
  const Bytes written = text_bytes("shared bytes");
  inner.write_file("m", written);
  lustre.write_file("l", written);
  EXPECT_EQ(inner.read_file("m").data(), written.data());
  EXPECT_EQ(lustre.read_file("l").data(), written.data());
  EXPECT_EQ(inner.read_file("l").data(), written.data());
  EXPECT_EQ(lustre.bytes_written(), written.size());
  EXPECT_EQ(lustre.bytes_read(), written.size());
}

TEST(Sharing, ReadBufferOutlivesOverwriteRenameAndRemove) {
  MemFs fs("scratch");
  fs.write_text("a", "first");
  const Bytes first = fs.read_file("a");
  fs.write_text("a", "second");
  EXPECT_EQ(text_of(first), "first");
  const Bytes second = fs.read_file("a");
  fs.rename("a", "b");
  EXPECT_EQ(fs.read_file("b").data(), second.data());
  EXPECT_TRUE(fs.remove("b"));
  EXPECT_EQ(text_of(second), "second");
  EXPECT_EQ(text_of(first), "first");
}

TEST(Sharing, SliceSharesAndChecksBounds) {
  const Bytes whole = text_bytes("0123456789");
  const Bytes part = whole.slice(2, 5);
  EXPECT_EQ(part.data(), whole.data() + 2);
  EXPECT_EQ(text_of(part), "23456");
  EXPECT_EQ(whole.slice(10, 0).size(), 0u);
  EXPECT_THROW((void)whole.slice(11, 0), std::out_of_range);
  EXPECT_THROW((void)whole.slice(4, 7), std::out_of_range);
  EXPECT_THROW((void)whole.slice(1, ~std::size_t{0}), std::out_of_range);
}

TEST(Sharing, DecodedPayloadsSliceTheFileAndOutliveItsPath) {
  MemFs fs("scratch");
  HdflFile granule;
  granule.add(Dataset::f32("X", {3}, {1.5f, 2.5f, 3.5f}));
  fs.write_file("g.hdfl", granule.serialize());
  NclFile tiles;
  tiles.add_dim("tile", 2);
  tiles.add_i32("label", {"tile"}, {7, 9});
  fs.write_file("t.ncl", tiles.serialize());

  const Bytes granule_file = fs.read_file("g.hdfl");
  const auto decoded = HdflFile::deserialize(granule_file);
  const auto partial = HdflFile::read_dataset(granule_file, "X");
  const Bytes tile_file = fs.read_file("t.ncl");
  const auto decoded_tiles = NclFile::deserialize(tile_file);
  EXPECT_TRUE(points_inside(decoded.dataset("X").data, granule_file));
  ASSERT_TRUE(partial.has_value());
  EXPECT_TRUE(points_inside(partial->data, granule_file));
  EXPECT_TRUE(points_inside(decoded_tiles.var("label").data, tile_file));

  fs.write_text("g.hdfl", "replaced");
  fs.write_text("t.ncl", "replaced");
  EXPECT_EQ(decoded.dataset("X").as_f32().to_vector(),
            (std::vector<float>{1.5f, 2.5f, 3.5f}));
  EXPECT_EQ(partial->as_f32()[2], 3.5f);
  EXPECT_EQ(decoded_tiles.var("label").as_i32().to_vector(),
            (std::vector<std::int32_t>{7, 9}));
}

// Readers decode one path while a writer keeps replacing it: each decode
// sees one whole version, and no version is written after it is stored.
TEST(Sharing, ReadersDecodeWhileWriterReplaces) {
  MemFs fs("scratch");
  const auto version = [](int v) {
    HdflFile file;
    file.attrs()["version"] = std::to_string(v);
    file.add(Dataset::f32("X", {256}, std::vector<float>(256, static_cast<float>(v))));
    return file.serialize();
  };
  fs.write_file("f", version(0));
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto file = HdflFile::deserialize(fs.read_file("f"));
        const float v = std::stof(file.attrs().at("version"));
        for (const float x : file.dataset("X").as_f32())
          if (x != v) ++bad;
      }
    });
  }
  for (int v = 1; v <= 200; ++v) fs.write_file("f", version(v));
  stop = true;
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(bad.load(), 0);
}

class PosixFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("mfw_posixfs_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  std::filesystem::path root_;
};

TEST_F(PosixFsTest, WriteReadListRemove) {
  PosixFs fs(root_, "disk");
  fs.write_text("tiles/a.ncl", "alpha");
  fs.write_text("tiles/b.ncl", "beta");
  fs.write_text("other/c.txt", "gamma");
  EXPECT_TRUE(fs.exists("tiles/a.ncl"));
  EXPECT_EQ(fs.read_text("tiles/a.ncl"), "alpha");
  EXPECT_EQ(fs.file_size("tiles/b.ncl"), 4u);
  const auto tiles = fs.list("tiles/*.ncl");
  ASSERT_EQ(tiles.size(), 2u);
  EXPECT_EQ(tiles[0].path, "tiles/a.ncl");
  EXPECT_TRUE(fs.remove("tiles/a.ncl"));
  EXPECT_FALSE(fs.remove("tiles/a.ncl"));
  EXPECT_THROW(fs.read_file("tiles/a.ncl"), std::runtime_error);
}

TEST_F(PosixFsTest, PersistsAcrossInstances) {
  {
    PosixFs fs(root_, "disk");
    fs.write_text("models/ricc.hdfl", "weights");
  }
  PosixFs reopened(root_, "disk");
  EXPECT_EQ(reopened.read_text("models/ricc.hdfl"), "weights");
}

TEST_F(PosixFsTest, RewriteBumpsMtimeMonotonically) {
  PosixFs fs(root_);
  fs.write_text("f", "one");
  const auto m1 = fs.list("f").front().mtime;
  fs.write_text("f", "two");
  const auto m2 = fs.list("f").front().mtime;
  EXPECT_GT(m2, m1);
}

TEST_F(PosixFsTest, RenameMovesAcrossDirectories) {
  PosixFs fs(root_);
  fs.write_text("tiles/x.ncl", "data");
  fs.rename("tiles/x.ncl", "outbox/x.ncl");
  EXPECT_FALSE(fs.exists("tiles/x.ncl"));
  EXPECT_EQ(fs.read_text("outbox/x.ncl"), "data");
  EXPECT_THROW(fs.rename("missing", "y"), std::runtime_error);
}

TEST_F(PosixFsTest, RejectsPathEscape) {
  PosixFs fs(root_);
  EXPECT_THROW(fs.write_text("../escape", "x"), std::invalid_argument);
  EXPECT_THROW(fs.read_file("a/../../b"), std::invalid_argument);
}

TEST_F(PosixFsTest, ListsKeysEndingInTmp) {
  PosixFs fs(root_);
  fs.write_text("a.tmp", "kept");
  fs.write_text("dir/b.ncl.tmp", "kept too");
  EXPECT_TRUE(fs.exists("a.tmp"));
  const auto all = fs.list("");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].path, "a.tmp");
  EXPECT_EQ(all[1].path, "dir/b.ncl.tmp");
  EXPECT_EQ(fs.read_text("dir/b.ncl.tmp"), "kept too");
  // Staging files live under a reserved name no key can spell.
  EXPECT_THROW(fs.write_text(".mfw-staging.a", "x"), std::invalid_argument);
  EXPECT_THROW((void)fs.exists("dir/.mfw-staging.b.ncl.tmp"),
               std::invalid_argument);
}

TEST(Binary, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.str("hello");
  const auto buffer = w.take();
  BinaryReader r(buffer);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Binary, TruncationDetected) {
  BinaryWriter w;
  w.u32(7);
  const auto buffer = w.take();
  BinaryReader r(buffer);
  (void)r.u16();
  EXPECT_THROW(r.u32(), FormatError);
}

TEST(Binary, SkipAndRaw) {
  BinaryWriter w;
  w.u32(1);
  w.u32(2);
  w.u32(3);
  BinaryReader r(w.buffer());
  r.skip(4);
  const auto view = r.raw(4);
  EXPECT_EQ(view.size(), 4u);
  EXPECT_EQ(r.u32(), 3u);
  EXPECT_EQ(r.remaining(), 0u);
}

}  // namespace
}  // namespace mfw::storage
