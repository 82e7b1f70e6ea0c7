// Unit tests for filesystem abstractions: MemFs semantics, Lustre decorator
// accounting, and the binary reader/writer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "storage/lustre_sim.hpp"
#include "storage/memfs.hpp"
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
