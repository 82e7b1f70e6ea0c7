// Unit tests for the hdfl and ncl container formats: round-trips, partial
// reads, CRC integrity, and append-variable behaviour.
#include <gtest/gtest.h>

#include "storage/hdfl.hpp"
#include "storage/ncl.hpp"
#include "util/crc32.hpp"

namespace mfw::storage {
namespace {

std::vector<float> ramp(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(i) * 0.5f;
  return v;
}

TEST(Hdfl, RoundTripDatasetsAndAttrs) {
  HdflFile file;
  file.attrs()["product"] = "MOD02";
  file.attrs()["slot"] = "42";
  file.add(Dataset::f32("Radiance", {2, 3, 4}, ramp(24)));
  std::vector<std::uint8_t> mask(12, 1);
  file.add(Dataset::u8("Mask", {3, 4}, mask));

  const auto bytes = file.serialize();
  const auto loaded = HdflFile::deserialize(bytes);
  EXPECT_EQ(loaded.attrs().at("product"), "MOD02");
  EXPECT_EQ(loaded.dataset_count(), 2u);
  const auto rad = loaded.dataset("Radiance").as_f32();
  ASSERT_EQ(rad.size(), 24u);
  EXPECT_FLOAT_EQ(rad[7], 3.5f);
  EXPECT_EQ(loaded.dataset("Mask").as_u8()[5], 1);
  EXPECT_EQ(loaded.names(), (std::vector<std::string>{"Radiance", "Mask"}));
}

TEST(Hdfl, PartialReadExtractsOneDataset) {
  HdflFile file;
  file.add(Dataset::f32("A", {4}, ramp(4)));
  file.add(Dataset::f32("B", {8}, ramp(8)));
  file.add(Dataset::f32("C", {2}, ramp(2)));
  const auto bytes = file.serialize();

  const auto b = HdflFile::read_dataset(bytes, "B");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->element_count(), 8u);
  EXPECT_FLOAT_EQ(b->as_f32()[3], 1.5f);
  EXPECT_FALSE(HdflFile::read_dataset(bytes, "missing").has_value());
}

// A payload long enough for the CRC's folding kernel (>= 64 bytes, folded
// 16 at a time) plus an odd tail the table loop finishes.
constexpr std::size_t kBulkBytes = 4096;
constexpr std::size_t kTailBytes = 13;

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 37);
  return v;
}

// Offsets (into the serialized file) of one payload byte inside the folded
// bulk and one inside the tail, for a payload of kBulkBytes + kTailBytes
// followed by its u32 CRC at the end of the file.
std::vector<std::size_t> corruption_offsets(std::size_t file_size) {
  const std::size_t payload = file_size - 4 - (kBulkBytes + kTailBytes);
  return {payload + 1000, payload + kBulkBytes + kTailBytes / 2};
}

TEST(Hdfl, CorruptionDetected) {
  HdflFile file;
  file.add(Dataset::u8("A", {kBulkBytes + kTailBytes},
                       pattern(kBulkBytes + kTailBytes)));
  const auto clean = file.serialize();
  ASSERT_NO_THROW(HdflFile::deserialize(clean));
  for (const std::size_t at : corruption_offsets(clean.size())) {
    auto bytes = clean;
    bytes[at] ^= std::byte{0x01};
    EXPECT_THROW(HdflFile::deserialize(bytes), FormatError) << "byte " << at;
    EXPECT_THROW(HdflFile::read_dataset(bytes, "A"), FormatError)
        << "byte " << at;
  }
}

TEST(Hdfl, BadMagicRejected) {
  std::vector<std::byte> junk(64, std::byte{0x5a});
  EXPECT_THROW(HdflFile::deserialize(junk), FormatError);
  EXPECT_THROW(HdflFile::read_dataset(junk, "x"), FormatError);
}

// One-dataset hdfl file with an arbitrary shape header and payload, written
// field by field so the shape need not match the payload.
std::vector<std::byte> raw_hdfl(DType dtype, std::vector<std::uint64_t> shape,
                                std::size_t payload_bytes) {
  const std::vector<std::byte> payload(payload_bytes);
  BinaryWriter w;
  w.raw("HDFL", 4);
  w.u32(1);  // version
  w.u16(0);  // global attrs
  w.u32(1);  // datasets
  w.str("wrap");
  w.u8(static_cast<std::uint8_t>(dtype));
  w.u8(static_cast<std::uint8_t>(shape.size()));
  for (const auto d : shape) w.u64(d);
  w.u16(0);  // dataset attrs
  w.u64(payload.size());
  w.bytes(payload);
  w.u32(util::crc32(payload));
  return w.take();
}

TEST(Hdfl, ShapeMismatchRejected) {
  Dataset ds;
  ds.name = "bad";
  ds.dtype = DType::kF32;
  ds.shape = {4};
  ds.data = std::vector<std::byte>(8);  // needs 16 bytes
  HdflFile file;
  EXPECT_THROW(file.add(std::move(ds)), FormatError);

  // 2^32 x 2^32 elements wrap a 64-bit count to 0, which an empty payload
  // would match; 2^62 f64 elements wrap the byte count the same way.
  Dataset wrap;
  wrap.name = "wrap";
  wrap.dtype = DType::kU8;
  wrap.shape = {1ull << 32, 1ull << 32};
  EXPECT_THROW(wrap.element_count(), FormatError);
  EXPECT_THROW(file.add(wrap), FormatError);
  wrap.dtype = DType::kF64;
  wrap.shape = {1ull << 62};
  EXPECT_EQ(wrap.element_count(), 1ull << 62);
  EXPECT_THROW(file.add(wrap), FormatError);

  const auto ok = raw_hdfl(DType::kU8, {0, 7}, 0);
  EXPECT_EQ(HdflFile::deserialize(ok).dataset("wrap").element_count(), 0u);
  for (const auto& bytes : {raw_hdfl(DType::kU8, {1ull << 32, 1ull << 32}, 0),
                            raw_hdfl(DType::kF64, {1ull << 62}, 0)}) {
    EXPECT_THROW(HdflFile::deserialize(bytes), FormatError);
    EXPECT_THROW(HdflFile::read_dataset(bytes, "wrap"), FormatError);
  }
}

// An hdfl file whose one dataset, `name`, declares a payload that runs
// exactly to 2^64 from its own offset: offset + size wraps to 0.
std::vector<std::byte> hdfl_with_wrapping_size(const char* name) {
  BinaryWriter w;
  w.raw("HDFL", 4);
  w.u32(1);  // version
  w.u16(0);  // global attrs
  w.u32(1);  // datasets
  w.str(name);
  w.u8(static_cast<std::uint8_t>(DType::kU8));
  w.u8(1);
  w.u64(16);
  w.u16(0);  // dataset attrs
  w.u64(0 - static_cast<std::uint64_t>(w.size() + 8));
  w.bytes(std::vector<std::byte>(20));
  return w.take();
}

TEST(Hdfl, PayloadSizeWrappingOffsetRejected) {
  const auto bytes = hdfl_with_wrapping_size("X");
  EXPECT_THROW(HdflFile::deserialize(bytes), FormatError);
  EXPECT_THROW(HdflFile::read_dataset(bytes, "X"), FormatError);
  EXPECT_THROW(HdflFile::read_dataset(bytes, "Y"), FormatError);
}

// Two datasets with one name: serializers never write this, and a decoder
// that kept either one would hide the other.
TEST(Hdfl, RepeatedDatasetNameRejected) {
  BinaryWriter w;
  w.raw("HDFL", 4);
  w.u32(1);  // version
  w.u16(0);  // global attrs
  w.u32(2);  // datasets
  for (const std::uint8_t value : {1, 2}) {
    w.str("X");
    w.u8(static_cast<std::uint8_t>(DType::kU8));
    w.u8(1);
    w.u64(1);
    w.u16(0);  // dataset attrs
    w.u64(1);
    w.u8(value);
    w.u32(util::crc32(&value, 1));
  }
  try {
    HdflFile::deserialize(w.take());
    ADD_FAILURE() << "decoded a file naming dataset X twice";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("'X'"), std::string::npos) << e.what();
  }
}

// A payload's offset is whatever its header makes it; typed reads of an
// odd offset load each value whole (the sanitizer tree checks alignment).
TEST(Hdfl, PayloadAtOddOffsetReadsByValue) {
  HdflFile file;
  file.add(Dataset::f32("odd", {3}, {1.25f, -2.5f, 1e30f}));
  const auto loaded = HdflFile::deserialize(file.serialize());
  const auto& ds = loaded.dataset("odd");
  ASSERT_NE(reinterpret_cast<std::uintptr_t>(ds.data.data()) % alignof(float), 0u);
  const auto values = ds.as_f32();
  EXPECT_EQ(values[1], -2.5f);
  EXPECT_EQ(std::vector<float>(values.begin(), values.end()),
            (std::vector<float>{1.25f, -2.5f, 1e30f}));
  std::vector<float> tail(2);
  values.copy_to(tail, 1);
  EXPECT_EQ(tail, (std::vector<float>{-2.5f, 1e30f}));
  EXPECT_THROW(values.copy_to(tail, 2), std::out_of_range);
}

TEST(Hdfl, SerializeSizesTheBufferExactly) {
  HdflFile file;
  file.attrs()["product"] = "MOD02";
  file.add(Dataset::f32("Radiance", {2, 3, 4}, ramp(24)));
  file.add(Dataset::u8("Mask", {3}, {1, 0, 1}));
  const auto bytes = file.serialize();
  EXPECT_EQ(bytes.capacity(), bytes.size());
}

TEST(Hdfl, TypedViewChecksDtype) {
  HdflFile file;
  file.add(Dataset::f32("A", {2}, ramp(2)));
  EXPECT_THROW(file.dataset("A").as_u8(), FormatError);
  EXPECT_THROW(file.dataset("missing"), FormatError);
}

TEST(Hdfl, ReplaceDatasetKeepsSingleEntry) {
  HdflFile file;
  file.add(Dataset::f32("A", {2}, ramp(2)));
  file.add(Dataset::f32("A", {4}, ramp(4)));
  EXPECT_EQ(file.dataset_count(), 1u);
  EXPECT_EQ(file.dataset("A").element_count(), 4u);
}

TEST(Ncl, RoundTripDimsVarsAttrs) {
  NclFile file;
  file.add_dim("tile", 3);
  file.add_dim("ch", 2);
  file.attrs()["granule"] = "X";
  file.add_f32("data", {"tile", "ch"}, ramp(6), {{"units", "W/m2"}});
  std::vector<std::int32_t> labels{1, 2, 3};
  file.add_i32("label", {"tile"}, labels);

  const auto loaded = NclFile::deserialize(file.serialize());
  EXPECT_EQ(loaded.dim("tile"), 3u);
  EXPECT_EQ(loaded.attrs().at("granule"), "X");
  EXPECT_EQ(loaded.var("data").attrs.at("units"), "W/m2");
  EXPECT_FLOAT_EQ(loaded.var("data").as_f32()[5], 2.5f);
  EXPECT_EQ(loaded.var("label").as_i32()[2], 3);
  EXPECT_EQ(loaded.var_names(),
            (std::vector<std::string>{"data", "label"}));
}

TEST(Ncl, SizeValidationAgainstDims) {
  NclFile file;
  file.add_dim("tile", 3);
  EXPECT_THROW(file.add_f32("bad", {"tile"}, ramp(5)), FormatError);
  EXPECT_THROW(file.add_f32("bad", {"nodim"}, ramp(3)), FormatError);

  // 2^32 x 2^32 elements wrap a 64-bit count to 0, which an empty payload
  // would match; 2^62 f32 elements wrap the byte count the same way.
  file.add_dim("big", 1ull << 32);
  file.add_dim("huge", 1ull << 62);
  EXPECT_THROW(file.element_count({"big", "big"}), FormatError);
  EXPECT_THROW(file.add_f32("wrap", {"big", "big"}, {}), FormatError);
  EXPECT_EQ(file.element_count({"huge"}), 1ull << 62);
  EXPECT_THROW(file.add_f32("wrap", {"huge"}, {}), FormatError);
  EXPECT_FALSE(file.has_var("wrap"));

  // The same shapes written straight to bytes fail to load.
  for (const auto& dims : {std::vector<std::string>{"big", "big"},
                           std::vector<std::string>{"huge"}}) {
    BinaryWriter w;
    w.raw("NCL1", 4);
    w.u16(2);  // dimensions
    w.str("big");
    w.u64(1ull << 32);
    w.str("huge");
    w.u64(1ull << 62);
    w.u16(0);  // global attrs
    w.u16(1);  // variables
    w.str("wrap");
    w.u8(static_cast<std::uint8_t>(DType::kF32));
    w.u8(static_cast<std::uint8_t>(dims.size()));
    for (const auto& d : dims) w.str(d);
    w.u16(0);  // variable attrs
    w.u64(0);  // payload bytes
    w.u32(0);  // CRC of no bytes
    EXPECT_THROW(NclFile::deserialize(w.take()), FormatError);
  }
}

TEST(Ncl, PayloadSizeWrappingOffsetRejected) {
  BinaryWriter w;
  w.raw("NCL1", 4);
  w.u16(1);  // dimensions
  w.str("n");
  w.u64(16);
  w.u16(0);  // global attrs
  w.u16(1);  // variables
  w.str("v");
  w.u8(static_cast<std::uint8_t>(DType::kU8));
  w.u8(1);
  w.str("n");
  w.u16(0);  // variable attrs
  w.u64(0 - static_cast<std::uint64_t>(w.size() + 8));
  w.bytes(std::vector<std::byte>(20));
  EXPECT_THROW(NclFile::deserialize(w.take()), FormatError);
}

// Builds an ncl file with dimensions `dims` (each of length 1) and one u8
// variable over the first dimension per name in `vars`.
std::vector<std::byte> raw_ncl(const std::vector<std::string>& dims,
                               const std::vector<std::string>& vars) {
  BinaryWriter w;
  w.raw("NCL1", 4);
  w.u16(static_cast<std::uint16_t>(dims.size()));
  for (const auto& d : dims) {
    w.str(d);
    w.u64(1);
  }
  w.u16(0);  // global attrs
  w.u16(static_cast<std::uint16_t>(vars.size()));
  std::uint8_t value = 0;
  for (const auto& v : vars) {
    ++value;
    w.str(v);
    w.u8(static_cast<std::uint8_t>(DType::kU8));
    w.u8(1);
    w.str(dims.front());
    w.u16(0);  // variable attrs
    w.u64(1);
    w.u8(value);
    w.u32(util::crc32(&value, 1));
  }
  return w.take();
}

TEST(Ncl, RepeatedNamesRejected) {
  ASSERT_NO_THROW(NclFile::deserialize(raw_ncl({"n", "m"}, {"v", "w"})));
  for (const auto& [dims, vars, name] :
       {std::tuple{std::vector<std::string>{"n"},
                   std::vector<std::string>{"v", "v"}, "'v'"},
        std::tuple{std::vector<std::string>{"n", "n"},
                   std::vector<std::string>{"v"}, "'n'"}}) {
    try {
      NclFile::deserialize(raw_ncl(dims, vars));
      ADD_FAILURE() << "decoded a repeated " << name;
    } catch (const FormatError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(Ncl, SerializeSizesTheBufferExactly) {
  NclFile file;
  file.add_dim("tile", 3);
  file.attrs()["granule"] = "X";
  file.add_f32("data", {"tile"}, ramp(3), {{"units", "W/m2"}});
  const auto bytes = file.serialize();
  EXPECT_EQ(bytes.capacity(), bytes.size());
}

TEST(Ncl, DimRedefinitionRejected) {
  NclFile file;
  file.add_dim("tile", 3);
  EXPECT_NO_THROW(file.add_dim("tile", 3));  // same length is idempotent
  EXPECT_THROW(file.add_dim("tile", 4), FormatError);
}

TEST(Ncl, AppendVariableAfterReload) {
  NclFile file;
  file.add_dim("tile", 2);
  file.add_f32("data", {"tile"}, ramp(2));
  auto loaded = NclFile::deserialize(file.serialize());
  // The inference stage's append-labels pattern.
  std::vector<std::int32_t> labels{7, 9};
  loaded.add_i32("label", {"tile"}, labels);
  const auto final_file = NclFile::deserialize(loaded.serialize());
  EXPECT_EQ(final_file.var("label").as_i32()[1], 9);
  EXPECT_EQ(final_file.var_count(), 2u);
}

TEST(Ncl, CorruptionDetected) {
  NclFile file;
  file.add_dim("n", kBulkBytes + kTailBytes);
  const auto values = pattern(kBulkBytes + kTailBytes);
  NclVar var;
  var.name = "v";
  var.dtype = DType::kU8;
  var.dims = {"n"};
  var.data = Bytes::adopt(values);
  file.add_var(std::move(var));
  const auto clean = file.serialize();
  ASSERT_NO_THROW(NclFile::deserialize(clean));
  for (const std::size_t at : corruption_offsets(clean.size())) {
    auto bytes = clean;
    bytes[at] ^= std::byte{0x01};
    EXPECT_THROW(NclFile::deserialize(bytes), FormatError) << "byte " << at;
  }
}

TEST(Ncl, EmptyFileRoundTrips) {
  NclFile file;
  file.attrs()["kind"] = "tile-manifest";
  file.attrs()["tile_count"] = "0";
  const auto loaded = NclFile::deserialize(file.serialize());
  EXPECT_EQ(loaded.var_count(), 0u);
  EXPECT_EQ(loaded.attrs().at("tile_count"), "0");
}

}  // namespace
}  // namespace mfw::storage
