// hdfl ("HDF-lite"): the container format for synthetic MODIS granules.
//
// NASA distributes MOD02/MOD03/MOD06 as HDF4 files: a set of named,
// multidimensional, typed scientific datasets with attributes. hdfl keeps
// exactly that structure — named datasets with dtype, shape, string
// attributes, and per-dataset CRC32 — in a simple little-endian layout:
//
//   "HDFL" u32_version u16_global_attr_count {attr...}
//   u32_dataset_count
//   per dataset: name, dtype u8, ndims u8, dims u64[], attr_count u16,
//                {attr...}, data_size u64, data bytes, crc u32
//
// The reader validates bounds and CRCs; read_dataset() can extract one
// dataset without materializing the others (the "partial read" the paper's
// preprocessing step depends on — it reads only 6 of MOD02's 36 bands).
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "storage/dtype.hpp"
#include "storage/serialize.hpp"

namespace mfw::storage {

struct Dataset {
  std::string name;
  DType dtype = DType::kF32;
  std::vector<std::uint64_t> shape;
  std::map<std::string, std::string> attrs;
  std::vector<std::byte> data;

  /// Product of the shape (0 for an empty shape); throws FormatError when
  /// it overflows size_t.
  std::size_t element_count() const;
  /// Checks data size == element_count * dtype_size; throws FormatError.
  void validate() const;

  std::span<const float> as_f32() const;
  std::span<const double> as_f64() const;
  std::span<const std::int32_t> as_i32() const;
  std::span<const std::int16_t> as_i16() const;
  std::span<const std::uint8_t> as_u8() const;

  static Dataset f32(std::string name, std::vector<std::uint64_t> shape,
                     std::span<const float> values);
  static Dataset u8(std::string name, std::vector<std::uint64_t> shape,
                    std::span<const std::uint8_t> values);
  static Dataset i16(std::string name, std::vector<std::uint64_t> shape,
                     std::span<const std::int16_t> values);
};

class HdflFile {
 public:
  /// Adds or replaces a dataset (validated).
  void add(Dataset dataset);

  bool has(std::string_view name) const;
  const Dataset& dataset(std::string_view name) const;
  std::vector<std::string> names() const;
  std::size_t dataset_count() const { return datasets_.size(); }

  std::map<std::string, std::string>& attrs() { return attrs_; }
  const std::map<std::string, std::string>& attrs() const { return attrs_; }

  std::vector<std::byte> serialize() const;
  static HdflFile deserialize(std::span<const std::byte> bytes);

  /// Extracts a single dataset without parsing the payloads of the others.
  /// Returns nullopt when absent. Still CRC-checks the extracted dataset.
  static std::optional<Dataset> read_dataset(std::span<const std::byte> bytes,
                                             std::string_view name);

 private:
  std::map<std::string, std::string> attrs_;
  std::vector<Dataset> datasets_;           // insertion order
  std::map<std::string, std::size_t, std::less<>> index_;
};

}  // namespace mfw::storage
