// ncl ("NetCDF-lite"): the container format for preprocessed ocean-cloud
// tiles and the labelled AICCA output.
//
// Mirrors the classic NetCDF data model the paper's pipeline emits: named
// *dimensions*, *variables* defined over those dimensions, and attributes at
// both file and variable scope. The inference stage appends a `label`
// variable to existing tile files ("Append cloud labels to NetCDF file" in
// the paper's Flow), which this model supports naturally: load, add_var,
// save.
//
// Layout: "NCL1" u16_dim_count {name,u64 len} u16_global_attr_count {attr}
//         u16_var_count per var: name, dtype u8, dim_count u8,
//         {dim name-ref str}, attr_count u16 {attr}, size u64, data, crc u32
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "storage/dtype.hpp"
#include "storage/serialize.hpp"

namespace mfw::storage {

struct NclVar {
  std::string name;
  DType dtype = DType::kF32;
  std::vector<std::string> dims;  // names of dimensions, outermost first
  std::map<std::string, std::string> attrs;
  std::vector<std::byte> data;

  std::span<const float> as_f32() const;
  std::span<const std::int32_t> as_i32() const;
  std::span<const double> as_f64() const;
};

class NclFile {
 public:
  /// Defines a dimension; re-defining with a different length throws.
  void add_dim(const std::string& name, std::uint64_t length);
  bool has_dim(std::string_view name) const;
  std::uint64_t dim(std::string_view name) const;
  const std::vector<std::pair<std::string, std::uint64_t>>& dims() const {
    return dims_;
  }

  /// Adds a variable; every dim must exist and the payload size must equal
  /// product(dims) * dtype_size. Replaces an existing variable of that name.
  void add_var(NclVar var);
  /// Typed convenience for float data.
  void add_f32(const std::string& name, std::vector<std::string> dims,
               std::span<const float> values,
               std::map<std::string, std::string> attrs = {});
  void add_i32(const std::string& name, std::vector<std::string> dims,
               std::span<const std::int32_t> values,
               std::map<std::string, std::string> attrs = {});

  bool has_var(std::string_view name) const;
  const NclVar& var(std::string_view name) const;
  std::vector<std::string> var_names() const;
  std::size_t var_count() const { return vars_.size(); }

  std::map<std::string, std::string>& attrs() { return attrs_; }
  const std::map<std::string, std::string>& attrs() const { return attrs_; }

  /// Number of elements a variable over `dims` must carry; throws
  /// FormatError for an unknown dim or a product that overflows size_t.
  std::size_t element_count(const std::vector<std::string>& dims) const;

  std::vector<std::byte> serialize() const;
  static NclFile deserialize(std::span<const std::byte> bytes);

 private:
  std::vector<std::pair<std::string, std::uint64_t>> dims_;  // insertion order
  std::map<std::string, std::uint64_t, std::less<>> dim_index_;
  std::map<std::string, std::string> attrs_;
  std::vector<NclVar> vars_;
  std::map<std::string, std::size_t, std::less<>> var_index_;
};

}  // namespace mfw::storage
