#include "storage/ncl.hpp"

#include <cstring>

#include "util/crc32.hpp"

namespace mfw::storage {

namespace {
constexpr char kMagic[4] = {'N', 'C', 'L', '1'};

void write_attrs(BinaryWriter& w, const std::map<std::string, std::string>& attrs) {
  if (attrs.size() > 0xffff) throw FormatError("too many attributes");
  w.u16(static_cast<std::uint16_t>(attrs.size()));
  for (const auto& [key, value] : attrs) {
    w.str(key);
    w.str(value);
  }
}

std::map<std::string, std::string> read_attrs(BinaryReader& r) {
  std::map<std::string, std::string> attrs;
  const std::uint16_t n = r.u16();
  for (std::uint16_t i = 0; i < n; ++i) {
    auto key = r.str();
    attrs.emplace(std::move(key), r.str());
  }
  return attrs;
}

template <typename T>
std::span<const T> typed_view(const NclVar& var, DType expected) {
  if (var.dtype != expected)
    throw FormatError("variable '" + var.name + "' is " +
                      std::string(dtype_name(var.dtype)) + ", expected " +
                      std::string(dtype_name(expected)));
  return {reinterpret_cast<const T*>(var.data.data()), var.data.size() / sizeof(T)};
}
}  // namespace

std::span<const float> NclVar::as_f32() const {
  return typed_view<float>(*this, DType::kF32);
}
std::span<const std::int32_t> NclVar::as_i32() const {
  return typed_view<std::int32_t>(*this, DType::kI32);
}
std::span<const double> NclVar::as_f64() const {
  return typed_view<double>(*this, DType::kF64);
}

void NclFile::add_dim(const std::string& name, std::uint64_t length) {
  const auto it = dim_index_.find(name);
  if (it != dim_index_.end()) {
    if (it->second != length)
      throw FormatError("dimension '" + name + "' redefined with length " +
                        std::to_string(length) + " (was " +
                        std::to_string(it->second) + ")");
    return;
  }
  dim_index_.emplace(name, length);
  dims_.emplace_back(name, length);
}

bool NclFile::has_dim(std::string_view name) const {
  return dim_index_.find(name) != dim_index_.end();
}

std::uint64_t NclFile::dim(std::string_view name) const {
  const auto it = dim_index_.find(name);
  if (it == dim_index_.end())
    throw FormatError("no dimension named '" + std::string(name) + "'");
  return it->second;
}

std::size_t NclFile::element_count(const std::vector<std::string>& dims) const {
  if (dims.empty()) return 0;
  std::size_t n = 1;
  for (const auto& d : dims) {
    if (__builtin_mul_overflow(n, dim(d), &n))
      throw FormatError("dimensions overflow size_t at '" + d + "'");
  }
  return n;
}

void NclFile::add_var(NclVar var) {
  if (var.name.empty()) throw FormatError("variable has empty name");
  std::size_t expected = 0;
  if (__builtin_mul_overflow(element_count(var.dims), dtype_size(var.dtype),
                             &expected))
    throw FormatError("variable '" + var.name + "' overflows size_t");
  if (var.data.size() != expected)
    throw FormatError("variable '" + var.name + "' has " +
                      std::to_string(var.data.size()) + " bytes, expected " +
                      std::to_string(expected));
  const auto it = var_index_.find(var.name);
  if (it != var_index_.end()) {
    vars_[it->second] = std::move(var);
  } else {
    var_index_.emplace(var.name, vars_.size());
    vars_.push_back(std::move(var));
  }
}

void NclFile::add_f32(const std::string& name, std::vector<std::string> dims,
                      std::span<const float> values,
                      std::map<std::string, std::string> attrs) {
  NclVar var;
  var.name = name;
  var.dtype = DType::kF32;
  var.dims = std::move(dims);
  var.attrs = std::move(attrs);
  const auto bytes = std::as_bytes(values);
  var.data.assign(bytes.begin(), bytes.end());
  add_var(std::move(var));
}

void NclFile::add_i32(const std::string& name, std::vector<std::string> dims,
                      std::span<const std::int32_t> values,
                      std::map<std::string, std::string> attrs) {
  NclVar var;
  var.name = name;
  var.dtype = DType::kI32;
  var.dims = std::move(dims);
  var.attrs = std::move(attrs);
  const auto bytes = std::as_bytes(values);
  var.data.assign(bytes.begin(), bytes.end());
  add_var(std::move(var));
}

bool NclFile::has_var(std::string_view name) const {
  return var_index_.find(name) != var_index_.end();
}

const NclVar& NclFile::var(std::string_view name) const {
  const auto it = var_index_.find(name);
  if (it == var_index_.end())
    throw FormatError("no variable named '" + std::string(name) + "'");
  return vars_[it->second];
}

std::vector<std::string> NclFile::var_names() const {
  std::vector<std::string> out;
  out.reserve(vars_.size());
  for (const auto& var : vars_) out.push_back(var.name);
  return out;
}

std::vector<std::byte> NclFile::serialize() const {
  BinaryWriter w;
  w.raw(kMagic, 4);
  if (dims_.size() > 0xffff) throw FormatError("too many dimensions");
  w.u16(static_cast<std::uint16_t>(dims_.size()));
  for (const auto& [name, length] : dims_) {
    w.str(name);
    w.u64(length);
  }
  write_attrs(w, attrs_);
  if (vars_.size() > 0xffff) throw FormatError("too many variables");
  w.u16(static_cast<std::uint16_t>(vars_.size()));
  for (const auto& var : vars_) {
    w.str(var.name);
    w.u8(static_cast<std::uint8_t>(var.dtype));
    if (var.dims.size() > 0xff) throw FormatError("too many variable dims");
    w.u8(static_cast<std::uint8_t>(var.dims.size()));
    for (const auto& d : var.dims) w.str(d);
    write_attrs(w, var.attrs);
    w.u64(var.data.size());
    w.bytes(var.data);
    w.u32(util::crc32(var.data));
  }
  return w.take();
}

NclFile NclFile::deserialize(std::span<const std::byte> bytes) {
  BinaryReader r(bytes);
  const auto magic = r.raw(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0)
    throw FormatError("not an ncl file (bad magic)");
  NclFile file;
  const std::uint16_t ndims = r.u16();
  for (std::uint16_t i = 0; i < ndims; ++i) {
    auto name = r.str();
    file.add_dim(name, r.u64());
  }
  file.attrs_ = read_attrs(r);
  const std::uint16_t nvars = r.u16();
  for (std::uint16_t i = 0; i < nvars; ++i) {
    NclVar var;
    var.name = r.str();
    const std::uint8_t tag = r.u8();
    if (tag > static_cast<std::uint8_t>(DType::kI16))
      throw FormatError("unknown dtype tag " + std::to_string(tag));
    var.dtype = static_cast<DType>(tag);
    const std::uint8_t vdims = r.u8();
    var.dims.reserve(vdims);
    for (std::uint8_t d = 0; d < vdims; ++d) var.dims.push_back(r.str());
    var.attrs = read_attrs(r);
    const std::uint64_t size = r.u64();
    const auto payload = r.raw(static_cast<std::size_t>(size));
    var.data.assign(payload.begin(), payload.end());
    const std::uint32_t crc = r.u32();
    if (crc != util::crc32(var.data))
      throw FormatError("CRC mismatch in variable '" + var.name + "'");
    file.add_var(std::move(var));
  }
  return file;
}

}  // namespace mfw::storage
