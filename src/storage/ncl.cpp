#include "storage/ncl.hpp"

#include <cstring>

namespace mfw::storage {

namespace {
constexpr char kMagic[4] = {'N', 'C', 'L', '1'};

template <typename T>
ElementView<T> typed_view(const NclVar& var, DType expected) {
  if (var.dtype != expected)
    throw FormatError("variable '" + var.name + "' is " +
                      std::string(dtype_name(var.dtype)) + ", expected " +
                      std::string(dtype_name(expected)));
  return ElementView<T>(var.data);
}

template <typename T>
NclVar make_var(const std::string& name, DType dtype,
                std::vector<std::string> dims, std::vector<T> values,
                std::map<std::string, std::string> attrs) {
  NclVar var;
  var.name = name;
  var.dtype = dtype;
  var.dims = std::move(dims);
  var.attrs = std::move(attrs);
  var.data = Bytes::adopt(std::move(values));
  return var;
}
}  // namespace

ElementView<float> NclVar::as_f32() const {
  return typed_view<float>(*this, DType::kF32);
}
ElementView<std::int32_t> NclVar::as_i32() const {
  return typed_view<std::int32_t>(*this, DType::kI32);
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
                      std::vector<float> values,
                      std::map<std::string, std::string> attrs) {
  add_var(make_var(name, DType::kF32, std::move(dims), std::move(values),
                   std::move(attrs)));
}

void NclFile::add_i32(const std::string& name, std::vector<std::string> dims,
                      std::vector<std::int32_t> values,
                      std::map<std::string, std::string> attrs) {
  add_var(make_var(name, DType::kI32, std::move(dims), std::move(values),
                   std::move(attrs)));
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
  std::size_t size = 4 + 2 + attrs_size(attrs_) + 2;
  for (const auto& [name, length] : dims_) size += str_size(name) + 8;
  for (const auto& var : vars_) {
    size += str_size(var.name) + 2 + attrs_size(var.attrs) +
            payload_record_size(var.data.size());
    for (const auto& d : var.dims) size += str_size(d);
  }
  BinaryWriter w(size);
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
    write_payload(w, var.data);
  }
  return w.take();
}

NclFile NclFile::deserialize(Bytes bytes) {
  BinaryReader r(bytes);
  const auto magic = r.raw(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0)
    throw FormatError("not an ncl file (bad magic)");
  NclFile file;
  const std::uint16_t ndims = r.u16();
  for (std::uint16_t i = 0; i < ndims; ++i) {
    auto name = r.str();
    if (file.has_dim(name))
      throw FormatError("dimension '" + name + "' appears twice");
    file.add_dim(name, r.u64());
  }
  file.attrs_ = read_attrs(r);
  const std::uint16_t nvars = r.u16();
  for (std::uint16_t i = 0; i < nvars; ++i) {
    NclVar var;
    var.name = r.str();
    if (file.has_var(var.name))
      throw FormatError("variable '" + var.name + "' appears twice");
    const std::uint8_t tag = r.u8();
    if (tag > static_cast<std::uint8_t>(DType::kI16))
      throw FormatError("unknown dtype tag " + std::to_string(tag));
    var.dtype = static_cast<DType>(tag);
    const std::uint8_t vdims = r.u8();
    var.dims.reserve(vdims);
    for (std::uint8_t d = 0; d < vdims; ++d) var.dims.push_back(r.str());
    var.attrs = read_attrs(r);
    var.data = read_payload(r, bytes, "variable", var.name);
    file.add_var(std::move(var));
  }
  return file;
}

}  // namespace mfw::storage
