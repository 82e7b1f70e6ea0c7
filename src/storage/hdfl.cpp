#include "storage/hdfl.hpp"

#include <cstring>

namespace mfw::storage {

namespace {

constexpr std::uint32_t kVersion = 1;
constexpr char kMagic[4] = {'H', 'D', 'F', 'L'};

DType read_dtype(BinaryReader& r) {
  const std::uint8_t raw = r.u8();
  if (raw > static_cast<std::uint8_t>(DType::kI16))
    throw FormatError("unknown dtype tag " + std::to_string(raw));
  return static_cast<DType>(raw);
}

// Parses the header+shape+attrs of the dataset at the reader's position.
// Leaves the reader at the start of the payload size field.
Dataset read_dataset_header(BinaryReader& r) {
  Dataset ds;
  ds.name = r.str();
  ds.dtype = read_dtype(r);
  const std::uint8_t ndims = r.u8();
  ds.shape.reserve(ndims);
  for (std::uint8_t d = 0; d < ndims; ++d) ds.shape.push_back(r.u64());
  ds.attrs = read_attrs(r);
  return ds;
}

// Reads the payload after a dataset header into `ds.data` as a slice of
// `bytes`, and checks its CRC and its size against the shape.
void read_dataset_payload(BinaryReader& r, const Bytes& bytes, Dataset& ds) {
  ds.data = read_payload(r, bytes, "dataset", ds.name);
  ds.validate();
}

void check_magic(BinaryReader& r) {
  const auto magic = r.raw(4);
  if (std::memcmp(magic.data(), kMagic, 4) != 0)
    throw FormatError("not an hdfl file (bad magic)");
  const std::uint32_t version = r.u32();
  if (version != kVersion)
    throw FormatError("unsupported hdfl version " + std::to_string(version));
}

}  // namespace

std::size_t Dataset::element_count() const {
  if (shape.empty()) return 0;
  std::size_t n = 1;
  for (const auto d : shape) {
    if (__builtin_mul_overflow(n, d, &n))
      throw FormatError("dataset '" + name + "' shape overflows size_t");
  }
  return n;
}

void Dataset::validate() const {
  if (name.empty()) throw FormatError("dataset has empty name");
  std::size_t expected = 0;
  if (__builtin_mul_overflow(element_count(), dtype_size(dtype), &expected) ||
      data.size() != expected)
    throw FormatError("dataset '" + name + "' size mismatch: " +
                      std::to_string(data.size()) + " bytes vs shape");
}

namespace {
template <typename T>
ElementView<T> typed_view(const Dataset& ds, DType expected) {
  if (ds.dtype != expected)
    throw FormatError("dataset '" + ds.name + "' is " +
                      std::string(dtype_name(ds.dtype)) + ", expected " +
                      std::string(dtype_name(expected)));
  return ElementView<T>(ds.data);
}

template <typename T>
Dataset make_dataset(std::string name, std::vector<std::uint64_t> shape,
                     std::vector<T> values, DType dtype) {
  Dataset ds;
  ds.name = std::move(name);
  ds.dtype = dtype;
  ds.shape = std::move(shape);
  ds.data = Bytes::adopt(std::move(values));
  ds.validate();
  return ds;
}
}  // namespace

ElementView<float> Dataset::as_f32() const {
  return typed_view<float>(*this, DType::kF32);
}
ElementView<std::uint8_t> Dataset::as_u8() const {
  return typed_view<std::uint8_t>(*this, DType::kU8);
}

Dataset Dataset::f32(std::string name, std::vector<std::uint64_t> shape,
                     std::vector<float> values) {
  return make_dataset(std::move(name), std::move(shape), std::move(values),
                      DType::kF32);
}

Dataset Dataset::u8(std::string name, std::vector<std::uint64_t> shape,
                    std::vector<std::uint8_t> values) {
  return make_dataset(std::move(name), std::move(shape), std::move(values),
                      DType::kU8);
}

void HdflFile::add(Dataset dataset) {
  dataset.validate();
  const auto it = index_.find(dataset.name);
  if (it != index_.end()) {
    datasets_[it->second] = std::move(dataset);
  } else {
    index_.emplace(dataset.name, datasets_.size());
    datasets_.push_back(std::move(dataset));
  }
}

bool HdflFile::has(std::string_view name) const {
  return index_.find(name) != index_.end();
}

const Dataset& HdflFile::dataset(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end())
    throw FormatError("no dataset named '" + std::string(name) + "'");
  return datasets_[it->second];
}

std::vector<std::string> HdflFile::names() const {
  std::vector<std::string> out;
  out.reserve(datasets_.size());
  for (const auto& ds : datasets_) out.push_back(ds.name);
  return out;
}

std::vector<std::byte> HdflFile::serialize() const {
  std::size_t size = 4 + 4 + attrs_size(attrs_) + 4;
  for (const auto& ds : datasets_)
    size += str_size(ds.name) + 2 + 8 * ds.shape.size() + attrs_size(ds.attrs) +
            payload_record_size(ds.data.size());
  BinaryWriter w(size);
  w.raw(kMagic, 4);
  w.u32(kVersion);
  write_attrs(w, attrs_);
  w.u32(static_cast<std::uint32_t>(datasets_.size()));
  for (const auto& ds : datasets_) {
    ds.validate();
    w.str(ds.name);
    w.u8(static_cast<std::uint8_t>(ds.dtype));
    if (ds.shape.size() > 0xff) throw FormatError("too many dimensions");
    w.u8(static_cast<std::uint8_t>(ds.shape.size()));
    for (auto d : ds.shape) w.u64(d);
    write_attrs(w, ds.attrs);
    write_payload(w, ds.data);
  }
  return w.take();
}

HdflFile HdflFile::deserialize(Bytes bytes) {
  BinaryReader r(bytes);
  check_magic(r);
  HdflFile file;
  file.attrs_ = read_attrs(r);
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Dataset ds = read_dataset_header(r);
    if (file.has(ds.name))
      throw FormatError("dataset '" + ds.name + "' appears twice");
    read_dataset_payload(r, bytes, ds);
    file.add(std::move(ds));
  }
  return file;
}

std::optional<Dataset> HdflFile::read_dataset(Bytes bytes,
                                              std::string_view name) {
  BinaryReader r(bytes);
  check_magic(r);
  read_attrs(r);
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Dataset ds = read_dataset_header(r);
    if (ds.name == name) {
      read_dataset_payload(r, bytes, ds);
      return ds;
    }
    r.skip(static_cast<std::size_t>(r.u64()));  // payload
    r.skip(4);                                   // crc
  }
  return std::nullopt;
}

}  // namespace mfw::storage
