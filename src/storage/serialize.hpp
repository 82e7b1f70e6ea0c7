// Little-endian binary (de)serialization helpers shared by the hdfl and ncl
// container formats and the model checkpoint format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "storage/bytes.hpp"

namespace mfw::storage {

/// Raised on malformed container files (truncation, bad magic, CRC mismatch).
class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitives to a byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;
  /// Reserves `capacity` bytes up front: a writer sized to its output never
  /// reallocates, and take() hands over a buffer with no spare capacity.
  explicit BinaryWriter(std::size_t capacity) { buffer_.reserve(capacity); }

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Length-prefixed (u16) UTF-8 string; throws on length > 65535.
  void str(std::string_view s);
  void raw(const void* data, std::size_t size);
  void bytes(std::span<const std::byte> data) { raw(data.data(), data.size()); }

  std::size_t size() const { return buffer_.size(); }
  const std::vector<std::byte>& buffer() const { return buffer_; }
  std::vector<std::byte> take() { return std::move(buffer_); }

 private:
  std::vector<std::byte> buffer_;
};

/// Bounds-checked reader over a byte span (non-owning).
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str();
  /// Returns a view of the next `size` bytes and advances.
  std::span<const std::byte> raw(std::size_t size);
  /// Advances without copying.
  void skip(std::size_t size);

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return data_.size() - offset_; }
  bool done() const { return offset_ == data_.size(); }

 private:
  void need(std::size_t size) const;

  std::span<const std::byte> data_;
  std::size_t offset_ = 0;
};

/// Bytes that BinaryWriter::str writes for `s`.
inline std::size_t str_size(std::string_view s) { return 2 + s.size(); }

// String attributes, as the hdfl and ncl layouts store them: a u16 count,
// then key and value strings in key order.
void write_attrs(BinaryWriter& w,
                 const std::map<std::string, std::string>& attrs);
std::map<std::string, std::string> read_attrs(BinaryReader& r);
/// Bytes that write_attrs writes for `attrs`.
std::size_t attrs_size(const std::map<std::string, std::string>& attrs);

// A payload record, as the hdfl and ncl layouts store each dataset's or
// variable's data: a u64 size, the bytes, then their u32 CRC.
void write_payload(BinaryWriter& w, std::span<const std::byte> payload);
/// Bytes that write_payload writes for a payload of `size` bytes.
inline std::size_t payload_record_size(std::size_t size) { return 8 + size + 4; }
/// Reads the payload record at `r`'s position as a slice of `file`, the
/// buffer `r` reads, and checks its CRC. Throws FormatError, naming
/// `kind` `name`, on a mismatch, and when the payload runs past the end.
Bytes read_payload(BinaryReader& r, const Bytes& file, std::string_view kind,
                   std::string_view name);

}  // namespace mfw::storage
