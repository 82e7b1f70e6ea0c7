// Little-endian binary (de)serialization helpers shared by the hdfl and ncl
// container formats and the model checkpoint format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mfw::storage {

/// Raised on malformed container files (truncation, bad magic, CRC mismatch).
class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitives to a growing byte buffer.
class BinaryWriter {
 public:
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

}  // namespace mfw::storage
