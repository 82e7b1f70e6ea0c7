#include "storage/serialize.hpp"

#include "util/crc32.hpp"

namespace mfw::storage {

void BinaryWriter::u16(std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v),
                             static_cast<std::uint8_t>(v >> 8)};
  raw(b, 2);
}

void BinaryWriter::u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 4);
}

void BinaryWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 8);
}

void BinaryWriter::str(std::string_view s) {
  if (s.size() > 0xffff) throw FormatError("string too long to serialize");
  u16(static_cast<std::uint16_t>(s.size()));
  raw(s.data(), s.size());
}

void BinaryWriter::raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::byte*>(data);
  buffer_.insert(buffer_.end(), p, p + size);
}

void BinaryReader::need(std::size_t size) const {
  // Against remaining(): offset_ + size wraps for a size near 2^64.
  if (size > remaining())
    throw FormatError("truncated input: need " + std::to_string(size) +
                      " bytes at offset " + std::to_string(offset_));
}

std::uint8_t BinaryReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[offset_++]);
}

std::uint16_t BinaryReader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v = static_cast<std::uint16_t>(
        v | (static_cast<std::uint16_t>(static_cast<std::uint8_t>(
                 data_[offset_ + static_cast<std::size_t>(i)]))
             << (8 * i)));
  offset_ += 2;
  return v;
}

std::uint32_t BinaryReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
             data_[offset_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  offset_ += 4;
  return v;
}

std::uint64_t BinaryReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(
             data_[offset_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  offset_ += 8;
  return v;
}

std::string BinaryReader::str() {
  const std::uint16_t len = u16();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + offset_), len);
  offset_ += len;
  return s;
}

std::span<const std::byte> BinaryReader::raw(std::size_t size) {
  need(size);
  auto view = data_.subspan(offset_, size);
  offset_ += size;
  return view;
}

void BinaryReader::skip(std::size_t size) {
  need(size);
  offset_ += size;
}

void write_attrs(BinaryWriter& w,
                 const std::map<std::string, std::string>& attrs) {
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

std::size_t attrs_size(const std::map<std::string, std::string>& attrs) {
  std::size_t size = 2;
  for (const auto& [key, value] : attrs) size += str_size(key) + str_size(value);
  return size;
}

void write_payload(BinaryWriter& w, std::span<const std::byte> payload) {
  w.u64(payload.size());
  w.bytes(payload);
  w.u32(util::crc32(payload));
}

Bytes read_payload(BinaryReader& r, const Bytes& file, std::string_view kind,
                   std::string_view name) {
  const std::uint64_t size = r.u64();
  const std::size_t at = r.offset();
  r.skip(static_cast<std::size_t>(size));
  Bytes payload = file.slice(at, static_cast<std::size_t>(size));
  if (r.u32() != util::crc32(payload))
    throw FormatError("CRC mismatch in " + std::string(kind) + " '" +
                      std::string(name) + "'");
  return payload;
}

}  // namespace mfw::storage
