// File contents as one immutable, reference-counted buffer.
//
// Every hand-off in the workflow moves whole files: a download lands a
// granule, preprocessing reads it and writes a tile file, inference appends
// labels, and a transfer ships the result to another facility. A file's
// bytes are allocated once, by whoever produces them, and after that they
// are only shared: a FileSystem keeps the buffer it is given, a read hands
// it back, a transfer gives the source's buffer to the destination, and a
// decoded hdfl/ncl payload is a slice of it. Nothing writes to a buffer
// once it is wrapped, so a reader's bytes stay valid after their path is
// overwritten, renamed or removed, and threads share them freely.
#pragma once

#include <compare>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace mfw::storage {

class Bytes {
 public:
  Bytes() = default;

  /// Adopts `data`: an rvalue moves in without a copy, an lvalue is copied.
  /// The vector's capacity stays allocated with it, so producers size it
  /// exactly.
  Bytes(std::vector<std::byte> data) : Bytes(adopt(std::move(data))) {}

  /// Adopts an array of trivially copyable values without copying them.
  template <typename T>
  static Bytes adopt(std::vector<T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto owner = std::make_shared<const std::vector<T>>(std::move(values));
    const auto view = std::as_bytes(std::span(*owner));
    return Bytes(std::move(owner), view);
  }

  const std::byte* data() const noexcept { return view_.data(); }
  std::size_t size() const noexcept { return view_.size(); }
  bool empty() const noexcept { return view_.empty(); }
  auto begin() const noexcept { return view_.begin(); }
  auto end() const noexcept { return view_.end(); }
  operator std::span<const std::byte>() const noexcept { return view_; }

  /// The `size` bytes at `offset`, sharing this buffer; throws
  /// std::out_of_range when they run past its end.
  Bytes slice(std::size_t offset, std::size_t size) const {
    if (offset > view_.size() || size > view_.size() - offset)
      throw std::out_of_range("Bytes::slice: " + std::to_string(size) +
                              " bytes at " + std::to_string(offset) + " of " +
                              std::to_string(view_.size()));
    return Bytes(owner_, view_.subspan(offset, size));
  }

  /// Equal contents.
  friend bool operator==(const Bytes& a, const Bytes& b) noexcept {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
  }

 private:
  Bytes(std::shared_ptr<const void> owner, std::span<const std::byte> view)
      : owner_(std::move(owner)), view_(view) {}

  std::shared_ptr<const void> owner_;
  std::span<const std::byte> view_;
};

/// Read-only view of the T values packed in a byte range, in host byte
/// order (little-endian, as the hdfl and ncl layouts store them). A
/// payload's offset inside its file is whatever its header makes it, so a
/// T* over it may be misaligned; values are loaded with memcpy instead,
/// which compiles to plain loads.
template <typename T>
class ElementView {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using reference = T;
    using pointer = void;

    iterator() = default;
    explicit iterator(const std::byte* at) : at_(at) {}

    T operator*() const { return load(at_); }
    T operator[](difference_type n) const { return *(*this + n); }
    iterator& operator++() { at_ += sizeof(T); return *this; }
    iterator operator++(int) { auto old = *this; ++*this; return old; }
    iterator& operator--() { at_ -= sizeof(T); return *this; }
    iterator operator--(int) { auto old = *this; --*this; return old; }
    iterator& operator+=(difference_type n) {
      at_ += n * static_cast<difference_type>(sizeof(T));
      return *this;
    }
    iterator& operator-=(difference_type n) { return *this += -n; }
    friend iterator operator+(iterator it, difference_type n) { return it += n; }
    friend iterator operator+(difference_type n, iterator it) { return it += n; }
    friend iterator operator-(iterator it, difference_type n) { return it -= n; }
    friend difference_type operator-(iterator a, iterator b) {
      return (a.at_ - b.at_) / static_cast<difference_type>(sizeof(T));
    }
    friend bool operator==(iterator a, iterator b) { return a.at_ == b.at_; }
    friend auto operator<=>(iterator a, iterator b) { return a.at_ <=> b.at_; }

   private:
    const std::byte* at_ = nullptr;
  };

  ElementView() = default;
  /// `bytes` holds a whole number of values.
  explicit ElementView(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::size_t size() const { return bytes_.size() / sizeof(T); }
  bool empty() const { return size() == 0; }
  T operator[](std::size_t i) const { return load(bytes_.data() + i * sizeof(T)); }
  iterator begin() const { return iterator(bytes_.data()); }
  iterator end() const { return iterator(bytes_.data() + size() * sizeof(T)); }

  /// Copies values [first, first + out.size()) into `out` in one memcpy;
  /// throws std::out_of_range past the end.
  void copy_to(std::span<T> out, std::size_t first = 0) const {
    if (first > size() || out.size() > size() - first)
      throw std::out_of_range("ElementView::copy_to past the end");
    if (!out.empty())
      std::memcpy(out.data(), bytes_.data() + first * sizeof(T),
                  out.size() * sizeof(T));
  }
  std::vector<T> to_vector() const {
    std::vector<T> out(size());
    copy_to(out);
    return out;
  }

 private:
  static T load(const std::byte* at) {
    T value;
    std::memcpy(&value, at, sizeof(T));
    return value;
  }

  std::span<const std::byte> bytes_;
};

}  // namespace mfw::storage
