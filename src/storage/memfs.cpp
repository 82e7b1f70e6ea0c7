#include "storage/memfs.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace mfw::storage {

void FileSystem::write_text(std::string_view path, std::string_view text) {
  const auto bytes = std::as_bytes(std::span(text.data(), text.size()));
  write_file(path, std::vector<std::byte>(bytes.begin(), bytes.end()));
}

std::string FileSystem::read_text(std::string_view path) const {
  const auto data = read_file(path);
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

std::uint64_t FileSystem::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& info : list("")) total += info.size;
  return total;
}

MemFs::MemFs(std::string name, const sim::Clock* clock)
    : name_(std::move(name)), clock_(clock) {}

double MemFs::stamp() {
  if (clock_) return clock_->now();
  return ++counter_;
}

void MemFs::write_file(std::string_view path, Bytes data) {
  std::lock_guard lock(mu_);
  auto& entry = files_[std::string(path)];
  entry.data = std::move(data);
  entry.mtime = stamp();
  journal_.push_back(FileInfo{std::string(path), entry.data.size(), entry.mtime});
}

Bytes MemFs::read_file(std::string_view path) const {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end())
    throw std::runtime_error(name_ + ": no such file: " + std::string(path));
  return it->second.data;
}

bool MemFs::exists(std::string_view path) const {
  std::lock_guard lock(mu_);
  return files_.find(path) != files_.end();
}

std::uint64_t MemFs::file_size(std::string_view path) const {
  std::lock_guard lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end())
    throw std::runtime_error(name_ + ": no such file: " + std::string(path));
  return it->second.data.size();
}

std::vector<FileInfo> MemFs::list(std::string_view pattern) const {
  std::lock_guard lock(mu_);
  std::vector<FileInfo> out;
  for (const auto& [path, entry] : files_) {
    if (pattern.empty() || util::glob_match(pattern, path)) {
      out.push_back(FileInfo{path, entry.data.size(), entry.mtime});
    }
  }
  return out;
}

bool MemFs::remove(std::string_view path) {
  std::lock_guard lock(mu_);
  return files_.erase(std::string(path)) > 0;
}

void MemFs::rename(std::string_view from, std::string_view to) {
  std::lock_guard lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end())
    throw std::runtime_error(name_ + ": no such file: " + std::string(from));
  auto node = files_.extract(it);
  node.key() = std::string(to);
  const double mtime = node.mapped().mtime;
  const std::uint64_t size = node.mapped().data.size();
  files_.insert_or_assign(std::string(to), std::move(node.mapped()));
  journal_.push_back(FileInfo{std::string(to), size, mtime});
}

FileSystem::JournalCursor MemFs::journal_since(JournalCursor cursor,
                                               std::vector<FileInfo>& out) const {
  std::lock_guard lock(mu_);
  for (std::size_t i = cursor; i < journal_.size(); ++i)
    out.push_back(journal_[i]);
  return journal_.size();
}

}  // namespace mfw::storage
