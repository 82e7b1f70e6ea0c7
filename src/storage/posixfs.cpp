#include "storage/posixfs.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace mfw::storage {

namespace fs = std::filesystem;

namespace {
// write_file stages a file beside its target under this prefix and then
// renames it into place. resolve() rejects the prefix in any key segment,
// so no key names a staging file, and list() skips them.
constexpr std::string_view kStagingPrefix = ".mfw-staging.";
}  // namespace

PosixFs::PosixFs(fs::path root, std::string name)
    : root_(std::move(root)), name_(std::move(name)) {
  fs::create_directories(root_);
  root_ = fs::weakly_canonical(root_);
}

fs::path PosixFs::resolve(std::string_view path) const {
  for (const auto& segment : util::split(path, '/')) {
    if (segment == "..")
      throw std::invalid_argument(name_ + ": '..' not allowed in paths");
    if (util::starts_with(segment, kStagingPrefix))
      throw std::invalid_argument(name_ + ": '" + segment +
                                  "' is reserved for staging");
  }
  return root_ / fs::path(path);
}

void PosixFs::write_file(std::string_view path, Bytes data) {
  const fs::path full = resolve(path);
  fs::create_directories(full.parent_path());
  // Write-then-rename for atomicity (readers never see partial files — the
  // HDF-partial-read hazard the paper works around).
  const fs::path tmp =
      full.parent_path() / (std::string(kStagingPrefix) + full.filename().string());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error(name_ + ": cannot write " + full.string());
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out)
      throw std::runtime_error(name_ + ": short write to " + full.string());
  }
  fs::rename(tmp, full);
  std::lock_guard lock(mu_);
  stamps_[std::string(path)] = ++counter_;
}

Bytes PosixFs::read_file(std::string_view path) const {
  const fs::path full = resolve(path);
  std::ifstream in(full, std::ios::binary | std::ios::ate);
  if (!in)
    throw std::runtime_error(name_ + ": no such file: " + std::string(path));
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> data(size);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(size));
  if (!in)
    throw std::runtime_error(name_ + ": short read from " + std::string(path));
  return data;
}

bool PosixFs::exists(std::string_view path) const {
  return fs::is_regular_file(resolve(path));
}

std::uint64_t PosixFs::file_size(std::string_view path) const {
  const fs::path full = resolve(path);
  if (!fs::is_regular_file(full))
    throw std::runtime_error(name_ + ": no such file: " + std::string(path));
  return static_cast<std::uint64_t>(fs::file_size(full));
}

std::vector<FileInfo> PosixFs::list(std::string_view pattern) const {
  std::vector<FileInfo> out;
  std::lock_guard lock(mu_);
  for (const auto& entry : fs::recursive_directory_iterator(root_)) {
    if (!entry.is_regular_file()) continue;
    const std::string key = entry.path().lexically_relative(root_).generic_string();
    if (util::starts_with(entry.path().filename().string(), kStagingPrefix))
      continue;
    if (!pattern.empty() && !util::glob_match(pattern, key)) continue;
    FileInfo info;
    info.path = key;
    info.size = static_cast<std::uint64_t>(entry.file_size());
    const auto it = stamps_.find(key);
    info.mtime = it != stamps_.end() ? it->second : 0.0;
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const FileInfo& a, const FileInfo& b) { return a.path < b.path; });
  return out;
}

bool PosixFs::remove(std::string_view path) {
  std::lock_guard lock(mu_);
  stamps_.erase(std::string(path));
  return fs::remove(resolve(path));
}

void PosixFs::rename(std::string_view from, std::string_view to) {
  const fs::path src = resolve(from);
  if (!fs::is_regular_file(src))
    throw std::runtime_error(name_ + ": no such file: " + std::string(from));
  const fs::path dst = resolve(to);
  fs::create_directories(dst.parent_path());
  fs::rename(src, dst);
  std::lock_guard lock(mu_);
  const auto it = stamps_.find(std::string(from));
  const double stamp = it != stamps_.end() ? it->second : ++counter_;
  if (it != stamps_.end()) stamps_.erase(it);
  stamps_[std::string(to)] = stamp;
}

}  // namespace mfw::storage
