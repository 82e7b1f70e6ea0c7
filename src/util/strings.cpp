#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace mfw::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool glob_match(std::string_view pattern, std::string_view text) {
  // Iterative two-pointer algorithm with backtracking for '*'.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, match = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::string path_join(std::string_view a, std::string_view b) {
  if (a.empty()) return std::string(b);
  if (b.empty()) return std::string(a);
  std::string out(a);
  while (!out.empty() && out.back() == '/') out.pop_back();
  std::size_t bstart = 0;
  while (bstart < b.size() && b[bstart] == '/') ++bstart;
  out.push_back('/');
  out.append(b.substr(bstart));
  return out;
}

std::string_view path_basename(std::string_view path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

bool parse_count(const char* text, std::size_t min, std::size_t& out) {
  if (*text < '0' || *text > '9') return false;  // no sign, no blanks
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno != 0 || value < min) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

bool parse_real(const char* text, double min, double& out) {
  // Digits, signs, a point and an exponent only: strtod alone would also
  // take leading blanks, hex, inf and nan.
  if (*text == '+' || text[std::strspn(text, "0123456789+-.eE")] != '\0')
    return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !(value >= min))
    return false;
  out = value;
  return true;
}

std::string fixed6(double value) {
  // to_chars with a precision writes what printf writes, inf and nan
  // included; -DBL_MAX, the longest, takes 317 characters.
  char buf[320];
  char* end = std::to_chars(buf, buf + sizeof buf, value,
                            std::chars_format::fixed, 6)
                  .ptr;
  return std::string(buf, end);
}

bool parse_double_prefix(const std::string& text, double& out) {
  double value = 0.0;
  if (std::from_chars(text.data(), text.data() + text.size(), value).ec !=
      std::errc())
    return false;
  out = value;
  return true;
}

void append_padded(std::string& out, int value, int width) {
  char buf[16];
  const char* digits = buf;
  const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  // As printf pads: the sign first, zeros up to `width` characters in all.
  if (*digits == '-') out += *digits++;
  const auto length = static_cast<int>(end - buf);
  if (length < width) out.append(static_cast<std::size_t>(width - length), '0');
  out.append(digits, end);
}

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

}  // namespace mfw::util
