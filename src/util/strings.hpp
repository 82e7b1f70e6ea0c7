// Small string / path helpers shared across modules.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace mfw::util {

/// Splits on a single delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Glob-style match supporting '*' (any run) and '?' (single char).
/// Used by filesystem listing and the flow monitor's file patterns.
bool glob_match(std::string_view pattern, std::string_view text);

/// Joins path segments with '/' collapsing duplicate separators.
std::string path_join(std::string_view a, std::string_view b);

/// Final path component ("a/b/c.nc" -> "c.nc").
std::string_view path_basename(std::string_view path);

/// Parses a decimal count of at least `min` into `out`; false, leaving `out`
/// alone, on anything else: a sign, blanks, trailing characters, overflow.
/// Every numeric command-line flag of the benches and mfwctl goes through
/// this or parse_real.
bool parse_count(const char* text, std::size_t min, std::size_t& out);

/// Parses a finite decimal real of at least `min` into `out`; false, leaving
/// `out` alone, on anything else: blanks, a leading '+', trailing
/// characters, hex, inf, nan, overflow.
bool parse_real(const char* text, double min, double& out);

/// std::from_chars's reading of the longest numeric prefix of `text` into
/// `out`; false, leaving `out` alone, when there is none or it is out of
/// range. What fixed6 and std::to_string write reads back to the double
/// strtod gives; unlike strtod it takes no leading blanks, '+' or hex.
bool parse_double_prefix(const std::string& text, double& out);

/// printf-style formatting into std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// The text of std::to_string(double) (printf "%f": fixed, six decimals),
/// through std::to_chars at a fraction of the printf cost.
std::string fixed6(double value);

/// Appends printf's "%0<width>d" of `value`: the fixed-width fields of
/// granule names and keys, without the printf parser.
void append_padded(std::string& out, int value, int width);

}  // namespace mfw::util
