// The command-line parser of mfwctl and the benches. A program declares each
// flag and positional once; that declaration validates argv, reads each
// token once and generates the usage line:
//
//   const auto args = cli::Command("fig6_timeline",
//                                  {cli::text("--trace-out", "path"),
//                                   cli::count("--max-files", "n", 1)})
//                         .parse(argc, argv);
//   const std::size_t max_files = args.count("--max-files", 40);
//
// A token starting with "--" is a flag, never a value; any other is a
// value or the next positional. An unknown flag, a value flag followed by
// nothing or by a flag, a repeated flag, a number its flag does not accept,
// an extra positional and a missing required one are each a UsageError
// that names the token.
#pragma once

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mfw::util::cli {

constexpr std::size_t kNoMax = std::numeric_limits<std::size_t>::max();

/// One declared flag ("--out") or positional ("config.yaml").
struct Arg {
  enum class Kind { kSwitch, kText, kCount, kReal };
  std::string name;
  std::string value = "";  // the usage line's placeholder: "--out <path>"
  Kind kind = Kind::kSwitch;
  bool required = false;  // positionals only
  std::size_t min = 0, max = kNoMax;  // kCount, read by util::parse_count
  double real_min = 0.0;              // kReal, read by util::parse_real

  bool is_flag() const { return name.starts_with("--"); }
};

/// `--name` alone.
inline Arg flag(std::string name) { return {.name = std::move(name)}; }
/// `--name <value>`, any text.
inline Arg text(std::string name, std::string value) {
  return {.name = std::move(name), .value = std::move(value),
          .kind = Arg::Kind::kText};
}
/// `--name <value>`, a decimal count in [min, max].
inline Arg count(std::string name, std::string value, std::size_t min,
                 std::size_t max = kNoMax) {
  return {.name = std::move(name), .value = std::move(value),
          .kind = Arg::Kind::kCount, .min = min, .max = max};
}
/// `--name <value>`, a finite real of at least `min`.
inline Arg real(std::string name, std::string value, double min) {
  return {.name = std::move(name), .value = std::move(value),
          .kind = Arg::Kind::kReal, .real_min = min};
}
/// `<name>`, which the command line must give.
inline Arg positional(std::string name) {
  return {.name = std::move(name), .kind = Arg::Kind::kText, .required = true};
}
/// `[<name>]`, which it may give.
inline Arg optional(std::string name) {
  return {.name = std::move(name), .kind = Arg::Kind::kText};
}

/// A command line its declaration does not accept; what() names the token.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Args;

/// The declared command line of a program, or of one mfwctl command.
class Command {
 public:
  /// `program` starts the usage line: "fig6_timeline", "mfwctl run".
  Command(std::string program, std::vector<Arg> args = {})
      : program_(std::move(program)), args_(std::move(args)) {}

  const std::string& program() const { return program_; }

  /// `prefix`, the program and every declared arg in declaration order,
  /// wrapped at 80 columns under the first arg.
  std::string usage(std::string_view prefix = "usage: ") const;

  /// Reads `tokens`; throws UsageError at the first one it cannot accept.
  Args parse(const std::vector<std::string>& tokens) const;
  /// parse() for main(): reads argv[first..argc), and on a UsageError prints
  /// "error: <what>" and the usage line to stderr and exits 2.
  Args parse(int argc, char** argv, int first = 1) const;

 private:
  friend class Args;
  [[noreturn]] void exit_usage(const std::string& message) const;

  std::string program_;
  std::vector<Arg> args_;
};

/// What a command line gave. Reading a name its command does not declare,
/// or declares as another kind, throws std::logic_error.
class Args {
 public:
  /// Whether `name` was given; false for a name the command does not
  /// declare.
  bool has(std::string_view name) const;
  /// The text flag or positional `name`, or `fallback` when absent.
  std::string text(std::string_view name, std::string fallback = {}) const;
  std::size_t count(std::string_view name, std::size_t fallback) const;
  double real(std::string_view name, double fallback) const;

  /// Exits as parse() does on a UsageError, for what the declaration
  /// cannot judge, such as an unknown encode path.
  [[noreturn]] void fail(const std::string& message) const;
  /// fail() in the parser's words for a value `flag` does not accept.
  [[noreturn]] void invalid(std::string_view flag,
                            std::string_view value) const;

 private:
  friend class Command;
  struct Value {
    bool given = false;
    std::string text;
    std::size_t count = 0;
    double real = 0.0;
  };
  explicit Args(Command command)
      : command_(std::move(command)), values_(command_.args_.size()) {}
  /// The value of `name` as `kind`; nullptr when not given.
  const Value* find(std::string_view name, Arg::Kind kind) const;

  Command command_;
  std::vector<Value> values_;  // one per declared arg
};

}  // namespace mfw::util::cli
