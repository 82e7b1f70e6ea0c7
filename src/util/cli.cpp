#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/strings.hpp"

namespace mfw::util::cli {

namespace {

std::string invalid_value(std::string_view flag, std::string_view value) {
  return "invalid value '" + std::string(value) + "' for flag '" +
         std::string(flag) + "'";
}

}  // namespace

std::string Command::usage(std::string_view prefix) const {
  std::string out = std::string(prefix) + program_;
  const std::size_t indent = out.size() + 1;
  std::size_t line_start = 0;
  for (const Arg& arg : args_) {
    std::string word = arg.is_flag() ? arg.name : "<" + arg.name + ">";
    if (arg.is_flag() && arg.kind != Arg::Kind::kSwitch)
      word += " <" + arg.value + ">";
    if (!arg.required) word = "[" + word + "]";
    if (out.size() - line_start + 1 + word.size() > 80) {
      line_start = out.size() + 1;
      out += '\n' + std::string(indent, ' ');
    } else {
      out += ' ';
    }
    out += word;
  }
  return out;
}

Args Command::parse(const std::vector<std::string>& tokens) const {
  Args out(*this);
  std::size_t next_positional = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    std::size_t index = 0;
    if (token.starts_with("--")) {
      while (index < args_.size() && args_[index].name != token) ++index;
      if (index == args_.size())
        throw UsageError("unknown flag '" + token + "'");
      if (out.values_[index].given)
        throw UsageError("repeated flag '" + token + "'");
    } else {
      while (next_positional < args_.size() &&
             args_[next_positional].is_flag())
        ++next_positional;
      if (next_positional == args_.size())
        throw UsageError("unexpected argument '" + token + "'");
      index = next_positional++;
    }
    const Arg& arg = args_[index];
    Args::Value& value = out.values_[index];
    value.given = true;
    if (arg.kind == Arg::Kind::kSwitch) continue;
    if (arg.is_flag()) {
      if (i + 1 == tokens.size() || tokens[i + 1].starts_with("--"))
        throw UsageError("flag '" + token + "' requires a value");
      value.text = tokens[++i];
    } else {
      value.text = token;
    }
    const char* text = value.text.c_str();
    const bool accepted =
        arg.kind == Arg::Kind::kCount
            ? parse_count(text, arg.min, value.count) && value.count <= arg.max
        : arg.kind == Arg::Kind::kReal
            ? parse_real(text, arg.real_min, value.real)
            : true;
    if (!accepted) throw UsageError(invalid_value(arg.name, value.text));
  }
  for (std::size_t index = 0; index < args_.size(); ++index)
    if (args_[index].required && !out.values_[index].given)
      throw UsageError("missing <" + args_[index].name + ">");
  return out;
}

Args Command::parse(int argc, char** argv, int first) const {
  try {
    return parse({argv + std::min(first, argc), argv + argc});
  } catch (const UsageError& e) {
    exit_usage(e.what());
  }
}

void Command::exit_usage(const std::string& message) const {
  std::fprintf(stderr, "error: %s\n%s\n", message.c_str(), usage().c_str());
  std::exit(2);
}

bool Args::has(std::string_view name) const {
  for (std::size_t index = 0; index < values_.size(); ++index)
    if (command_.args_[index].name == name) return values_[index].given;
  return false;
}

const Args::Value* Args::find(std::string_view name, Arg::Kind kind) const {
  for (std::size_t index = 0; index < values_.size(); ++index) {
    const Arg& arg = command_.args_[index];
    if (arg.name == name && arg.kind == kind)
      return values_[index].given ? &values_[index] : nullptr;
  }
  throw std::logic_error(command_.program_ + " declares no such arg: " +
                         std::string(name));
}

std::string Args::text(std::string_view name, std::string fallback) const {
  const Value* value = find(name, Arg::Kind::kText);
  return value ? value->text : std::move(fallback);
}

std::size_t Args::count(std::string_view name, std::size_t fallback) const {
  const Value* value = find(name, Arg::Kind::kCount);
  return value ? value->count : fallback;
}

double Args::real(std::string_view name, double fallback) const {
  const Value* value = find(name, Arg::Kind::kReal);
  return value ? value->real : fallback;
}

void Args::fail(const std::string& message) const {
  command_.exit_usage(message);
}

void Args::invalid(std::string_view flag, std::string_view value) const {
  fail(invalid_value(flag, value));
}

}  // namespace mfw::util::cli
