// mfwbench: the binary behind mfw's end-to-end benchmark (README.md in this
// directory).
//
// Usage: mfwbench --workload campaign|materialized|serve --seed N
//                 --seconds S --trace 0|1 [--toy] [--trace-out PATH]
//
// Runs one workload, checks its outputs, and prints the metric document as
// the last line of standard output. --trace 0 measures the end-to-end
// metrics; --trace 1 replays the workload's inputs through each layer's
// public entry points and reports the per-layer split.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "report.hpp"
#include "util/log.hpp"

namespace {

constexpr const char* kUsage =
    "usage: mfwbench --workload campaign|materialized|serve --seed N "
    "--seconds S --trace 0|1 [--toy] [--trace-out PATH]\n";

int usage_error(const std::string& message) {
  std::fprintf(stderr, "mfwbench: %s\n%s", message.c_str(), kUsage);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  mfwbench::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      options.toy = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-out")
      return usage_error("unknown argument '" + flag + "'");
    if (i + 1 >= argc) return usage_error(flag + " needs a value");
    const char* value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (!parse_number(value, &number) || number < 0) {
      return usage_error(flag + " needs a non-negative number");
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = number;
      have_seconds = true;
    } else {
      if (number != 0 && number != 1) return usage_error("--trace is 0 or 1");
      options.trace = number == 1;
      have_trace = true;
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage_error("--workload, --seed, --seconds and --trace are required");
  if (std::strcmp(MFWBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "mfwbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 MFWBENCH_BUILD_TYPE);
    return 2;
  }
  mfw::util::Logger::instance().set_level(mfw::util::LogLevel::kError);
  // The single-threaded workloads stay on one CPU; serve pins its write
  // path itself and spreads its readers.
  std::optional<mfwbench::CpuPin> pin;
  if (options.workload != "serve") pin.emplace();

  mfwbench::Report report;
  try {
    if (options.workload == "campaign") {
      report = mfwbench::run_campaign(options);
    } else if (options.workload == "materialized") {
      report = mfwbench::run_materialized(options);
    } else if (options.workload == "serve") {
      report = mfwbench::run_serve(options);
    } else {
      return usage_error("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mfwbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  std::printf("%s\n", report.to_json(options).c_str());
  return 0;
}
