// fairmatch_bench — the one benchmark driver.
//
//   fairmatch_bench --figure=<name|all>[,name...] --scale=<paper|quick|smoke>
//                   --format=<text|csv|json> [--out=PATH] [--csv=PATH]
//                   [--json=PATH] [--repeat=N]
//   fairmatch_bench --list          # figures + matchers, human-readable
//   fairmatch_bench --list-names    # figure names only, one per line
//
// Replaces the former 13 per-figure binaries: every figure of the
// paper's evaluation (plus the SB ablation) is a FigureRegistry entry,
// and CI gates on the JSON report this binary emits.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "fairmatch/engine/registry.h"

namespace fairmatch::bench {
namespace {

constexpr char kUsage[] =
    R"(usage: fairmatch_bench [flags]

  --figure=NAME[,NAME...]  figures to run; "all" (default) runs every one
  --scale=SCALE            paper | quick | smoke (default: FAIRMATCH_SCALE
                           environment variable, falling back to quick)
  --format=FORMAT          primary output format: text (default) | csv | json
  --out=PATH               primary output file (default: stdout)
  --csv=PATH               additionally write a CSV report to PATH
  --json=PATH              additionally write a JSON report to PATH
  --repeat=N               runs per measurement; reports per-field medians
  --list                   print registered figures and matchers, then exit
  --list-names             print figure names only (machine-readable)
  --help                   this text

exit status: 0 ok, 1 output write failure, 2 invalid flags or names,
3 a figure's rows broke one of its declared invariants (the reports are
still written in full)
)";

/// If `arg` is --<flag>=<value>, stores the value and returns true.
bool ParseFlag(const char* arg, const char* flag, std::string* value) {
  const std::string prefix = std::string("--") + flag + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      if (start < list.size()) parts.push_back(list.substr(start));
      break;
    }
    if (comma > start) parts.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

void PrintList() {
  std::cout << "Figures:\n";
  const FigureRegistry& figures = FigureRegistry::Global();
  for (const std::string& name : figures.Names()) {
    std::printf("  %-28s %s\n", name.c_str(),
                figures.Find(name)->description.c_str());
  }
  std::cout << "\nMatchers:\n";
  const MatcherRegistry& matchers = MatcherRegistry::Global();
  for (const std::string& name : matchers.Names()) {
    std::printf("  %-28s %s\n", name.c_str(),
                matchers.Find(name)->description.c_str());
  }
}

int Main(int argc, char** argv) {
  DriverOptions options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      std::cout << kUsage;
      return 0;
    }
    if (std::strcmp(arg, "--list") == 0) {
      PrintList();
      return 0;
    }
    if (std::strcmp(arg, "--list-names") == 0) {
      for (const std::string& name : FigureRegistry::Global().Names()) {
        std::cout << name << "\n";
      }
      return 0;
    }
    if (ParseFlag(arg, "figure", &value)) {
      options.figures = SplitCommas(value);
    } else if (ParseFlag(arg, "scale", &value)) {
      options.scale = value;
    } else if (ParseFlag(arg, "format", &value)) {
      options.format = value;
    } else if (ParseFlag(arg, "out", &value)) {
      options.out_path = value;
    } else if (ParseFlag(arg, "csv", &value)) {
      options.csv_path = value;
    } else if (ParseFlag(arg, "json", &value)) {
      options.json_path = value;
    } else if (ParseFlag(arg, "repeat", &value)) {
      char* end = nullptr;
      options.repeat = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0') {
        std::cerr << "--repeat expects an integer, got '" << value << "'\n";
        return 2;
      }
    } else {
      std::cerr << "unknown flag '" << arg << "'\n\n" << kUsage;
      return 2;
    }
  }
  return RunDriver(options);
}

}  // namespace
}  // namespace fairmatch::bench

int main(int argc, char** argv) {
  return fairmatch::bench::Main(argc, argv);
}
