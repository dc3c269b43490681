// ceresz_perfgate: the CI perf-regression gate. Compares a bench run's
// history records (bench/history JSONL) against a committed baseline
// with per-metric noise bands.
//
//   ceresz_perfgate --baseline bench/history/baseline.jsonl
//                   --current run.jsonl [--hard-factor 3.0]
//
// Deviations within a metric's noise band pass; within band x
// hard-factor they warn (exit 0, so shared runners soft-fail); beyond
// that the gate fails. To refresh the baseline after an intentional
// change, overwrite baseline.jsonl with the new run's records (see
// docs/observability.md).
// Exit codes: 0 pass/warn, 1 regression, 2 usage or unreadable input.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "obs/analysis/perfgate.h"

namespace {

using namespace ceresz;
using namespace ceresz::obs::analysis;

struct Args {
  std::string baseline_path;
  std::string current_path;
  f64 hard_factor = 3.0;
};

void usage(std::ostream& os) {
  os << "usage: ceresz_perfgate --baseline baseline.jsonl "
        "--current run.jsonl [--hard-factor N]\n";
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--baseline") {
      const char* v = value();
      if (!v) return false;
      args.baseline_path = v;
    } else if (a == "--current") {
      const char* v = value();
      if (!v) return false;
      args.current_path = v;
    } else if (a == "--hard-factor") {
      const char* v = value();
      if (!v) return false;
      args.hard_factor = std::atof(v);
      if (args.hard_factor < 1.0) return false;
    } else if (a == "--help" || a == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      return false;
    }
  }
  return !args.baseline_path.empty() && !args.current_path.empty();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CERESZ_CHECK(in.good(), "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  CERESZ_CHECK(!in.bad(), "error reading " + path);
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage(std::cerr);
    return 2;
  }
  try {
    const auto baseline =
        parse_history_jsonl(read_file(args.baseline_path));
    const auto current = parse_history_jsonl(read_file(args.current_path));
    const GateReport report =
        evaluate_gate(baseline, current, args.hard_factor);
    std::cout << render_gate(report);
    return report.failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "ceresz_perfgate: " << e.what() << "\n";
    return 2;
  }
}
