// perfbench: the repository benchmark.
//
//   perfbench --workload serve-mixed|serve-burst|solve-large --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// Prints the run fingerprint, one "name: value unit" line per metric and,
// as the last line, one JSON object {correct, attempted, failed, metrics}.
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer ledger, writes it to DIR/ledger-<workload>.txt and writes the
// benchmark's spans to DIR/spans-<workload>.json. Exits 1 when any output
// failed its check.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload serve-mixed|serve-burst|solve-large "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n";
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.out_dir.empty() &&
         args.seconds > 0;
}

std::string format(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse(argc, argv, args)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  Outcome (*run)(const Args&, Ledger*) = nullptr;
  if (args.workload == "serve-mixed") run = run_serve_mixed;
  if (args.workload == "serve-burst") run = run_serve_burst;
  if (args.workload == "solve-large") run = run_solve_large;
  if (run == nullptr) return usage();

  std::filesystem::create_directories(args.out_dir);
  for (const std::string& line : fingerprint()) std::cout << line << "\n";
  std::cout << "workload: " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace
            << std::endl;

  Ledger ledger;
  Outcome out;
  try {
    out = run(args, args.trace ? &ledger : nullptr);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  const std::vector<MetricSpec>& sheet = args.trace ? kPerLayer : kEndToEnd;
  const std::map<std::string, double>& values =
      args.trace ? out.per_layer : out.end_to_end;
  std::ostringstream table;
  tspopt::obs::JsonWriter metrics;
  metrics.begin_object();
  for (const MetricSpec& m : sheet) {
    auto it = values.find(m.name);
    double v = it != values.end() ? it->second : 0.0;
    if (!std::isfinite(v)) {
      out.fail(std::string("metric ") + m.name + " is not finite");
      v = 0.0;
    }
    if (!args.trace && it == values.end()) {
      out.fail(std::string("metric ") + m.name + " was not measured");
    }
    table << m.name << ": " << format(v) << " " << m.unit << "\n";
    metrics.key(m.name).begin_object();
    metrics.key("value").value(v).key("unit").value(m.unit);
    metrics.end_object();
  }
  metrics.end_object();

  for (const std::string& note : out.notes) std::cout << note << "\n";
  for (const std::string& f : out.failures) std::cout << "FAILED: " << f << "\n";
  std::cout << "failed_frac: "
            << format(out.attempted > 0
                          ? static_cast<double>(out.failed) / out.attempted
                          : 1.0)
            << " (" << out.failed << " of " << out.attempted << ")\n";
  std::cout << table.str();

  if (args.trace) {
    std::ofstream(args.out_dir + "/ledger-" + args.workload + ".txt") << table.str();
    ledger.write_chrome_trace(args.out_dir + "/spans-" + args.workload + ".json");
    std::cout << "ledger: " << ledger.size() << " spans written under "
              << args.out_dir << "\n";
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  tspopt::obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(out.attempted);
  w.key("failed").value(out.failed);
  w.key("metrics").raw_value(metrics.str());
  w.end_object();
  std::cout << w.str() << std::endl;
  return correct ? 0 : 1;
}
