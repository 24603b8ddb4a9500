#include "ledger.hpp"

#include <fstream>

#include "common/timer.hpp"
#include "obs/report.hpp"
#include "solver/constructive.hpp"
#include "solver/engine_factory.hpp"
#include "solver/obs_adapters.hpp"
#include "support.hpp"
#include "tsp/catalog.hpp"

namespace perfbench {

double Ledger::Span::finish() {
  if (ms_ >= 0.0) return ms_;
  Clock::time_point end = Clock::now();
  ms_ = std::chrono::duration<double, std::milli>(end - start_).count();
  if (ledger_ != nullptr) ledger_->record({std::move(name_), trace_, start_, end});
  return ms_;
}

void Ledger::record(Record r) {
  std::lock_guard lock(mu_);
  records_.push_back(std::move(r));
}

std::size_t Ledger::size() const {
  std::lock_guard lock(mu_);
  return records_.size();
}

void Ledger::write_chrome_trace(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const char* sep = "\n";
  for (const Record& r : records_) {
    auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - epoch_).count();
    };
    out << sep << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":" << r.trace << ",\"ts\":" << us(r.start)
        << ",\"dur\":" << us(r.end) - us(r.start) << "}";
    sep = ",\n";
  }
  out << "\n]}\n";
}

tspopt::SearchResult TimedEngine::search(const tspopt::Instance& instance,
                                         const tspopt::Tour& tour) {
  tspopt::WallTimer timer;
  tspopt::SearchResult result = inner_.search(instance, tour);
  double seconds = timer.seconds();
  search_seconds_ += seconds;
  pass_us_.push_back(seconds * 1e6);
  return result;
}

tspopt::Instance instance_of(const tspopt::serve::JobSpec& spec) {
  using namespace tspopt;
  return spec.inline_payload()
             ? Instance(spec.instance_name, Metric::kEuc2D, spec.points)
             : make_catalog_instance(*find_catalog_entry(spec.catalog));
}

Replay replay_job(const tspopt::serve::JobSpec& spec, const std::string& engine,
                  Ledger* ledger, std::uint64_t trace) {
  using namespace tspopt;
  const std::string& engine_name = engine.empty() ? spec.engine : engine;
  Replay out;

  Ledger::Span instance_span(ledger, "tsp.instance", trace);
  Instance instance = instance_of(spec);
  out.instance_ms = instance_span.finish();
  out.n = instance.n();

  EngineFactory factory(&instance,
                        spec.k != 0 ? spec.k : EngineFactory::kDefaultNeighbors);
  if (engine_name.find("pruned") != std::string::npos) {
    Ledger::Span span(ledger, "tsp.neighbor_lists", trace);
    factory.neighbor_lists();
    out.neighbor_lists_ms = span.finish();
  }
  std::unique_ptr<TwoOptEngine> bare = factory.create(engine_name);
  TimedEngine timed(*bare);

  Ledger::Span mf_span(ledger, "solver.multiple_fragment", trace);
  Tour start = multiple_fragment(instance);
  out.constructive_ms = mf_span.finish();

  IlsOptions options;
  options.seed = spec.seed;
  options.max_iterations = spec.max_iterations;
  options.time_limit_seconds = spec.time_limit_seconds;
  Ledger::Span ils_span(ledger, "solver.iterated_local_search", trace);
  out.ils = iterated_local_search(timed, instance, start, options);
  out.ils_ms = ils_span.finish();
  out.pass_us = timed.pass_us();
  out.search_seconds = timed.search_seconds();

  // The report a serve worker attaches to every result.
  Ledger::Span report_span(ledger, "obs.run_report", trace);
  obs::RunReport report;
  describe_environment(report);
  report.set_instance(instance.name(), instance.n(),
                      to_string(instance.metric()));
  report.set_engine(timed.name());
  report.set_config("seed", std::to_string(spec.seed));
  report_ils(report, out.ils);
  const std::string json = report.to_json();  // timed; the text is unused
  out.report_ms = report_span.finish();
  return out;
}

void solver_rows(const Replay& r, std::map<std::string, double>& rows) {
  const double descent_s =
      r.ils.trace.empty() ? 0.0 : r.ils.trace.front().seconds;
  const double passes = static_cast<double>(r.pass_us.size());
  const double pass_p50 = median(r.pass_us);
  rows["tsp.instance_ms"] = r.instance_ms;
  rows["tsp.neighbor_lists_ms"] = r.neighbor_lists_ms;
  rows["solver.constructive_ms"] = r.constructive_ms;
  rows["solver.initial_descent_ms"] = descent_s * 1e3;
  rows["solver.pass_us_p50"] = pass_p50;
  rows["solver.pass_ns_per_city"] = pass_p50 * 1e3 / std::max(1, r.n);
  rows["solver.host_us_per_pass"] =
      passes > 0 ? (r.ils_ms * 1e3 - r.search_seconds * 1e6) / passes : 0.0;
  rows["solver.passes"] = passes;
  rows["solver.checks"] = static_cast<double>(r.ils.checks);
  const double loop_s = r.ils.wall_seconds - descent_s;
  rows["solver.ils_iters_per_s"] =
      loop_s > 0 ? static_cast<double>(r.ils.iterations) / loop_s : 0.0;
  rows["obs.report_ms"] = r.report_ms;
}

}  // namespace perfbench
