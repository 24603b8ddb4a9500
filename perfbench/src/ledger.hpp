// The benchmark's own instrumentation: spans around calls into each
// layer's public functions, a timing decorator for 2-opt engines, and an
// in-process replay of the solve path a serve worker runs for one job.
//
// Nothing here adds a span inside the library. Spans are kept in memory
// and written out once, when the run ends, as a Chrome trace.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "solver/engine.hpp"
#include "solver/ils.hpp"

namespace perfbench {

class Ledger {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    std::string name;
    std::uint64_t trace = 0;  // groups the spans of one job or solve
    Clock::time_point start;
    Clock::time_point end;
  };

  // A span records nothing when `ledger` is null, so call sites look the
  // same in traced and untraced runs.
  class Span {
   public:
    Span(Ledger* ledger, std::string name, std::uint64_t trace)
        : ledger_(ledger), name_(std::move(name)), trace_(trace),
          start_(Clock::now()) {}
    ~Span() { finish(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    // Ends the span and returns its length in milliseconds.
    double finish();

   private:
    Ledger* ledger_;
    std::string name_;
    std::uint64_t trace_;
    Clock::time_point start_;
    double ms_ = -1.0;
  };

  void record(Record r);
  std::size_t size() const;
  // Chrome trace-event JSON; one row per trace id.
  void write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Record> records_;
  const Clock::time_point epoch_ = Clock::now();
};

// Wraps an engine and times each search() call; results pass through
// untouched, so a decorated run makes exactly the moves of a bare one.
class TimedEngine : public tspopt::TwoOptEngine {
 public:
  explicit TimedEngine(tspopt::TwoOptEngine& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  tspopt::SearchResult search(const tspopt::Instance& instance,
                              const tspopt::Tour& tour) override;

  const std::vector<double>& pass_us() const { return pass_us_; }
  double search_seconds() const { return search_seconds_; }

 private:
  tspopt::TwoOptEngine& inner_;
  std::vector<double> pass_us_;
  double search_seconds_ = 0.0;
};

// One solo job replayed in-process through the calls a serve worker makes:
// instance build, engine factory (neighbor lists for pruned engines),
// multiple fragment, iterated local search, run report.
struct Replay {
  tspopt::IlsResult ils{tspopt::Tour::identity(3), 0, 0, 0, 0, 0.0, false, {}};
  std::int32_t n = 0;
  double instance_ms = 0.0;
  double neighbor_lists_ms = 0.0;
  double constructive_ms = 0.0;
  double ils_ms = 0.0;
  double report_ms = 0.0;
  std::vector<double> pass_us;  // every search() call of the ILS run
  double search_seconds = 0.0;
};

// The instance a serve worker builds for `spec`: inline points or a
// catalog entry.
tspopt::Instance instance_of(const tspopt::serve::JobSpec& spec);

// `engine` overrides spec.engine when non-empty (a batch member replays on
// the solo class whose moves it must reproduce).
Replay replay_job(const tspopt::serve::JobSpec& spec, const std::string& engine,
                  Ledger* ledger, std::uint64_t trace);

// The per-layer solver rows every workload reports from one replayed or
// timed ILS run.
void solver_rows(const Replay& replay, std::map<std::string, double>& rows);

}  // namespace perfbench
