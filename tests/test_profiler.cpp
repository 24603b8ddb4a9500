// The sampling CPU profiler: SIGPROF capture on a burning thread, span
// attribution of a synthetic nested workload, ring-overflow accounting
// into obs.profiler.dropped, the at-most-one-capture discipline, signal
// coexistence with the serve shutdown latch, span-name inheritance
// across ThreadPool::submit, and a fuzz pass over the collapsed-stack
// writer/symbolizer. The whole binary runs in the ASan/TSan CI matrix,
// which is what makes the capture tests an async-signal-safety smoke: a
// handler that mallocs or locks trips the sanitizers here.
#include <gtest/gtest.h>

#include <csignal>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/shutdown.hpp"

namespace tspopt::obs {
namespace {

using namespace std::chrono_literals;

// Spin real CPU (ITIMER_PROF counts CPU time, not wall time) for at
// least `seconds`. The sink keeps the loop from being optimized away.
volatile double g_burn_sink = 0.0;

void burn_cpu(double seconds) {
  auto start = std::chrono::steady_clock::now();
  double x = 1.0;
  do {
    for (int i = 0; i < 10000; ++i) x = std::sqrt(x + 1.5) * 1.0001;
    g_burn_sink = x;
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < seconds);
}

// Burn until the profiler has folded at least `min_samples` (or the
// deadline passes — the assertion then reports the shortfall).
void burn_until_samples(Profiler& profiler, std::uint64_t min_samples,
                        double deadline_seconds) {
  auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
             .count() < deadline_seconds) {
    burn_cpu(0.05);
    profiler.drain_now();
    if (profiler.samples() >= min_samples) return;
  }
}

TEST(Profiler, CapturesAndFoldsSamplesFromBurningThread) {
  ProfilerOptions options;
  options.hz = 500.0;  // clamped to the 1 kHz period floor: 1 ms
  Profiler profiler(options);
  ASSERT_TRUE(profiler.start());
  EXPECT_TRUE(profiler.running());
  burn_until_samples(profiler, 10, 10.0);
  profiler.stop();
  EXPECT_FALSE(profiler.running());

  EXPECT_GE(profiler.samples(), 10u);
  std::string collapsed = profiler.collapsed();
  ASSERT_FALSE(collapsed.empty());
  // flamegraph.pl line shape: frames;joined;by;semicolons <count>\n
  std::istringstream lines(collapsed);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    // The sampler trims its own frames: the machinery never shows up as
    // the leaf of a fold.
    EXPECT_EQ(line.find("sample_current_thread"), std::string::npos) << line;
  }

  // Collapsed text round-trips to a file via the flush-path plumbing.
  std::string path = testing::TempDir() + "/tspopt_profile_smoke.folded";
  profiler.set_flush_path(path);
  EXPECT_EQ(profiler.flush_path(), path);
  profiler.write_collapsed(path);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, collapsed);
}

TEST(Profiler, AttributesSamplesToNestedSpans) {
  Profiler profiler;
  ASSERT_TRUE(profiler.start());
  {
    Span outer = Tracer::global().span("test.outer");
    // Tracing is off, but the profiler switched span-name capture on, so
    // the span still pushes its name for attribution.
    burn_cpu(0.05);
    {
      Span inner = Tracer::global().span("test.inner");
      burn_until_samples(profiler, 20, 20.0);
    }
  }
  profiler.stop();

  ASSERT_GE(profiler.samples(), 20u);
  EXPECT_GT(profiler.attributed(), 0u);
  bool saw_outer = false;
  bool saw_inner = false;
  std::uint64_t outer_samples = 0;
  std::uint64_t inner_samples = 0;
  for (const Profiler::SpanAttribution& row : profiler.span_table()) {
    EXPECT_GE(row.share, 0.0);
    EXPECT_LE(row.share, 1.0);
    EXPECT_LE(row.leaf_samples, row.samples);
    if (row.span == "test.outer") {
      saw_outer = true;
      outer_samples = row.samples;
    }
    if (row.span == "test.inner") {
      saw_inner = true;
      inner_samples = row.samples;
      // Every test.inner sample has test.inner as its innermost span.
      EXPECT_EQ(row.leaf_samples, row.samples);
    }
  }
  ASSERT_TRUE(saw_outer);
  ASSERT_TRUE(saw_inner);
  // The outer span encloses the inner one: every inner-attributed sample
  // also counts toward the outer stack total.
  EXPECT_GE(outer_samples, inner_samples);
  EXPECT_GT(inner_samples, 0u);
  // The nested names appear as a fold prefix in the collapsed export.
  EXPECT_NE(profiler.collapsed().find("test.outer;test.inner;"),
            std::string::npos);
}

TEST(Profiler, RingOverflowCountsDroppedSamples) {
  std::uint64_t counter_before =
      Registry::global().counter("obs.profiler.dropped").value();
  ProfilerOptions options;
  options.hz = 1000.0;
  options.ring_capacity = 8;          // minimum
  options.start_drain_thread = false;  // nobody drains while we burn
  Profiler profiler(options);
  ASSERT_TRUE(profiler.start());
  auto start = std::chrono::steady_clock::now();
  while (profiler.dropped() == 0 &&
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
                 .count() < 20.0) {
    burn_cpu(0.05);
  }
  profiler.stop();  // final drain folds what fit and publishes counters

  EXPECT_GT(profiler.dropped(), 0u);
  EXPECT_GT(profiler.samples(), 0u);
  EXPECT_GE(Registry::global().counter("obs.profiler.dropped").value(),
            counter_before + profiler.dropped());
}

TEST(Profiler, SecondCaptureIsRefusedWhileOneIsActive) {
  Profiler first;
  Profiler second;
  ASSERT_TRUE(first.start());
  EXPECT_FALSE(second.start());  // SIGPROF is process-wide
  EXPECT_FALSE(second.running());
  first.stop();
  first.stop();  // idempotent
  ASSERT_TRUE(second.start());
  second.stop();
}

// The coexistence contract: starting/stopping a capture must not disturb
// the dispositions of the serve shutdown signals, and those signals must
// keep working *during* a capture (the profiler installs SIGPROF with an
// empty sa_mask).
TEST(Profiler, CoexistsWithShutdownAndPromSignals) {
  serve::ShutdownSignal& shutdown = serve::ShutdownSignal::global();
  shutdown.install();

  struct sigaction term_before {}, int_before {}, prof_before {};
  ASSERT_EQ(sigaction(SIGTERM, nullptr, &term_before), 0);
  ASSERT_EQ(sigaction(SIGINT, nullptr, &int_before), 0);
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &prof_before), 0);

  Profiler profiler;
  ASSERT_TRUE(profiler.start());

  // Installing SIGPROF left every other handler untouched.
  struct sigaction after {};
  ASSERT_EQ(sigaction(SIGTERM, nullptr, &after), 0);
  EXPECT_EQ(after.sa_sigaction, term_before.sa_sigaction);
  EXPECT_EQ(after.sa_flags, term_before.sa_flags);
  ASSERT_EQ(sigaction(SIGINT, nullptr, &after), 0);
  EXPECT_EQ(after.sa_sigaction, int_before.sa_sigaction);

  // The SIGPROF handler itself: SA_RESTART (no spurious EINTR storms in
  // the sampled program) and an empty mask (SIGTERM/SIGINT are never
  // delayed by a sample in flight).
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &after), 0);
  EXPECT_NE(after.sa_sigaction, prof_before.sa_sigaction);
  EXPECT_TRUE(after.sa_flags & SA_RESTART);
  EXPECT_TRUE(after.sa_flags & SA_SIGINFO);
  EXPECT_EQ(sigismember(&after.sa_mask, SIGTERM), 0);
  EXPECT_EQ(sigismember(&after.sa_mask, SIGINT), 0);

  // SIGTERM mid-capture: the drain latch sees it (exit code 143) and the
  // capture keeps sampling.
  ASSERT_EQ(raise(SIGTERM), 0);
  EXPECT_TRUE(shutdown.requested());
  EXPECT_EQ(shutdown.exit_code(), 143);
  burn_until_samples(profiler, 3, 10.0);
  EXPECT_GE(profiler.samples(), 3u);
  profiler.stop();
  shutdown.reset();

  // stop() restored the pre-capture SIGPROF disposition.
  ASSERT_EQ(sigaction(SIGPROF, nullptr, &after), 0);
  EXPECT_EQ(after.sa_sigaction, prof_before.sa_sigaction);
}

TEST(Profiler, ThreadPoolTasksInheritSubmitterSpanNames) {
  set_span_name_capture(true);
  std::atomic<bool> saw_name{false};
  std::atomic<bool> restored_empty{true};
  ThreadPool pool(1);
  {
    Span outer = Tracer::global().span("test.pool_outer");
    pool.submit([&] {
        const char* names[kMaxSpanNameDepth];
        int n = current_span_names(names, kMaxSpanNameDepth);
        for (int i = 0; i < n; ++i) {
          if (names[i] != nullptr &&
              std::string(names[i]) == "test.pool_outer") {
            saw_name.store(true);
          }
        }
      }).get();
  }
  // The span is closed now: a fresh task adopts nothing and the worker's
  // own (empty) stack was restored after the first task.
  pool.submit([&] {
      const char* names[kMaxSpanNameDepth];
      if (current_span_names(names, kMaxSpanNameDepth) != 0) {
        restored_empty.store(false);
      }
    }).get();
  set_span_name_capture(false);
  EXPECT_TRUE(saw_name.load());
  EXPECT_TRUE(restored_empty.load());
}

TEST(Profiler, SpanNameStackBalancesPastMaxDepth) {
  set_span_name_capture(true);
  {
    std::vector<Span> spans;
    for (int i = 0; i < kMaxSpanNameDepth + 4; ++i) {
      spans.push_back(Tracer::global().span("test.deep"));
    }
    const char* names[kMaxSpanNameDepth + 8];
    EXPECT_EQ(current_span_names(names, kMaxSpanNameDepth + 8),
              kMaxSpanNameDepth);
  }
  const char* names[kMaxSpanNameDepth];
  EXPECT_EQ(current_span_names(names, kMaxSpanNameDepth), 0);
  set_span_name_capture(false);
}

// Garbage in, well-formed collapsed lines out: no crashes, no token
// separators leaking out of frame names, no control bytes.
TEST(Profiler, CollapseSampleSurvivesGarbageInput) {
  std::mt19937_64 rng(20260808);
  // Garbage span names live here so the pointers stay valid.
  std::vector<std::string> junk = {
      "", " ", ";;;", "a b;c d", std::string(1000, 'x'),
      std::string("\x01\x02\x7f control"), "tab\tand\nnewline",
      "ok.name",
  };
  for (int iter = 0; iter < 2000; ++iter) {
    void* frames[Profiler::kMaxFrames + 4];
    int num_frames =
        static_cast<int>(rng() % (Profiler::kMaxFrames + 4)) - 2;
    for (auto& frame : frames) {
      switch (rng() % 4) {
        case 0: frame = nullptr; break;
        case 1: frame = reinterpret_cast<void*>(rng()); break;
        case 2: frame = reinterpret_cast<void*>(rng() % 4096); break;
        default:
          frame = reinterpret_cast<void*>(&burn_cpu);
          break;
      }
    }
    const char* spans[Profiler::kMaxSpans + 4];
    int num_spans = static_cast<int>(rng() % (Profiler::kMaxSpans + 4)) - 2;
    for (auto& span : spans) {
      span = (rng() % 3 == 0) ? nullptr : junk[rng() % junk.size()].c_str();
    }
    std::string line = collapse_sample(frames, num_frames, spans, num_spans);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.find(' '), std::string::npos) << line;
    EXPECT_EQ(line.front() == ';', false) << line;
    EXPECT_EQ(line.back() == ';', false) << line;
    for (char c : line) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << line;
      EXPECT_NE(static_cast<unsigned char>(c), 0x7F) << line;
    }
  }
}

TEST(Profiler, SymbolizePcHandlesEdgeCases) {
  EXPECT_EQ(symbolize_pc(nullptr), "0x0");
  EXPECT_FALSE(symbolize_pc(reinterpret_cast<void*>(1)).empty());
  // A real function in this binary symbolizes to its name (-rdynamic
  // exports it to the dynamic table for dladdr).
  std::string name =
      symbolize_pc(reinterpret_cast<void*>(&current_thread_ordinal));
  EXPECT_NE(name.find("current_thread_ordinal"), std::string::npos) << name;
}

TEST(Profiler, ReportCarriesProfileSection) {
  Profiler profiler;
  ASSERT_TRUE(profiler.start());
  {
    Span span = Tracer::global().span("test.report_phase");
    burn_until_samples(profiler, 5, 10.0);
  }
  profiler.stop();

  RunReport report;
  report.set_profile(profiler);
  std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema_version\":4"), std::string::npos);
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json.find("test.report_phase"), std::string::npos);
}

}  // namespace
}  // namespace tspopt::obs
