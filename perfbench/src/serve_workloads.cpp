// serve-mixed and serve-burst: an in-process serve::Daemon on loopback,
// journal on, driven through real serve::Client connections.
//
// Latency runs from the start of Client::submit until the `result`
// response arrives. The server-side split (wait / lease / run / settle)
// comes from the job's public status fields; admit and fetch are the
// client's own submit and result round trips.
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <thread>

#include "obs/json.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "simt/device_spec.hpp"
#include "simt/perf_model.hpp"
#include "tsp/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tspopt;
using Clock = std::chrono::steady_clock;
using serve::JobSpec;

// Status poll interval: well below the shortest class's median latency
// (~200 ms), so polling adds ~1 ms on average to a job's observed latency.
constexpr double kPollMs = 2.0;
// Daemons started per run to time set-up (about a millisecond each, so
// many, for a steady median); the last one serves the measured window.
constexpr int kSetups = 61;
constexpr double kJobTimeLimit = 60.0;  // generous: work is iteration-bound

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// A job seed from the workload seed. Seeds travel as JSON numbers
// (doubles), so they stay far below 2^53.
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t stream) {
  return mix_seed(seed, stream) % 1000000;
}

// The wire form the daemon parses, so replays see the exact same points.
JobSpec round_trip(const JobSpec& spec) {
  return serve::job_spec_from_json(obs::json_parse(serve::job_spec_to_json(spec)));
}

JobSpec inline_spec(const Instance& instance, std::string engine,
                    std::int64_t iterations, std::uint64_t seed) {
  JobSpec spec;
  spec.instance_name = instance.name();
  spec.points.assign(instance.points().begin(), instance.points().end());
  spec.engine = std::move(engine);
  spec.max_iterations = iterations;
  spec.time_limit_seconds = kJobTimeLimit;
  spec.seed = seed;
  return round_trip(spec);
}

// The counters the simt rows use; the rest stay zero.
void accumulate(simt::PerfCounters::Snapshot& into,
                const simt::PerfCounters::Snapshot& work) {
  into.kernel_launches += work.kernel_launches;
  into.checks += work.checks;
  into.h2d_transfers += work.h2d_transfers;
  into.h2d_bytes += work.h2d_bytes;
  into.d2h_transfers += work.d2h_transfers;
  into.d2h_bytes += work.d2h_bytes;
}

// A daemon over its own two simulated GTX 680s (tspoptd's default pool).
class Service {
 public:
  Service(const std::string& journal_dir, serve::DaemonOptions options) {
    std::vector<simt::Device*> raw;
    for (int d = 0; d < 2; ++d) {
      devices_.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
      devices_.back()->set_label("gpu" + std::to_string(d));
      raw.push_back(devices_.back().get());
    }
    pool_ = std::make_unique<simt::DevicePool>(raw);
    options.scheduler.journal_dir = journal_dir;
    daemon_ = std::make_unique<serve::Daemon>(*pool_, options);
    daemon_->start();
  }

  std::uint16_t port() const { return daemon_->port(); }

  simt::PerfCounters::Snapshot device_work() const {
    simt::PerfCounters::Snapshot sum{};
    for (const auto& d : devices_) accumulate(sum, d->counters().snapshot());
    return sum;
  }

 private:
  std::vector<std::unique_ptr<simt::Device>> devices_;
  std::unique_ptr<simt::DevicePool> pool_;
  std::unique_ptr<serve::Daemon> daemon_;  // last: stops before the pool goes
};

// Start kSetups daemons one after another, each on a fresh journal
// directory, timing construction + start() up to the first answered ping.
// Returns the last one.
std::unique_ptr<Service> start_service(const Args& args,
                                       const serve::DaemonOptions& options,
                                       Outcome& out) {
  const std::string dir = args.out_dir + "/journal";
  std::vector<double> setup;
  std::unique_ptr<Service> service;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    remove_dir(dir);
    Clock::time_point t0 = Clock::now();
    service = std::make_unique<Service>(dir, options);
    serve::Client client("127.0.0.1", service->port());
    obs::JsonValue pong = client.request("{\"verb\":\"ping\"}");
    setup.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (!pong.at("ok").boolean) out.fail("daemon did not answer ping");
  }
  out.end_to_end["setup_s"] = median(setup);
  out.notes.push_back("journal_fs: " + filesystem_type(dir));
  return service;
}

struct StatsSnapshot {
  double appends = 0, bytes = 0, fsyncs = 0, batches = 0, batched_jobs = 0;
};

StatsSnapshot daemon_stats(std::uint16_t port) {
  serve::Client client("127.0.0.1", port);
  obs::JsonValue r = client.stats();
  const obs::JsonValue& s = r.at("stats");
  const obs::JsonValue& j = r.at("journal");
  return {j.at("appends").number, j.at("bytes").number, j.at("fsyncs").number,
          s.at("batches").number, s.at("batched_jobs").number};
}

// One job as the client saw it.
struct JobSample {
  int spec = 0;          // index into the workload's spec table
  int round = 0;         // serve-burst round
  bool traced = false;
  bool measured = true;  // false for warm-up jobs
  std::string error;     // non-empty: rejected, not finished, or malformed
  Clock::time_point start, end;
  double admit_ms = 0, fetch_ms = 0;
  double wait_ms = 0, lease_ms = 0, run_ms = 0, settle_ms = 0;
  std::uint64_t batch_id = 0;
  int polls = 0;
  double result_bytes = 0;
  std::int64_t best_length = 0;
  std::vector<std::int32_t> order;

  double latency_ms() const { return ms_between(start, end); }
  double unattributed_ms() const {
    return latency_ms() -
           (admit_ms + wait_ms + lease_ms + run_ms + settle_ms + fetch_ms);
  }
};

bool terminal(const std::string& state) {
  return state != "queued" && state != "running";
}

double field_ms(const obs::JsonValue& job, const char* key) {
  const obs::JsonValue* v = job.find(key);
  return v != nullptr ? v->number * 1e3 : 0.0;
}

// Submit, returning the job id (0 when rejected; the reason lands in
// sample.error).
std::uint64_t submit(serve::Client& client, const JobSpec& spec,
                     JobSample& sample, Ledger* ledger, std::uint64_t trace) {
  sample.start = Clock::now();
  Ledger::Span span(ledger, "client.submit", trace);
  obs::JsonValue r = client.submit(spec);
  sample.admit_ms = span.finish();
  if (!r.at("ok").boolean) {
    const obs::JsonValue* e = r.find("error");
    sample.error = "rejected: " + (e != nullptr ? e->string : "?");
    return 0;
  }
  return static_cast<std::uint64_t>(r.at("id").number);
}

// Poll until terminal, fetch the result (latency ends here), then forget.
void await(serve::Client& client, std::uint64_t id, JobSample& sample,
           Ledger* ledger, std::uint64_t trace) {
  for (;;) {
    Ledger::Span span(ledger, "client.status", trace);
    obs::JsonValue st = client.status(id);
    span.finish();
    ++sample.polls;
    if (terminal(st.at("job").at("state").string)) break;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kPollMs));
  }
  Ledger::Span fetch(ledger, "client.result", trace);
  obs::JsonValue r = client.result(id);
  sample.fetch_ms = fetch.finish();
  sample.end = Clock::now();

  // A job turns terminal just before its settle phase (journal append)
  // ends; read the settle time once it is published. This happens after
  // the latency sample is taken.
  obs::JsonValue job = r.at("job");
  for (int tries = 0; job.find("settle_seconds") == nullptr && tries < 100;
       ++tries) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    job = client.status(id).at("job");
    ++sample.polls;
  }
  if (ledger != nullptr) {
    obs::JsonWriter w;
    obs::write_json_value(w, r);
    sample.result_bytes = static_cast<double>(w.str().size());
  }
  {
    Ledger::Span span(ledger, "client.forget", trace);
    client.forget(id);
  }

  sample.wait_ms = field_ms(job, "wait_seconds");
  sample.lease_ms = field_ms(job, "lease_seconds");
  sample.run_ms = field_ms(job, "run_seconds");
  sample.settle_ms = field_ms(job, "settle_seconds");
  if (const obs::JsonValue* b = job.find("batch_id")) {
    sample.batch_id = static_cast<std::uint64_t>(b->number);
  }
  if (job.at("state").string != "finished") {
    sample.error = "job ended " + job.at("state").string;
    return;
  }
  const obs::JsonValue* result = r.find("result");
  if (result == nullptr) {
    sample.error = "finished job has no result";
    return;
  }
  sample.best_length = static_cast<std::int64_t>(result->at("best_length").number);
  for (const obs::JsonValue& c : result->at("order").array) {
    sample.order.push_back(static_cast<std::int32_t>(c.number));
  }
}

// Check each finished job against the instance and against an in-process
// replay of its spec; every problem counts as a failed job.
void verify(const std::vector<JobSample>& jobs, const std::vector<JobSpec>& specs,
            const std::vector<Replay>& replays,
            const std::vector<Instance>& instances, Outcome& out) {
  for (const JobSample& job : jobs) {
    ++out.attempted;
    if (!job.error.empty()) {
      out.fail(job.error);
      continue;
    }
    const auto s = static_cast<std::size_t>(job.spec);
    std::string why = verify_tour(instances[s], job.order, job.best_length);
    const IlsResult& replay = replays[s].ils;
    if (why.empty() && (job.best_length != replay.best_length ||
                        !std::equal(job.order.begin(), job.order.end(),
                                    replay.best.order().begin(),
                                    replay.best.order().end()))) {
      why = "result differs from the in-process replay (best " +
            std::to_string(job.best_length) + " vs " +
            std::to_string(replay.best_length) + ")";
    }
    if (!why.empty()) out.fail("spec " + specs[s].engine + ": " + why);
  }
}

// The rows both serve workloads derive from their jobs. Every measured
// job carries its client round trips and server phases; the response size
// is taken from traced jobs only (serializing it is tracing work).
void serve_rows(const std::vector<JobSample>& jobs, double tail_pct,
                Outcome& out) {
  std::vector<double> admit, wait, lease, settle, fetch, gap;
  double polls = 0, bytes = 0, traced = 0, measured = 0;
  for (const JobSample& j : jobs) {
    if (!j.measured) continue;
    ++measured;
    polls += j.polls;
    if (!j.error.empty()) continue;
    admit.push_back(j.admit_ms);
    wait.push_back(j.wait_ms);
    if (j.lease_ms > 0) lease.push_back(j.lease_ms);
    settle.push_back(j.settle_ms);
    fetch.push_back(j.fetch_ms);
    gap.push_back(j.unattributed_ms());
    if (j.traced) {
      bytes += j.result_bytes;
      ++traced;
    }
  }
  auto& rows = out.per_layer;
  rows["serve.admit_ms_p50"] = median(admit);
  rows["serve.wait_ms_p50"] = median(wait);
  Tail wait_tail = tail(wait, tail_pct);
  rows["serve.wait_ms_tail"] = wait_tail.value;
  rows["serve.lease_ms_p50"] = median(lease);
  rows["serve.settle_ms_p50"] = median(settle);
  rows["serve.fetch_ms_p50"] = median(fetch);
  rows["serve.result_bytes"] = traced > 0 ? bytes / traced : 0.0;
  rows["serve.unattributed_ms_p50"] = median(gap);
  rows["serve.polls_per_job"] = measured > 0 ? polls / measured : 0.0;
  out.notes.push_back("serve.wait_ms_tail: " + wait_tail.describe());
}

void journal_rows(const StatsSnapshot& before, const StatsSnapshot& after,
                  double jobs, Outcome& out) {
  if (jobs <= 0) return;
  out.per_layer["journal.appends_per_job"] = (after.appends - before.appends) / jobs;
  out.per_layer["journal.bytes_per_job"] = (after.bytes - before.bytes) / jobs;
  out.per_layer["journal.fsyncs_per_job"] = (after.fsyncs - before.fsyncs) / jobs;
}

// End-to-end latency rows over the measured jobs.
void latency_rows(const std::vector<JobSample>& jobs, double tail_pct,
                  Outcome& out) {
  std::vector<double> latency;
  for (const JobSample& j : jobs) {
    if (j.measured && j.error.empty()) latency.push_back(j.latency_ms());
  }
  Tail t = tail(latency, tail_pct);
  out.end_to_end["job_latency_p50_ms"] = median(latency);
  out.end_to_end["job_latency_tail_ms"] = t.value;
  out.notes.push_back("job_latency_tail_ms: " + t.describe() + " jobs");
}

// Tracing cost: traced jobs' median latency over untraced jobs', per
// group (class or round kind), averaged.
double trace_overhead(const std::vector<JobSample>& jobs, int groups,
                      int (*group_of)(const JobSample&)) {
  double sum = 0;
  int counted = 0;
  for (int g = 0; g < groups; ++g) {
    std::vector<double> on, off;
    for (const JobSample& j : jobs) {
      if (!j.measured || !j.error.empty() || group_of(j) != g) continue;
      (j.traced ? on : off).push_back(j.latency_ms());
    }
    if (on.empty() || off.empty()) continue;
    sum += median(on) / median(off) - 1.0;
    ++counted;
  }
  return counted > 0 ? sum / counted : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// serve-mixed: 3 closed-loop clients alternate pruned10k and full1k jobs.

namespace {

constexpr int kMixedClients = 3;
constexpr int kPrunedPool = 4;      // distinct 10k instances
constexpr int kFullSeeds = 4;       // distinct vm1084 job seeds
constexpr std::int64_t kPrunedIterations = 5;
constexpr std::int64_t kFullIterations = 30;
// 150-300 jobs per 20 s window: p90 leaves 15 or more beyond.
constexpr double kMixedTailPct = 90;

int class_of(const JobSample& j) { return j.spec < kPrunedPool ? 0 : 1; }

}  // namespace

Outcome run_serve_mixed(const Args& args, Ledger* ledger) {
  Outcome out;

  // Spec table: kPrunedPool inline clustered 10k instances on
  // cpu-simd-pruned (default k), then kFullSeeds vm1084 jobs on cpu-simd.
  std::vector<JobSpec> specs;
  std::vector<Instance> instances;
  for (int i = 0; i < kPrunedPool; ++i) {
    Instance inst = generate_clustered("pruned10k-" + std::to_string(i), 10000,
                                       25, mix_seed(args.seed, 100 + i));
    specs.push_back(inline_spec(inst, "cpu-simd-pruned", kPrunedIterations,
                                job_seed(args.seed, 200 + i)));
  }
  for (int i = 0; i < kFullSeeds; ++i) {
    JobSpec spec;
    spec.catalog = "vm1084";
    spec.engine = "cpu-simd";
    spec.max_iterations = kFullIterations;
    spec.time_limit_seconds = kJobTimeLimit;
    spec.seed = job_seed(args.seed, 300 + i);
    specs.push_back(spec);
  }
  for (const JobSpec& spec : specs) instances.push_back(instance_of(spec));

  serve::DaemonOptions options;  // tspoptd defaults: 2 workers, queue 16
  std::unique_ptr<Service> service = start_service(args, options, out);
  const std::uint16_t port = service->port();

  std::vector<JobSample> jobs;
  // Warm-up: one job per class, so lazy set-up does not land in the window.
  {
    serve::Client client("127.0.0.1", port);
    for (int s : {0, kPrunedPool}) {
      JobSample sample;
      sample.spec = s;
      sample.measured = false;
      if (std::uint64_t id = submit(client, specs[s], sample, nullptr, 0)) {
        await(client, id, sample, nullptr, 0);
      }
      jobs.push_back(std::move(sample));
    }
  }

  const StatsSnapshot before = daemon_stats(port);
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(args.seconds));
  std::vector<std::vector<JobSample>> per_client(kMixedClients);
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kMixedClients; ++c) {
      clients.emplace_back([&, c] {
        serve::Client client("127.0.0.1", port);
        for (int j = 0; Clock::now() < deadline; ++j) {
          JobSample sample;
          const int cycle = j / 2;
          sample.spec = (j + c) % 2 == 0
                            ? (cycle + c) % kPrunedPool
                            : kPrunedPool + (cycle + c) % kFullSeeds;
          // Traced runs trace every other cycle, so each class has traced
          // and untraced jobs to compare.
          sample.traced = ledger != nullptr && cycle % 2 == 0;
          Ledger* l = sample.traced ? ledger : nullptr;
          const std::uint64_t trace = (static_cast<std::uint64_t>(c) << 32) | j;
          // A transport error ends this client; the job counts as failed.
          bool lost = false;
          try {
            if (std::uint64_t id = submit(client, specs[sample.spec], sample, l, trace)) {
              await(client, id, sample, l, trace);
            }
          } catch (const std::exception& e) {
            sample.error = std::string("client: ") + e.what();
            lost = true;
          }
          per_client[c].push_back(std::move(sample));
          if (lost) break;
        }
      });
    }
  }
  const double window_s = ms_between(t0, Clock::now()) / 1e3;
  const StatsSnapshot after = daemon_stats(port);
  service.reset();
  remove_dir(args.out_dir + "/journal");

  // time_to_target_s: one result of each class per client (a cycle).
  std::vector<double> cycles;
  std::size_t measured = 0;
  for (auto& mine : per_client) {
    for (std::size_t j = 0; j + 1 < mine.size(); j += 2) {
      if (mine[j].error.empty() && mine[j + 1].error.empty()) {
        cycles.push_back(ms_between(mine[j].start, mine[j + 1].end) / 1e3);
      }
    }
    measured += mine.size();
    for (JobSample& s : mine) jobs.push_back(std::move(s));
  }

  // Replays: one per spec. The first pruned10k replay feeds the ledger.
  std::vector<Replay> replays;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    replays.push_back(replay_job(specs[s], "", s == 0 ? ledger : nullptr,
                                 1000000 + s));
  }
  verify(jobs, specs, replays, instances, out);

  latency_rows(jobs, kMixedTailPct, out);
  out.end_to_end["jobs_per_s"] = static_cast<double>(measured) / window_s;
  out.end_to_end["time_to_target_s"] = median(cycles);
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();

  serve_rows(jobs, kMixedTailPct, out);
  for (int cls = 0; cls < 2; ++cls) {
    std::vector<double> latency, run;
    for (const JobSample& j : jobs) {
      if (!j.measured || !j.error.empty() || class_of(j) != cls) continue;
      latency.push_back(j.latency_ms());
      run.push_back(j.run_ms);
    }
    const char* name = cls == 0 ? "pruned10k" : "full1k";
    out.per_layer[std::string("class.") + name + ".latency_p50_ms"] = median(latency);
    out.per_layer[std::string("serve.run_ms_p50.") + name] = median(run);
  }
  journal_rows(before, after, static_cast<double>(measured), out);
  solver_rows(replays.front(), out.per_layer);
  out.per_layer["obs.trace_overhead_frac"] = trace_overhead(jobs, 2, class_of);
  return out;
}

// ---------------------------------------------------------------------------
// serve-burst: rounds of 32 batchable gpu-small jobs on one fresh n=300
// instance, submitted back to back by one client, then awaited.

namespace {

constexpr int kBurstSize = 32;
constexpr std::int32_t kBurstCities = 300;
constexpr std::int64_t kBurstIterations = 4;
constexpr double kBurstLingerMs = 250;
// Taken within each round: p95 of 32 jobs lies between the two latest.
constexpr double kBurstTailPct = 95;
// The simt rows cover the first rounds of the window only, so that their
// counts come from the same jobs in every run of a seed.
constexpr int kCountedRounds = 4;

int one_group(const JobSample&) { return 0; }

}  // namespace

Outcome run_serve_burst(const Args& args, Ledger* ledger) {
  Outcome out;
  // tspoptd defaults except --workers 1 --max-batch 32 --batch-wait-ms 250
  // and a queue that holds a whole round. Submitting 32 jobs takes ~40 ms,
  // far longer than the default 2 ms linger: with it, a round split into
  // batches by submit timing, and with two workers those batches raced for
  // the shared thread pool, so round times followed the split rather than
  // the code. One worker and a linger well past the submit time coalesce
  // every round into one batch of 32 (the linger ends as soon as the batch
  // is full, so it adds no idle time).
  serve::DaemonOptions options;
  options.scheduler.workers = 1;
  options.scheduler.batcher.max_batch = kBurstSize;
  options.scheduler.batcher.max_wait_ms = kBurstLingerMs;
  options.scheduler.queue_capacity = kBurstSize;
  std::unique_ptr<Service> service = start_service(args, options, out);
  const std::uint16_t port = service->port();
  serve::Client client("127.0.0.1", port);

  std::vector<JobSpec> specs;  // kBurstSize per round, round-major
  std::vector<Instance> instances;
  auto make_round = [&](int round) {
    Instance inst = generate_uniform("burst-" + std::to_string(round),
                                     kBurstCities, mix_seed(args.seed, 1000 + round));
    JobSpec lead = inline_spec(inst, "gpu-small", kBurstIterations, 0);
    lead.batchable = true;
    for (int m = 0; m < kBurstSize; ++m) {
      JobSpec spec = lead;
      spec.seed = job_seed(args.seed, 5000 + round * kBurstSize + m);
      specs.push_back(spec);
      instances.push_back(instance_of(spec));
    }
  };
  std::vector<JobSample> jobs;
  // Per measured round: all 32 results, the round until the client is free
  // again, and the round's median and tail job latency.
  std::vector<double> makespans, periods, round_p50, round_tail;
  std::vector<simt::PerfCounters::Snapshot> round_work;  // measured rounds
  auto run_round = [&](int round, bool measured) {
    make_round(round);
    const simt::PerfCounters::Snapshot work_before = service->device_work();
    const bool traced = ledger != nullptr && round % 2 == 0;
    Ledger* l = traced ? ledger : nullptr;
    std::vector<JobSample> mine(kBurstSize);
    std::vector<std::uint64_t> ids(kBurstSize, 0);
    for (int m = 0; m < kBurstSize; ++m) {
      mine[m].spec = round * kBurstSize + m;
      mine[m].round = round;
      mine[m].measured = measured;
      mine[m].traced = traced;
      ids[m] = submit(client, specs[mine[m].spec], mine[m], l, mine[m].spec);
    }
    for (int m = 0; m < kBurstSize; ++m) {
      if (ids[m] != 0) await(client, ids[m], mine[m], l, mine[m].spec);
    }
    if (measured) {
      const Clock::time_point done = Clock::now();
      makespans.push_back(ms_between(mine.front().start, mine.back().end) / 1e3);
      periods.push_back(ms_between(mine.front().start, done) / 1e3);
      std::vector<double> latency;
      for (const JobSample& s : mine) {
        if (s.error.empty()) latency.push_back(s.latency_ms());
      }
      round_p50.push_back(median(latency));
      round_tail.push_back(quantile(latency, kBurstTailPct / 100.0));
      round_work.push_back(service->device_work() - work_before);
    }
    for (JobSample& s : mine) jobs.push_back(std::move(s));
  };

  run_round(0, false);  // warm-up
  const StatsSnapshot before = daemon_stats(port);
  const Clock::time_point t0 = Clock::now();
  int rounds = 0;
  while (ms_between(t0, Clock::now()) < args.seconds * 1e3) run_round(++rounds, true);
  const double window_s = ms_between(t0, Clock::now()) / 1e3;
  const StatsSnapshot after = daemon_stats(port);
  service.reset();
  remove_dir(args.out_dir + "/journal");

  // Every member must equal its solo run. cpu-simd picks the same move as
  // gpu-small on every pass (pinned by the engine-equivalence tests), so
  // it replays each member cheaply; one member per run also replays on
  // gpu-small itself, and that replay feeds the ledger.
  std::vector<Replay> replays;
  for (const JobSpec& spec : specs) replays.push_back(replay_job(spec, "cpu-simd", nullptr, 0));
  Replay solo = replay_job(specs[kBurstSize], "gpu-small", ledger, 1000000);
  if (solo.ils.best_length != replays[kBurstSize].ils.best_length ||
      !(solo.ils.best == replays[kBurstSize].ils.best)) {
    out.fail("gpu-small solo replay differs from the cpu-simd replay");
  }
  verify(jobs, specs, replays, instances, out);

  // A round's 32 jobs finish together, so a pooled job percentile is set by
  // the few slowest rounds (p95 of all jobs is the slowest round's latency).
  // Each row is instead a median over rounds of a per-round figure.
  out.end_to_end["job_latency_p50_ms"] = median(round_p50);
  out.end_to_end["job_latency_tail_ms"] = median(round_tail);
  out.end_to_end["jobs_per_s"] = kBurstSize / median(periods);
  out.end_to_end["time_to_target_s"] = median(makespans);
  out.notes.push_back("job_latency_tail_ms: median over " +
                      std::to_string(round_tail.size()) + " rounds of p" +
                      std::to_string(static_cast<int>(kBurstTailPct)) + " of " +
                      std::to_string(kBurstSize) + " jobs");
  out.notes.push_back("window_jobs_per_s: " +
                      std::to_string(rounds * kBurstSize / window_s));
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();

  serve_rows(jobs, kBurstTailPct, out);
  // Host wall of the counted rounds' batch runs: a batch's members report
  // its ILS wall.
  std::map<std::uint64_t, double> batch_wall;
  std::vector<double> run;
  for (const JobSample& j : jobs) {
    if (!j.measured || !j.error.empty()) continue;
    run.push_back(j.run_ms);
    if (j.round > kCountedRounds) continue;
    double& wall = batch_wall[j.batch_id != 0 ? j.batch_id : (1ULL << 63) + j.spec];
    wall = std::max(wall, j.run_ms);
  }
  double host_ms = 0;
  for (const auto& [id, wall] : batch_wall) host_ms += wall;
  if (rounds < kCountedRounds) {
    out.fail("only " + std::to_string(rounds) + " rounds ran; the simt rows need " +
             std::to_string(kCountedRounds));
  }
  simt::PerfCounters::Snapshot work{};
  for (int r = 0; r < std::min(rounds, kCountedRounds); ++r) {
    accumulate(work, round_work[r]);
  }
  const double n_rounds = std::max(1, rounds);
  const double counted = std::max(1, std::min(rounds, kCountedRounds));
  auto& rows = out.per_layer;
  rows["serve.run_ms_p50.burst"] = median(run);
  journal_rows(before, after, rounds * kBurstSize, out);
  const double batches = after.batches - before.batches;
  rows["batcher.batches_per_round"] = batches / n_rounds;
  rows["batcher.occupancy_mean"] =
      batches > 0 ? (after.batched_jobs - before.batched_jobs) / batches : 0.0;
  const simt::PerfModel model(simt::gtx680_cuda());
  rows["simt.modeled_device_ms"] = model.price(work).total_us() / 1e3 / counted;
  rows["simt.kernel_launches"] = work.kernel_launches / counted;
  rows["simt.h2d_bytes"] = work.h2d_bytes / counted;
  rows["simt.d2h_bytes"] = work.d2h_bytes / counted;
  rows["simt.checks"] = work.checks / counted;
  rows["simt.host_ms_per_launch"] =
      work.kernel_launches > 0 ? host_ms / work.kernel_launches : 0.0;
  solver_rows(solo, rows);
  rows["obs.trace_overhead_frac"] = trace_overhead(jobs, 1, one_group);
  out.notes.push_back("rounds: " + std::to_string(rounds) + " x " +
                      std::to_string(kBurstSize) + " jobs, n=" +
                      std::to_string(kBurstCities));
  return out;
}

}  // namespace perfbench
