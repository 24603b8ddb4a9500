// The HTTP admin plane: request parsing, the poll-loop server's error
// discipline (404/400/405/431, HEAD), the five tspoptd endpoints served
// from a live in-process daemon, readiness flipping to 503 during a
// drain and under an injected journal fsync failure, the /tracez phase
// breakdown of settled jobs, /statusz's batch counts, and client→daemon
// trace-id propagation.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/http.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/admin.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/fault.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "simt/device.hpp"
#include "simt/device_pool.hpp"

namespace tspopt::serve {
namespace {

using namespace std::chrono_literals;

namespace fs = std::filesystem;

struct PoolFixture {
  std::vector<std::unique_ptr<simt::Device>> owned;
  std::vector<simt::Device*> devices;
  std::unique_ptr<simt::DevicePool> pool;

  explicit PoolFixture(std::size_t count) {
    for (std::size_t d = 0; d < count; ++d) {
      owned.push_back(std::make_unique<simt::Device>(simt::gtx680_cuda()));
      owned.back()->set_label("gpu" + std::to_string(d));
      devices.push_back(owned.back().get());
    }
    pool = std::make_unique<simt::DevicePool>(devices);
  }
};

std::string fresh_dir(const char* name) {
  std::string dir = testing::TempDir() + "/tspopt_admin_" + name;
  fs::remove_all(dir);
  return dir;
}

JobSpec quick_spec(double time_limit = 5.0, std::int64_t iterations = 4) {
  JobSpec spec;
  spec.catalog = "berlin52";
  spec.engine = "cpu-sequential";
  spec.time_limit_seconds = time_limit;
  spec.max_iterations = iterations;
  spec.seed = 7;
  return spec;
}

// One blocking HTTP/1.0 exchange: connect, send `raw` verbatim, read to
// EOF (the server closes after one response). status = 0 on connect
// failure — the probe loops use that to notice the listener went away.
struct HttpReply {
  int status = 0;
  std::string head;
  std::string body;
};

HttpReply http_exchange(std::uint16_t port, const std::string& raw) {
  HttpReply reply;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return reply;
  }
  ::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  std::size_t split = response.find("\r\n\r\n");
  if (split == std::string::npos) return reply;
  reply.head = response.substr(0, split);
  reply.body = response.substr(split + 4);
  // "HTTP/1.0 200 OK" — the status is field two of the status line.
  std::size_t sp = reply.head.find(' ');
  if (sp != std::string::npos) {
    reply.status = std::atoi(reply.head.c_str() + sp + 1);
  }
  return reply;
}

HttpReply http_get(std::uint16_t port, const std::string& target) {
  return http_exchange(port, "GET " + target + " HTTP/1.0\r\n\r\n");
}

// ---------------------------------------------------------- parsing --

TEST(AdminHttp, ParserAcceptsWellFormedRequestLines) {
  obs::HttpRequest req;
  std::string error;
  ASSERT_TRUE(obs::parse_http_request(
      "GET /tracez?n=5 HTTP/1.0\r\nHost: x\r\n\r\n", &req, &error));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/tracez?n=5");
  EXPECT_EQ(req.path, "/tracez");
  EXPECT_EQ(req.query, "n=5");

  ASSERT_TRUE(obs::parse_http_request("HEAD / HTTP/1.1\n\n", &req, &error));
  EXPECT_EQ(req.method, "HEAD");
  EXPECT_EQ(req.path, "/");
  EXPECT_TRUE(req.query.empty());
}

TEST(AdminHttp, ParserRejectsMalformedHeads) {
  obs::HttpRequest req;
  std::string error;
  for (const char* bad :
       {"", "\r\n", "GET\r\n", "GET /\r\n", "GET / FTP/1.0\r\n",
        "GET metrics HTTP/1.0\r\n", " GET / HTTP/1.0\r\n",
        "GET  /two HTTP/1.0\r\n", "G\x01T / HTTP/1.0\r\n"}) {
    EXPECT_FALSE(obs::parse_http_request(bad, &req, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(AdminHttp, QueryIntExtractsFirstMatchOrFallback) {
  EXPECT_EQ(obs::query_int("n=5&m=2", "n", 0), 5);
  EXPECT_EQ(obs::query_int("a=1&n=12", "n", 0), 12);
  EXPECT_EQ(obs::query_int("", "n", 7), 7);
  EXPECT_EQ(obs::query_int("m=3", "n", 7), 7);
  EXPECT_EQ(obs::query_int("n=", "n", 3), 3);
  EXPECT_EQ(obs::query_int("n=abc", "n", 3), 3);
  EXPECT_EQ(obs::query_int("n=-4", "n", 3), 3);  // digits only
}

// ----------------------------------------------------------- server --

TEST(AdminHttp, ServerRoutesAndErrorDiscipline) {
  obs::HttpServer server;
  server.route("/ping", [](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.body = "pong\n";
    return response;
  });
  server.start();
  ASSERT_GT(server.port(), 0);
  ASSERT_TRUE(server.running());

  HttpReply ok = http_get(server.port(), "/ping");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "pong\n");

  // HEAD serves the headers (with the true Content-Length) and no body.
  HttpReply head =
      http_exchange(server.port(), "HEAD /ping HTTP/1.0\r\n\r\n");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  EXPECT_NE(head.head.find("Content-Length: 5"), std::string::npos);

  EXPECT_EQ(http_get(server.port(), "/nope").status, 404);
  EXPECT_EQ(http_exchange(server.port(), "PUT /ping HTTP/1.0\r\n\r\n").status,
            405);
  EXPECT_EQ(http_exchange(server.port(), "garbage\r\n\r\n").status, 400);

  // A request head past max_request_bytes answers 431 without reading
  // the rest.
  std::string oversize = "GET /ping HTTP/1.0\r\nX-Pad: " +
                         std::string(9000, 'a') + "\r\n\r\n";
  EXPECT_EQ(http_exchange(server.port(), oversize).status, 431);

  EXPECT_GE(server.requests_served(), 4u);
  server.stop();
  EXPECT_FALSE(server.running());
}

// -------------------------------------------------------- endpoints --

TEST(AdminDaemon, EndpointsServeLiveState) {
  PoolFixture fixture(1);
  DaemonOptions options;
  options.port = 0;
  options.admin_port = 0;
  options.scheduler.workers = 1;
  options.scheduler.journal_dir = fresh_dir("endpoints");
  Daemon daemon(*fixture.pool, options);
  daemon.start();
  ASSERT_GT(daemon.admin_port(), 0);

  EXPECT_EQ(http_get(daemon.admin_port(), "/healthz").body, "ok\n");
  EXPECT_EQ(http_get(daemon.admin_port(), "/readyz").status, 200);

  HttpReply metrics = http_get(daemon.admin_port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.head.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("tspopt_serve_queue_depth"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("tspopt_serve_queue_oldest_age_ms"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("tspopt_serve_job_phase_us"),
            std::string::npos);

  obs::JsonValue statusz =
      obs::json_parse(http_get(daemon.admin_port(), "/statusz").body);
  EXPECT_FALSE(statusz.at("run_id").string.empty());
  EXPECT_TRUE(statusz.at("ready").boolean);
  EXPECT_GE(statusz.at("uptime_seconds").number, 0.0);
  EXPECT_EQ(statusz.at("serve_port").number, daemon.port());
  EXPECT_TRUE(statusz.at("journal").at("healthy").boolean);
  EXPECT_TRUE(statusz.at("active").array.empty());

  obs::JsonValue tracez =
      obs::json_parse(http_get(daemon.admin_port(), "/tracez").body);
  EXPECT_EQ(tracez.at("capacity").number, Scheduler::kTracezCapacity);
  EXPECT_TRUE(tracez.at("slowest").array.empty());

  // Run one job through; /tracez must show its phase breakdown and the
  // trace id it was submitted with.
  Client client("127.0.0.1", daemon.port());
  JobSpec spec = quick_spec();
  spec.trace_id = "feedc0defeedc0de";
  obs::JsonValue submitted = client.submit(spec);
  ASSERT_TRUE(submitted.at("ok").boolean);
  EXPECT_EQ(submitted.at("trace_id").string, "feedc0defeedc0de");
  auto id = static_cast<std::uint64_t>(submitted.at("id").number);
  client.wait(id, 10.0);

  // Settling is asynchronous after the terminal state; poll briefly.
  obs::JsonValue entry;
  auto deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    tracez = obs::json_parse(http_get(daemon.admin_port(), "/tracez").body);
    if (!tracez.at("slowest").array.empty()) {
      entry = tracez.at("slowest").array.front();
      break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(entry.at("id").number, static_cast<double>(id));
  EXPECT_EQ(entry.at("trace_id").string, "feedc0defeedc0de");
  EXPECT_EQ(entry.at("state").string, "finished");
  EXPECT_GT(entry.at("run_ms").number, 0.0);
  EXPECT_GE(entry.at("wait_ms").number, 0.0);
  EXPECT_GE(entry.at("lease_ms").number, 0.0);
  EXPECT_GE(entry.at("settle_ms").number, 0.0);
  EXPECT_GE(entry.at("total_ms").number, entry.at("run_ms").number);
  EXPECT_GT(entry.at("best").number, 0.0);

  // ?n= clamps the listing.
  tracez = obs::json_parse(http_get(daemon.admin_port(), "/tracez?n=0").body);
  EXPECT_TRUE(tracez.at("slowest").array.empty());

  daemon.stop(true);
}

TEST(AdminDaemon, ReadyzFlipsTo503DuringDrain) {
  PoolFixture fixture(1);
  DaemonOptions options;
  options.port = 0;
  options.admin_port = 0;
  options.scheduler.workers = 1;
  Daemon daemon(*fixture.pool, options);
  daemon.start();
  ASSERT_GT(daemon.admin_port(), 0);
  EXPECT_EQ(http_get(daemon.admin_port(), "/readyz").status, 200);

  // Keep one job running so the drain has something to wait for.
  Client client("127.0.0.1", daemon.port());
  obs::JsonValue submitted = client.submit(quick_spec(0.6, -1));
  ASSERT_TRUE(submitted.at("ok").boolean);

  std::thread stopper([&] { daemon.stop(/*drain=*/true); });
  // The admin listener stays up through the drain: /readyz must answer
  // 503 "draining" while the job finishes. status 0 = listener gone,
  // meaning the drain completed before we observed it — that would be a
  // test failure, not a race to paper over.
  bool saw_draining = false;
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    HttpReply reply = http_get(daemon.admin_port(), "/readyz");
    if (reply.status == 0) break;  // admin stopped: drain finished
    if (reply.status == 503) {
      EXPECT_NE(reply.body.find("draining"), std::string::npos);
      saw_draining = true;
      break;
    }
    std::this_thread::sleep_for(2ms);
  }
  stopper.join();
  EXPECT_TRUE(saw_draining);
}

TEST(AdminDaemon, ReadyzReflectsJournalFsyncHealth) {
  PoolFixture fixture(1);
  FaultPlan faults;
  // Fsync 1 is the admission append; fsync 2 is the worker's "started"
  // append, whose failure leaves the journal unhealthy for the whole run
  // (checkpoints are off, so the next fsync is the settle append).
  faults.fail_fsync_at = 2;
  DaemonOptions options;
  options.port = 0;
  options.admin_port = 0;
  options.scheduler.workers = 1;
  options.scheduler.journal_dir = fresh_dir("fsync_health");
  options.scheduler.journal.fsync_interval_ms = 0.0;  // fsync every append
  options.scheduler.journal.faults = &faults;
  options.scheduler.checkpoint_every_iterations = 0;
  Daemon daemon(*fixture.pool, options);
  daemon.start();
  ASSERT_GT(daemon.admin_port(), 0);
  EXPECT_EQ(http_get(daemon.admin_port(), "/readyz").status, 200);

  // The job is accepted (writes landed; only an fsync was lost), but
  // readiness degrades until the journal proves durable again.
  Client client("127.0.0.1", daemon.port());
  obs::JsonValue submitted = client.submit(quick_spec(0.5, -1));
  ASSERT_TRUE(submitted.at("ok").boolean);
  auto id = static_cast<std::uint64_t>(submitted.at("id").number);

  HttpReply not_ready;
  auto degrade_deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    not_ready = http_get(daemon.admin_port(), "/readyz");
    if (not_ready.status == 503) break;
    ASSERT_LT(std::chrono::steady_clock::now(), degrade_deadline);
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_NE(not_ready.body.find("journal unhealthy"), std::string::npos);
  obs::JsonValue statusz =
      obs::json_parse(http_get(daemon.admin_port(), "/statusz").body);
  EXPECT_FALSE(statusz.at("ready").boolean);
  EXPECT_EQ(statusz.at("not_ready_reason").string, "journal unhealthy");
  EXPECT_FALSE(statusz.at("journal").at("healthy").boolean);
  EXPECT_EQ(statusz.at("journal").at("fsync_errors").number, 1.0);

  // The settle append's fsync succeeds → healthy again → 200.
  client.wait(id, 10.0);
  auto deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    if (http_get(daemon.admin_port(), "/readyz").status == 200) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(5ms);
  }
  daemon.stop(true);
}

// ------------------------------------------------ trace propagation --

TEST(AdminTrace, ClientTraceIdReachesDaemonSpans) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable(true);

  PoolFixture fixture(1);
  DaemonOptions options;
  options.port = 0;
  options.scheduler.workers = 1;
  Daemon daemon(*fixture.pool, options);
  daemon.start();

  Client client("127.0.0.1", daemon.port());
  JobSpec spec = quick_spec();
  spec.trace_id = "cafe0123deadbeef";
  obs::JsonValue submitted = client.submit(spec);
  ASSERT_TRUE(submitted.at("ok").boolean);
  EXPECT_EQ(client.last_trace_id(), "cafe0123deadbeef");
  auto id = static_cast<std::uint64_t>(submitted.at("id").number);
  client.wait(id, 10.0);
  daemon.stop(true);
  tracer.enable(false);

  // Arg values are pre-rendered JSON fragments: strings arrive quoted.
  const std::string quoted = "\"cafe0123deadbeef\"";
  auto arg_value = [](const obs::TraceEvent& e,
                      const char* key) -> std::string {
    for (const auto& [k, v] : e.args) {
      if (std::strcmp(k, key) == 0) return v;
    }
    return std::string();
  };
  const obs::TraceEvent* client_submit = nullptr;
  const obs::TraceEvent* serve_job = nullptr;
  std::vector<obs::TraceEvent> events = tracer.events();
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.name, "client.submit") == 0 &&
        arg_value(e, "trace_id") == quoted) {
      client_submit = &e;
    }
    if (std::strcmp(e.name, "serve.job") == 0 &&
        arg_value(e, "trace_id") == quoted) {
      serve_job = &e;
    }
  }
  ASSERT_NE(client_submit, nullptr);
  ASSERT_NE(serve_job, nullptr);
  // The daemon-side root span is parented on the client's submit span,
  // so the two processes' exports stitch into one tree.
  EXPECT_EQ(arg_value(*serve_job, "parent_span"),
            std::to_string(client_submit->id));
  tracer.clear();
}

TEST(AdminDaemon, StatuszReportsPhaseQuantiles) {
  PoolFixture fixture(1);
  DaemonOptions options;
  options.port = 0;
  options.admin_port = 0;
  options.scheduler.workers = 1;
  Daemon daemon(*fixture.pool, options);
  daemon.start();
  ASSERT_GT(daemon.admin_port(), 0);

  // The phases object is present (with zeroed quantiles) before any job.
  obs::JsonValue statusz =
      obs::json_parse(http_get(daemon.admin_port(), "/statusz").body);
  const obs::JsonValue& phases = statusz.at("phases");
  for (const char* phase : {"wait", "lease", "run", "settle"}) {
    const obs::JsonValue& entry = phases.at(phase);
    EXPECT_GE(entry.at("count").number, 0.0);
    EXPECT_GE(entry.at("p50_us").number, 0.0);
    EXPECT_GE(entry.at("p99_us").number, 0.0);
  }

  // After a job settles, the run phase has a nonzero count and ordered
  // quantiles. The histograms are process-global, so assert growth, not
  // absolute counts (other tests in this binary also run jobs).
  Client client("127.0.0.1", daemon.port());
  obs::JsonValue submitted = client.submit(quick_spec());
  ASSERT_TRUE(submitted.at("ok").boolean);
  client.wait(static_cast<std::uint64_t>(submitted.at("id").number), 10.0);

  auto deadline = std::chrono::steady_clock::now() + 5s;
  double run_count = 0.0;
  for (;;) {
    statusz =
        obs::json_parse(http_get(daemon.admin_port(), "/statusz").body);
    run_count = statusz.at("phases").at("run").at("count").number;
    if (run_count > 0.0) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(5ms);
  }
  const obs::JsonValue& run = statusz.at("phases").at("run");
  EXPECT_GT(run.at("p50_us").number, 0.0);
  EXPECT_GE(run.at("p99_us").number, run.at("p50_us").number);

  daemon.stop(true);
}

// A batch member that expires before it starts does not count: the lead
// lingers past its own deadline collecting a follower, expires when the
// worker claims it, and the follower runs alone. /statusz's batcher
// object reports the same counts as the scheduler's stats.
TEST(AdminDaemon, StatuszBatcherCountsOnlyBatchesThatRan) {
  PoolFixture fixture(1);
  DaemonOptions options;
  options.port = 0;
  options.admin_port = 0;
  options.scheduler.workers = 1;
  options.scheduler.batcher.max_batch = 8;
  options.scheduler.batcher.max_wait_ms = 500.0;
  Daemon daemon(*fixture.pool, options);
  daemon.start();
  ASSERT_GT(daemon.admin_port(), 0);
  Scheduler& scheduler = daemon.scheduler();

  JobSpec lead = quick_spec();
  lead.engine = "cpu-simd";
  lead.batchable = true;
  lead.deadline_ms = 50.0;
  JobSpec follower = lead;
  follower.deadline_ms = -1.0;
  follower.seed = 8;
  Scheduler::Admission a = scheduler.submit(lead);
  Scheduler::Admission b = scheduler.submit(follower);
  ASSERT_TRUE(a.accepted) << a.error;
  ASSERT_TRUE(b.accepted) << b.error;

  auto deadline = std::chrono::steady_clock::now() + 10s;
  auto settled = [&](std::uint64_t id) {
    std::shared_ptr<const Job> job = scheduler.find(id);
    return job != nullptr && is_terminal(job->state()) &&
           job->phase_seconds(JobPhase::kSettle) >= 0.0;
  };
  while (!settled(a.id) || !settled(b.id)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(scheduler.find(a.id)->state(), JobState::kExpired);
  EXPECT_EQ(scheduler.find(b.id)->state(), JobState::kFinished);
  EXPECT_EQ(scheduler.find(b.id)->batch_id.load(), 0u);

  Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.batched_jobs, 0u);
  obs::JsonValue statusz =
      obs::json_parse(http_get(daemon.admin_port(), "/statusz").body);
  const obs::JsonValue& batcher = statusz.at("batcher");
  EXPECT_EQ(batcher.at("batches").number,
            statusz.at("stats").at("batches").number);
  EXPECT_EQ(batcher.at("batched_jobs").number,
            statusz.at("stats").at("batched_jobs").number);
  EXPECT_EQ(batcher.at("batches").number, 0.0);
  EXPECT_EQ(batcher.at("max_batch").number, 8.0);

  daemon.stop(true);
}

TEST(AdminDaemon, ProfilezCapturesLiveProfile) {
  PoolFixture fixture(1);
  DaemonOptions options;
  options.port = 0;
  options.admin_port = 0;
  options.scheduler.workers = 1;
  options.profilez_max_seconds = 30.0;
  Daemon daemon(*fixture.pool, options);
  daemon.start();
  ASSERT_GT(daemon.admin_port(), 0);

  // Keep the process busy so the capture window sees CPU.
  std::atomic<bool> stop_burn{false};
  std::thread burner([&] {
    volatile double x = 1.0;
    while (!stop_burn.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 100000; ++i) x = x * 1.0000001 + 0.5;
    }
  });

  // A second capture request during the window gets 503; the first
  // returns a non-empty collapsed profile. The 1 s capture answers other
  // endpoints throughout (the poller runs on the admin tick).
  std::atomic<int> second_status{0};
  std::thread second([&] {
    std::this_thread::sleep_for(200ms);
    EXPECT_EQ(http_get(daemon.admin_port(), "/healthz").status, 200);
    second_status.store(
        http_get(daemon.admin_port(), "/profilez?seconds=1").status);
  });
  HttpReply reply =
      http_get(daemon.admin_port(), "/profilez?seconds=1&hz=200");
  second.join();
  stop_burn.store(true);
  burner.join();

  EXPECT_EQ(reply.status, 200);
  EXPECT_FALSE(reply.body.empty());
  // Well-formed collapsed stacks: every line ends in " <count>".
  std::istringstream lines(reply.body);
  std::string line;
  while (std::getline(lines, line)) {
    std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
  }
  EXPECT_EQ(second_status.load(), 503);

  // The busy latch released with the first capture: a fresh one starts.
  HttpReply again = http_get(daemon.admin_port(), "/profilez?seconds=1");
  EXPECT_EQ(again.status, 200);

  daemon.stop(true);
}

TEST(AdminDaemon, ProfilezDisabledReturns404) {
  PoolFixture fixture(1);
  DaemonOptions options;
  options.port = 0;
  options.admin_port = 0;
  options.scheduler.workers = 1;
  options.profilez_max_seconds = 0.0;
  Daemon daemon(*fixture.pool, options);
  daemon.start();
  ASSERT_GT(daemon.admin_port(), 0);
  EXPECT_EQ(http_get(daemon.admin_port(), "/profilez?seconds=1").status, 404);
  daemon.stop(true);
}

}  // namespace
}  // namespace tspopt::serve
