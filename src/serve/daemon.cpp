#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/check.hpp"
#include "obs/log.hpp"
#include "obs/runinfo.hpp"
#include "serve/admin.hpp"
#include "solver/engine_factory.hpp"

namespace tspopt::serve {

namespace {

std::string error_response(const std::string& message,
                           double retry_after_ms = 0.0) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("ok").value(false);
  w.key("error").value(message);
  if (retry_after_ms > 0.0) w.key("retry_after_ms").value(retry_after_ms);
  w.end_object();
  return w.str();
}

std::uint64_t id_field(const obs::JsonValue& request) {
  return static_cast<std::uint64_t>(
      json_integer(request.at("id"), "id", 1, kMaxExactInteger));
}

}  // namespace

std::string handle_request(Scheduler& scheduler, const std::string& line) {
  try {
    obs::JsonValue request = obs::json_parse(line);
    TSPOPT_CHECK_MSG(request.is_object(), "request must be a JSON object");
    const obs::JsonValue& verb_value = request.at("verb");
    TSPOPT_CHECK_MSG(verb_value.kind == obs::JsonValue::Kind::kString,
                     "\"verb\" must be a string");
    const std::string verb = verb_value.string;

    if (verb == "ping") {
      obs::JsonWriter w;
      w.begin_object();
      w.key("ok").value(true);
      w.key("run").value(obs::run_id());
      w.end_object();
      return w.str();
    }
    if (verb == "submit") {
      JobSpec spec = job_spec_from_json(request.at("job"));
      // The parse tree of an inline instance is the request's largest
      // allocation (~3 MB at 10k points); free it before admission
      // journals the spec, so the two never peak together.
      request = obs::JsonValue();
      // Echo the trace id so the submitting side's printed acceptance
      // carries the correlation handle even when the daemon minted
      // nothing (the id is client-minted; the echo is confirmation).
      std::string trace_id = spec.trace_id;
      Scheduler::Admission admission = scheduler.submit(std::move(spec));
      if (!admission.accepted) {
        return error_response(admission.error, admission.retry_after_ms);
      }
      obs::JsonWriter w;
      w.begin_object();
      w.key("ok").value(true);
      w.key("id").value(admission.id);
      if (!trace_id.empty()) w.key("trace_id").value(trace_id);
      if (admission.deduped) w.key("deduped").value(true);
      w.end_object();
      return w.str();
    }
    if (verb == "status" || verb == "result") {
      std::uint64_t id = id_field(request);
      std::shared_ptr<const Job> job = scheduler.find(id);
      if (job == nullptr) {
        return error_response("unknown job id " + std::to_string(id));
      }
      obs::JsonWriter w;
      w.begin_object();
      w.key("ok").value(true);
      w.key("job");
      write_job_status(w, *job);
      if (verb == "result") {
        if (!is_terminal(job->state())) {
          return error_response("job " + std::to_string(id) +
                                " is not finished (state " +
                                to_string(job->state()) + ")");
        }
        JobResult result = job->result();
        if (!result.order.empty()) {
          w.key("result");
          write_job_result(w, result);
        }
      }
      w.end_object();
      return w.str();
    }
    if (verb == "cancel") {
      std::uint64_t id = id_field(request);
      bool cancelled = scheduler.cancel(id);
      obs::JsonWriter w;
      w.begin_object();
      w.key("ok").value(true);
      w.key("cancelled").value(cancelled);
      w.end_object();
      return w.str();
    }
    if (verb == "forget") {
      std::uint64_t id = id_field(request);
      bool forgotten = scheduler.forget(id);
      obs::JsonWriter w;
      w.begin_object();
      w.key("ok").value(true);
      w.key("forgotten").value(forgotten);
      w.end_object();
      return w.str();
    }
    if (verb == "stats") {
      obs::JsonWriter w;
      w.begin_object();
      w.key("ok").value(true);
      w.key("run").value(obs::run_id());
      w.key("stats");
      write_stats(w, scheduler.stats());
      if (const Journal* journal = scheduler.journal()) {
        w.key("journal");
        write_journal_stats(w, *journal);
      }
      w.end_object();
      return w.str();
    }
    if (verb == "engines") {
      obs::JsonWriter w;
      w.begin_object();
      w.key("ok").value(true);
      w.key("engines").begin_array();
      for (const EngineFactory::EngineInfo& info : EngineFactory::roster()) {
        w.begin_object();
        w.key("name").value(info.name);
        w.key("description").value(info.description);
        w.end_object();
      }
      w.end_array();
      w.end_object();
      return w.str();
    }
    return error_response("unknown verb \"" + verb + "\"");
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

Daemon::Daemon(simt::DevicePool& pool, DaemonOptions options)
    : options_(std::move(options)),
      scheduler_(std::make_unique<Scheduler>(pool, options_.scheduler)) {}

Daemon::~Daemon() { stop(/*drain_first=*/false); }

void Daemon::start() {
  if (running_.load(std::memory_order_acquire)) return;
  TSPOPT_CHECK_MSG(!stopped_.load(), "Daemon cannot be restarted");

  obs::ListenSocket listener = obs::listen_tcp(
      options_.host, options_.port, options_.listen_backlog, "listen address");
  listen_fd_ = listener.fd;
  port_ = listener.port;

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::jthread([this] { accept_loop(); });

  if (options_.admin_port >= 0) {
    obs::HttpServer::Options admin_options;
    admin_options.host = options_.host;
    admin_options.port = static_cast<std::uint16_t>(options_.admin_port);
    admin_ = std::make_unique<obs::HttpServer>(admin_options);
    AdminContext admin_context;
    admin_context.scheduler = scheduler_.get();
    // stopping_ flips at the very top of stop(), before the queue closes,
    // so /readyz reports the drain with no ready->gone window.
    admin_context.draining = [this] {
      return stopping_.load(std::memory_order_acquire);
    };
    admin_context.started_at = std::chrono::system_clock::now();
    admin_context.started_steady = std::chrono::steady_clock::now();
    admin_context.serve_port = port_;
    admin_context.profilez_max_seconds = options_.profilez_max_seconds;
    mount_admin(*admin_, std::move(admin_context));
    admin_->start();
    obs::Log::global()
        .event(obs::LogLevel::kInfo, "daemon.admin")
        .arg("host", options_.host)
        .arg("port", static_cast<std::int64_t>(admin_->port()));
  }

  obs::Log::global()
      .event(obs::LogLevel::kInfo, "daemon.start")
      .arg("host", options_.host)
      .arg("port", static_cast<std::int64_t>(port_))
      .arg("workers",
           static_cast<std::uint64_t>(options_.scheduler.workers));
}

void Daemon::accept_loop() {
  for (;;) {
    if (stopping_.load(std::memory_order_acquire)) return;
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout, EINTR: re-check the stop flag
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(conns_mu_);
    // Reap connections whose handler already exited (and closed its fd),
    // so conns_ tracks live clients only. The joins are instant: `done`
    // flips as the handler's last statement.
    for (auto it = conns_.begin(); it != conns_.end();) {
      it = it->done.load(std::memory_order_acquire) ? conns_.erase(it) : ++it;
    }
    conns_.emplace_back();
    Connection& conn = conns_.back();
    conn.fd = fd;
    conn.thread = std::jthread([this, &conn] { serve_connection(conn); });
  }
}

namespace {

// Best-effort blocking send of a full buffer; false on any socket error.
bool send_all(int fd, const std::string& data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    ssize_t sent = ::send(fd, p, left, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += sent;
    left -= static_cast<std::size_t>(sent);
  }
  return true;
}

// One connection's request/response loop. Returns when the peer closes,
// on any socket error, or on protocol abuse; the caller owns fd cleanup.
void serve_fd(Scheduler& scheduler, int fd, std::size_t max_line_bytes) {
  std::string pending;
  // pending[0, scanned) holds no '\n': each recv scans only its new bytes.
  std::size_t scanned = 0;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) return;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    pending.append(buf, static_cast<std::size_t>(n));
    if (pending.size() > max_line_bytes) {
      // Protocol abuse: tell the client why before hanging up, so the
      // failure is diagnosable instead of a silent disconnect.
      std::string reply = error_response(
          "request line exceeds " + std::to_string(max_line_bytes) +
          " bytes");
      reply.push_back('\n');
      send_all(fd, reply);
      return;
    }

    std::size_t pos;
    while ((pos = pending.find('\n', scanned)) != std::string::npos) {
      std::string line;
      if (pos + 1 == pending.size()) {
        // The usual case, one request per round trip: the line ends the
        // buffer, so it moves out instead of being copied.
        line = std::move(pending);
        line.pop_back();
        pending.clear();
      } else {
        line = pending.substr(0, pos);
        pending.erase(0, pos + 1);
      }
      scanned = 0;
      if (line.empty()) continue;
      std::string response = handle_request(scheduler, line);
      response.push_back('\n');
      if (!send_all(fd, response)) return;
    }
    scanned = pending.size();
  }
}

}  // namespace

void Daemon::serve_connection(Connection& conn) {
  serve_fd(*scheduler_, conn.fd, options_.max_line_bytes);
  // Close under conns_mu_ so stop() never shutdown()s a recycled fd
  // number: while it holds the lock, no handler can release one.
  std::lock_guard lock(conns_mu_);
  ::close(conn.fd);
  conn.done.store(true, std::memory_order_release);
}

void Daemon::close_listener() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Daemon::stop(bool drain_first) {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  close_listener();

  // Scheduler first: during a drain, established connections stay usable
  // so clients can keep polling status while the backlog finishes.
  if (scheduler_) scheduler_->shutdown(drain_first);

  {
    std::lock_guard lock(conns_mu_);
    for (Connection& conn : conns_) {
      if (!conn.done.load(std::memory_order_acquire)) {
        ::shutdown(conn.fd, SHUT_RDWR);  // wake blocking recv()
      }
    }
  }
  conns_.clear();  // joins every handler; each closed its own fd on exit

  // The admin plane goes down last: /healthz and /readyz stayed probeable
  // through the whole drain above (answering 503 not-ready, which is the
  // orchestration contract for a draining instance).
  if (admin_) admin_->stop();

  bool was_running = running_.exchange(false);
  if (was_running) {
    obs::Log::global()
        .event(obs::LogLevel::kInfo, "daemon.stop")
        .arg("drained", drain_first)
        .arg("connections", connections_.load(std::memory_order_relaxed));
  }
}

}  // namespace tspopt::serve
