#include "obs/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/check.hpp"
#include "obs/log.hpp"

namespace tspopt::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// End of the request head: CRLFCRLF per the RFC, bare LFLF tolerated
// (telnet-style probes). Returns npos while the head is incomplete.
std::size_t head_end(std::string_view bytes) {
  std::size_t crlf = bytes.find("\r\n\r\n");
  std::size_t lflf = bytes.find("\n\n");
  if (crlf == std::string_view::npos) return lflf;
  if (lflf == std::string_view::npos) return crlf;
  return std::min(crlf, lflf);
}

bool is_token_char(char c) {
  return c > 0x20 && c < 0x7F;  // printable ASCII, no spaces/controls
}

}  // namespace

bool parse_http_request(std::string_view head, HttpRequest* out,
                        std::string* error) {
  auto fail = [&](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::size_t eol = head.find('\n');
  std::string_view line = eol == std::string_view::npos
                              ? head
                              : head.substr(0, eol);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.empty()) return fail("empty request line");

  std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) {
    return fail("malformed request line (no method)");
  }
  std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) {
    return fail("malformed request line (no target)");
  }
  std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = line.substr(sp2 + 1);
  for (char c : method) {
    if (!is_token_char(c)) return fail("malformed method");
  }
  for (char c : target) {
    if (!is_token_char(c)) return fail("malformed target");
  }
  if (version.rfind("HTTP/", 0) != 0) return fail("missing HTTP version");
  if (target.front() != '/') return fail("target must be absolute");

  out->method.assign(method);
  out->target.assign(target);
  std::size_t q = target.find('?');
  out->path.assign(target.substr(0, q));
  out->query = q == std::string_view::npos
                   ? std::string()
                   : std::string(target.substr(q + 1));
  return true;
}

std::int64_t query_int(std::string_view query, std::string_view name,
                       std::int64_t fallback) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    std::string_view pair = query.substr(
        pos, amp == std::string_view::npos ? query.size() - pos : amp - pos);
    std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == name) {
      std::string_view value = pair.substr(eq + 1);
      std::int64_t parsed = 0;
      bool any = false;
      for (char c : value) {
        if (c < '0' || c > '9' || parsed > (1LL << 40)) return fallback;
        parsed = parsed * 10 + (c - '0');
        any = true;
      }
      return any ? parsed : fallback;
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return fallback;
}

const char* http_status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

ListenSocket listen_tcp(const std::string& host, std::uint16_t port,
                        int backlog, std::string_view what) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  TSPOPT_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  try {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    TSPOPT_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                     "invalid " << what << " \"" << host << "\"");
    TSPOPT_CHECK_MSG(
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
        "bind(" << host << ":" << port
                << ") failed: " << std::strerror(errno));
    TSPOPT_CHECK_MSG(::listen(fd, backlog) == 0,
                     "listen() failed: " << std::strerror(errno));

    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    TSPOPT_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                               &bound_len) == 0);
    return {fd, ntohs(bound.sin_port)};
  } catch (...) {
    ::close(fd);
    throw;
  }
}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(std::string path, Handler handler) {
  TSPOPT_CHECK_MSG(!running(), "register routes before start()");
  routes_.push_back({std::move(path), std::move(handler), nullptr});
}

void HttpServer::route_deferred(std::string path, DeferredHandler handler) {
  TSPOPT_CHECK_MSG(!running(), "register routes before start()");
  routes_.push_back({std::move(path), nullptr, std::move(handler)});
}

void HttpServer::start() {
  if (running()) return;
  ListenSocket listener = listen_tcp(options_.host, options_.port,
                                     options_.listen_backlog,
                                     "admin listen address");
  listen_fd_ = listener.fd;
  port_ = listener.port;
  TSPOPT_CHECK(set_nonblocking(listen_fd_));

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::jthread([this] { loop(); });
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

std::string HttpServer::render_error(int status, const std::string& message,
                                     bool head_only) {
  std::string body = message;
  if (body.empty() || body.back() != '\n') body.push_back('\n');
  std::string head = "HTTP/1.0 " + std::to_string(status) + " " +
                     http_status_reason(status) +
                     "\r\nContent-Type: text/plain; charset=utf-8"
                     "\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
  return head_only ? head : head + body;
}

std::string HttpServer::render_response(const HttpResponse& response,
                                        bool head_only) {
  std::string head = "HTTP/1.0 " + std::to_string(response.status) + " " +
                     http_status_reason(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nContent-Length: " +
                     std::to_string(response.body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  return head_only ? head : head + response.body;
}

std::string HttpServer::render(const HttpRequest& request, Conn& conn) {
  for (const Route& route : routes_) {
    if (route.path != request.path) continue;
    try {
      if (route.deferred != nullptr) {
        conn.pending = route.deferred(request);
        if (conn.pending != nullptr) return std::string();  // poll later
        return render_error(500, "deferred handler returned no poller",
                            conn.head_only);
      }
      return render_response(route.sync(request), conn.head_only);
    } catch (const std::exception& e) {
      // A throwing handler is a bug, but the admin plane must stay up;
      // surface the failure to the client and the log, keep serving.
      obs::Log::global()
          .event(obs::LogLevel::kWarn, "admin.handler_error")
          .arg("path", request.path)
          .arg("error", e.what());
      return render_error(500, std::string("handler failed: ") + e.what(),
                          conn.head_only);
    }
  }
  return render_error(404, "no route for " + request.path, conn.head_only);
}

void HttpServer::handle_head(Conn& conn) {
  conn.handled = true;
  requests_.fetch_add(1, std::memory_order_relaxed);
  HttpRequest request;
  std::string error;
  if (!parse_http_request(conn.in, &request, &error)) {
    conn.out = render_error(400, error);
    return;
  }
  if (request.method != "GET" && request.method != "HEAD") {
    conn.out = render_error(405, "only GET is served here");
    return;
  }
  conn.head_only = request.method == "HEAD";
  conn.out = render(request, conn);
}

void HttpServer::poll_pending(Conn& conn) {
  HttpResponse response;
  bool ready = false;
  try {
    ready = conn.pending(&response);
  } catch (const std::exception& e) {
    obs::Log::global()
        .event(obs::LogLevel::kWarn, "admin.poller_error")
        .arg("error", e.what());
    conn.pending = nullptr;
    conn.out = render_error(500, std::string("poller failed: ") + e.what(),
                            conn.head_only);
    return;
  }
  if (!ready) return;
  conn.pending = nullptr;
  conn.out = render_response(response, conn.head_only);
}

void HttpServer::loop() {
  std::vector<Conn> conns;
  std::vector<pollfd> pfds;
  const auto idle_ns = static_cast<std::int64_t>(
      std::max(0.0, options_.idle_timeout_ms) * 1e6);

  auto close_conn = [&](std::size_t i) {
    ::close(conns[i].fd);
    conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const Conn& conn : conns) {
      short events = conn.out.empty() ? POLLIN : POLLOUT;
      pfds.push_back({conn.fd, events, 0});
    }
    int ready = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/50);
    if (ready < 0 && errno != EINTR) break;

    // Connections, newest index first so erase() keeps indices valid.
    for (std::size_t i = conns.size(); i-- > 0;) {
      Conn& conn = conns[i];
      const pollfd& pfd = pfds[i + 1];
      if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          conn.out.empty()) {
        close_conn(i);
        continue;
      }
      if (conn.out.empty() && (pfd.revents & POLLIN) != 0) {
        char buf[2048];
        ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN &&
                       errno != EWOULDBLOCK)) {
          close_conn(i);
          continue;
        }
        if (n > 0 && !conn.handled) {
          conn.in.append(buf, static_cast<std::size_t>(n));
          if (conn.in.size() > options_.max_request_bytes) {
            conn.handled = true;
            requests_.fetch_add(1, std::memory_order_relaxed);
            conn.out = render_error(431, "request head too large");
          } else if (head_end(conn.in) != std::string::npos) {
            handle_head(conn);
          }
        }
      }
      // A deferred response in flight: ask its poller whether the result
      // is ready yet (each loop tick, so ~drain-period latency).
      if (conn.pending != nullptr && conn.out.empty()) {
        poll_pending(conn);
      }
      if (!conn.out.empty() && conn.sent < conn.out.size()) {
        ssize_t n = ::send(conn.fd, conn.out.data() + conn.sent,
                           conn.out.size() - conn.sent, MSG_NOSIGNAL);
        if (n < 0 && errno != EINTR && errno != EAGAIN &&
            errno != EWOULDBLOCK) {
          close_conn(i);
          continue;
        }
        if (n > 0) conn.sent += static_cast<std::size_t>(n);
      }
      if (!conn.out.empty() && conn.sent >= conn.out.size()) {
        close_conn(i);  // one response per connection (HTTP/1.0)
        continue;
      }
      // The idle timeout exists to drop clients that never finish a
      // request; a connection waiting on a deferred response has finished
      // its request and may legitimately wait longer than the timeout
      // (e.g. a /profilez capture window).
      if (conn.out.empty() && conn.pending == nullptr && idle_ns > 0 &&
          steady_ns() - conn.opened_ns > idle_ns) {
        close_conn(i);
      }
    }

    if ((pfds[0].revents & POLLIN) != 0) {
      for (;;) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!set_nonblocking(fd)) {
          ::close(fd);
          continue;
        }
        if (conns.size() >= options_.max_connections) {
          std::string reply = render_error(503, "admin plane busy");
          ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
          ::close(fd);
          continue;
        }
        Conn conn;
        conn.fd = fd;
        conn.opened_ns = steady_ns();
        conns.push_back(std::move(conn));
      }
    }
  }
  for (Conn& conn : conns) ::close(conn.fd);
}

}  // namespace tspopt::obs
