// Minimal poll-based HTTP/1.0 server for the admin plane.
//
// tspoptd's operational surface (/metrics, /healthz, /readyz, /statusz,
// /tracez) needs an HTTP listener, but nothing resembling a web
// framework: every admin request is a small GET whose response is
// rendered from in-process state in microseconds. HttpServer is sized to
// exactly that job — one jthread running a poll() loop over the listener
// plus a bounded set of non-blocking connections (the same I/O idiom as
// serve::Client), exact-match routes registered before start(), one
// response per connection, then close (HTTP/1.0 semantics; curl,
// Prometheus and python3 http.client all speak it).
//
// The request parser is a pure function (parse_http_request) so the fuzz
// suite can drive it with the same garbage-line corpus as the daemon
// protocol: malformed bytes produce a 400, an over-long head a 431, an
// unsupported method a 405 — never an exception and never a crash of the
// serving loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace tspopt::obs {

struct HttpRequest {
  std::string method;  // "GET"
  std::string target;  // "/tracez?n=5" as received
  std::string path;    // "/tracez"
  std::string query;   // "n=5" (no leading '?'; empty when absent)
};

// Parse the request line of `head` (everything up to the blank line that
// ends the header block; headers themselves are ignored). Returns false
// with `error` set on anything that is not "<METHOD> <target> HTTP/x.y";
// never throws on arbitrary bytes.
bool parse_http_request(std::string_view head, HttpRequest* out,
                        std::string* error);

// Value of the first `name` parameter in a query string ("a=1&b=2"), or
// `fallback` when absent/unparseable. Handlers use it for ?n= limits.
std::int64_t query_int(std::string_view query, std::string_view name,
                       std::int64_t fallback);

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

const char* http_status_reason(int status);

// A bound, listening TCP socket and the port it got.
struct ListenSocket {
  int fd = -1;
  std::uint16_t port = 0;
};

// socket, SO_REUSEADDR, bind host:port (0 = ephemeral), listen(backlog),
// getsockname: the one listener setup for the serve daemon and the admin
// plane. CheckError on failure, with the socket closed; an unparseable
// host reads `invalid <what> "<host>"`.
ListenSocket listen_tcp(const std::string& host, std::uint16_t port,
                        int backlog, std::string_view what);

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; bound port via port()
  int listen_backlog = 16;
  // A request head larger than this answers 431 and closes — admin
  // requests are one short line, anything bigger is abuse.
  std::size_t max_request_bytes = 8 * 1024;
  // Connections the poll loop tracks at once; accepts beyond this are
  // answered 503 and closed immediately.
  std::size_t max_connections = 32;
  // A connection idle (no complete request head) longer than this is
  // dropped, so a dribbling client cannot pin a slot forever.
  double idle_timeout_ms = 5000.0;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  // Deferred responses: a deferred handler returns a poller instead of a
  // response. The server calls the poller on every loop tick (~50 ms);
  // it returns false while the result is still brewing and true once it
  // has filled in the response. The poller is destroyed when the
  // connection dies (client gone, server stopping) — RAII state captured
  // in it (e.g. a running profiler capture) must cancel cleanly in its
  // destructor. This is how /profilez waits out a capture without ever
  // blocking /healthz on the same loop.
  using DeferredPoll = std::function<bool(HttpResponse*)>;
  using DeferredHandler = std::function<DeferredPoll(const HttpRequest&)>;
  using Options = HttpServerOptions;

  explicit HttpServer(Options options = {});
  ~HttpServer();  // stop()

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Register an exact-match route. GET (and HEAD, served headers-only)
  // dispatch to `handler` on the server thread — handlers must be cheap
  // and thread-safe against the rest of the process. Call before start().
  void route(std::string path, Handler handler);

  // Register an exact-match route whose response may take many loop
  // ticks to produce (see DeferredHandler above). The handler itself
  // still runs synchronously on the server thread and must be cheap; the
  // waiting happens in the returned poller. A connection waiting on a
  // poller is exempt from the idle timeout.
  void route_deferred(std::string path, DeferredHandler handler);

  // Bind + listen + spawn the poll loop. CheckError when the port cannot
  // be bound. Idempotent once running.
  void start();
  // Close the listener, drop every connection, join the loop. Idempotent.
  void stop();

  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    std::string in;        // bytes read so far (request head)
    std::string out;       // rendered response, drained by POLLOUT
    std::size_t sent = 0;  // bytes of `out` already written
    std::int64_t opened_ns = 0;
    bool handled = false;   // request dispatched (sync or deferred)
    bool head_only = false;
    DeferredPoll pending;   // non-null: waiting on a deferred response
  };

  struct Route {
    std::string path;
    Handler sync;              // exactly one of sync/deferred is set
    DeferredHandler deferred;
  };

  void loop();
  void handle_head(Conn& conn);
  void poll_pending(Conn& conn);
  std::string render(const HttpRequest& request, Conn& conn);
  static std::string render_response(const HttpResponse& response,
                                     bool head_only);
  static std::string render_error(int status, const std::string& message,
                                  bool head_only = false);

  Options options_;
  std::vector<Route> routes_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::jthread thread_;
};

}  // namespace tspopt::obs
