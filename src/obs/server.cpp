#include "obs/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace funnel::obs {
namespace {

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return status < 400 ? "OK" : "Error";
  }
}

// Loop until every byte is out (or the peer is gone). MSG_NOSIGNAL: a
// scraper hanging up mid-response must not SIGPIPE the pipeline.
void write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
}

/// A text/plain answer with no extra headers: every status the server
/// produces itself rather than through a handler.
HttpResponse plain(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

void write_response(int fd, const HttpResponse& resp, bool head_only) {
  std::string head = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                     status_reason(resp.status) +
                     "\r\nContent-Type: " + resp.content_type +
                     "\r\nContent-Length: " + std::to_string(resp.body.size());
  for (const auto& [name, value] : resp.headers) {
    head += "\r\n" + name + ": " + value;
  }
  head += "\r\nConnection: close\r\n\r\n";
  write_all(fd, head.data(), head.size());
  if (!head_only) write_all(fd, resp.body.data(), resp.body.size());
}

/// Read until the blank line ending the request head, a size/time bound, or
/// EOF. Returns false on overflow/timeout/error (head may be partial). On
/// success `*head_end` is the offset just past "\r\n\r\n"; bytes beyond it
/// (the body's first chunk, arriving in the same packets) stay in `*buf`.
/// The head bound applies to the head alone, never to those body bytes.
bool read_request_head(int fd, std::size_t max_bytes, std::string* buf,
                       std::size_t* head_end) {
  char tmp[2048];
  for (;;) {
    const std::size_t pos = buf->find("\r\n\r\n");
    if (pos != std::string::npos) {
      *head_end = pos + 4;
      return *head_end <= max_bytes;
    }
    if (buf->size() > max_bytes) return false;
    ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // includes EAGAIN from SO_RCVTIMEO: slowloris timeout
    }
    if (n == 0) return false;
    buf->append(tmp, static_cast<std::size_t>(n));
  }
}

/// Scan the head's header lines for Content-Length (case-insensitive name,
/// as HTTP requires). Returns false on a malformed value or on repeated
/// headers that disagree, a framing error under RFC 9112 §6.3 (answer
/// 400); `*length` stays untouched when the header is absent.
bool parse_content_length(const std::string& buf, std::size_t head_end,
                          std::optional<std::size_t>* length) {
  std::size_t line = buf.find("\r\n") + 2;  // skip the request line
  while (line + 2 <= head_end) {
    std::size_t eol = buf.find("\r\n", line);
    if (eol == std::string::npos || eol >= head_end) break;
    std::size_t colon = buf.find(':', line);
    if (colon != std::string::npos && colon < eol) {
      std::string name = buf.substr(line, colon - line);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (name == "content-length") {
        std::size_t v = colon + 1;
        while (v < eol && (buf[v] == ' ' || buf[v] == '\t')) ++v;
        std::size_t end = eol;
        while (end > v && (buf[end - 1] == ' ' || buf[end - 1] == '\t')) --end;
        if (end == v) return false;
        std::size_t value = 0;
        for (std::size_t i = v; i < end; ++i) {
          if (buf[i] < '0' || buf[i] > '9') return false;
          if (value > (std::numeric_limits<std::size_t>::max() - 9) / 10) {
            return false;
          }
          value = value * 10 + static_cast<std::size_t>(buf[i] - '0');
        }
        if (length->has_value() && **length != value) return false;
        *length = value;
      }
    }
    line = eol + 2;
  }
  return true;
}

/// Read the remainder of a Content-Length body (its first chunk may already
/// sit in `*body`). False on timeout/EOF before `length` bytes arrived.
bool read_request_body(int fd, std::size_t length, std::string* body) {
  char tmp[4096];
  while (body->size() < length) {
    ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    body->append(tmp, static_cast<std::size_t>(n));
  }
  body->resize(length);  // ignore pipelined bytes beyond the declared body
  return true;
}

/// Parse "METHOD SP target SP HTTP/1.x" out of the head's first line.
bool parse_request_line(const std::string& head, HttpRequest* req) {
  std::size_t eol = head.find("\r\n");
  if (eol == std::string::npos) return false;
  std::string line = head.substr(0, eol);
  std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) return false;
  std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || sp2 == sp1 + 1) return false;
  std::string version = line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) return false;
  req->method = line.substr(0, sp1);
  req->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::size_t q = req->target.find('?');
  req->path = req->target.substr(0, q);
  req->query = q == std::string::npos ? "" : req->target.substr(q + 1);
  return !req->path.empty() && req->path[0] == '/';
}

}  // namespace

struct HttpServer::Impl {
  explicit Impl(HttpServerOptions o) : options(std::move(o)) {
    if (options.num_workers == 0) options.num_workers = 1;
    if (options.queue_capacity == 0) options.queue_capacity = 1;
  }

  HttpServerOptions options;
  /// Exact-path routes: independent GET/HEAD and POST slots, so a POST to a
  /// GET-only path is a clean 405 (and vice versa).
  struct Route {
    Handler get;
    Handler post;
  };
  std::unordered_map<std::string, Route> routes;
  /// Prefix routes (e.g. "/v1/ingest/<tenant>"), longest match wins.
  struct PrefixRoute {
    std::string prefix;
    Handler handler;
    bool post = false;
  };
  std::vector<PrefixRoute> prefix_routes;

  int listen_fd = -1;
  std::atomic<std::uint16_t> bound_port{0};
  std::atomic<bool> running{false};
  std::atomic<bool> stopping{false};
  std::thread accept_thread;
  std::vector<std::thread> workers;

  std::mutex mutex;                ///< guards pending
  std::condition_variable cv;
  std::deque<int> pending;         ///< accepted fds awaiting a worker

  std::atomic<std::uint64_t> requests{0};
  std::atomic<const Registry*> stats{nullptr};

  void account(int status, double micros) {
    requests.fetch_add(1, std::memory_order_relaxed);
    if (const Registry* reg = stats.load(std::memory_order_acquire)) {
      reg->add("obs.server.requests");
      if (status >= 400) reg->add("obs.server.http_errors");
      reg->observe("obs.server.request_us", micros);
    }
  }

  /// Route lookup: exact path first (405 on a method mismatch), then the
  /// longest matching prefix of the right method. `*path_known` reports
  /// whether any route — either method — covers the path.
  const Handler* find_handler(const std::string& path, bool is_post,
                              bool* path_known) const {
    auto it = routes.find(path);
    if (it != routes.end()) {
      *path_known = true;
      const Handler& h = is_post ? it->second.post : it->second.get;
      if (h) return &h;
    }
    const Handler* best = nullptr;
    std::size_t best_len = 0;
    for (const PrefixRoute& pr : prefix_routes) {
      if (path.rfind(pr.prefix, 0) != 0) continue;
      *path_known = true;
      if (pr.post != is_post) continue;
      if (best == nullptr || pr.prefix.size() > best_len) {
        best = &pr.handler;
        best_len = pr.prefix.size();
      }
    }
    return best;
  }

  void serve_connection(int fd) {
    // Bound the read side so a half-open scraper can't pin a worker.
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    auto t0 = std::chrono::steady_clock::now();
    std::string buf;
    std::size_t head_end = 0;
    HttpRequest req;
    HttpResponse resp;
    bool head_only = false;
    bool parsed = false;
    const Handler* handler = nullptr;
    if (!read_request_head(fd, options.max_request_bytes, &buf, &head_end) ||
        !parse_request_line(buf, &req)) {
      if (buf.empty()) {  // peer connected and hung up: not a request
        ::close(fd);
        return;
      }
      resp = plain(400, "bad request\n");
    } else if (req.method != "GET" && req.method != "HEAD" &&
               req.method != "POST") {
      resp = plain(405, "method not allowed\n");
    } else {
      head_only = req.method == "HEAD";
      // Route before body: 404/405 never depend on (or wait for) a
      // payload, so POSTing to a GET-only path is a clean 405 even with
      // no Content-Length.
      bool path_known = false;
      handler = find_handler(req.path, req.method == "POST", &path_known);
      if (handler == nullptr) {
        resp = path_known ? plain(405, "method not allowed\n")
                          : plain(404, "not found\n");
      } else {
        // Body: Content-Length-bounded. 411 on a POST that declares none,
        // 413 past max_body_bytes (the payload is never read), 400 on a
        // malformed length or a body cut short.
        std::optional<std::size_t> content_length;
        if (!parse_content_length(buf, head_end, &content_length)) {
          resp = plain(400, "bad content-length\n");
        } else if (req.method == "POST" && !content_length.has_value()) {
          resp = plain(411, "length required\n");
        } else if (content_length.value_or(0) > options.max_body_bytes) {
          resp = plain(413, "payload too large\n");
        } else {
          req.body = buf.substr(head_end);
          if (!read_request_body(fd, content_length.value_or(0), &req.body)) {
            resp = plain(400, "incomplete body\n");
          } else {
            parsed = true;
          }
        }
      }
    }
    if (parsed) {
      try {
        resp = (*handler)(req);
      } catch (const std::exception& e) {
        resp = plain(500, std::string("handler error: ") + e.what() + "\n");
      } catch (...) {
        resp = plain(500, "handler error\n");
      }
    }
    write_response(fd, resp, head_only);
    ::close(fd);
    double micros = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    account(resp.status, micros);
  }

  void worker_loop() {
    for (;;) {
      int fd = -1;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] {
          return stopping.load(std::memory_order_relaxed) || !pending.empty();
        });
        if (stopping.load(std::memory_order_relaxed)) return;
        fd = pending.front();
        pending.pop_front();
      }
      serve_connection(fd);
    }
  }

  void accept_loop() {
    pollfd pfd{listen_fd, POLLIN, 0};
    while (!stopping.load(std::memory_order_relaxed)) {
      // Finite poll so stop() never waits on a quiet socket.
      int ready = ::poll(&pfd, 1, 200);
      if (ready <= 0) continue;  // timeout or EINTR
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      bool shed = false;
      {
        std::lock_guard lock(mutex);
        if (pending.size() >= options.queue_capacity) {
          shed = true;
        } else {
          pending.push_back(fd);
        }
      }
      if (shed) {
        // Load-shed from the accept thread: a scrape storm gets 503s, the
        // worker queue stays bounded.
        write_response(fd, plain(503, "overloaded\n"), false);
        ::close(fd);
        account(503, 0.0);
      } else {
        cv.notify_one();
      }
    }
  }
};

HttpServer::HttpServer(HttpServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, Handler handler) {
  impl_->routes[std::move(path)].get = std::move(handler);
}

void HttpServer::handle_post(std::string path, Handler handler) {
  impl_->routes[std::move(path)].post = std::move(handler);
}

void HttpServer::handle_prefix(std::string prefix, Handler handler,
                               bool post) {
  impl_->prefix_routes.push_back(
      {std::move(prefix), std::move(handler), post});
}

bool HttpServer::start() {
  if (impl_->running.load()) {
    error_ = "server already running";
    return false;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // Skip TIME_WAIT on restart. This does NOT allow stealing a port another
  // live listener holds — bind below still fails with EADDRINUSE, which is
  // the diagnostic the CLI's port-conflict exit path relies on.
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(impl_->options.port);
  if (::inet_pton(AF_INET, impl_->options.bind_address.c_str(),
                  &addr.sin_addr) != 1) {
    error_ = "invalid bind address: " + impl_->options.bind_address;
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error_ = "bind " + impl_->options.bind_address + ":" +
             std::to_string(impl_->options.port) + ": " +
             std::strerror(errno);
    ::close(fd);
    return false;
  }
  if (::listen(fd, 64) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    error_ = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  impl_->bound_port.store(ntohs(bound.sin_port));

  impl_->listen_fd = fd;
  impl_->stopping.store(false);
  impl_->running.store(true);
  impl_->workers.reserve(impl_->options.num_workers);
  for (std::size_t i = 0; i < impl_->options.num_workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
  impl_->accept_thread = std::thread([this] { impl_->accept_loop(); });
  error_.clear();
  return true;
}

void HttpServer::stop() {
  if (!impl_->running.load()) return;
  {
    // Under the mutex, so a worker between its predicate check and its
    // wait cannot miss the flag (a lost wakeup would hang the join below).
    std::lock_guard lock(impl_->mutex);
    impl_->stopping.store(true);
  }
  impl_->cv.notify_all();
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  for (auto& w : impl_->workers) {
    if (w.joinable()) w.join();
  }
  impl_->workers.clear();
  // Workers bail on stop without draining; connections still queued get a
  // hangup rather than a stall.
  for (int fd : impl_->pending) ::close(fd);
  impl_->pending.clear();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  impl_->bound_port.store(0);
  impl_->running.store(false);
  impl_->stopping.store(false);
}

bool HttpServer::running() const { return impl_->running.load(); }

std::uint16_t HttpServer::port() const { return impl_->bound_port.load(); }

std::uint64_t HttpServer::requests_served() const {
  return impl_->requests.load(std::memory_order_relaxed);
}

void HttpServer::set_stats(const Registry* stats) {
  impl_->stats.store(stats, std::memory_order_release);
  // Declared up front: a request is accounted after its response is sent,
  // so a client's next request can reach /metrics before the first count.
  if (stats != nullptr) {
    stats->declare_counter("obs.server.requests");
    stats->declare_counter("obs.server.http_errors");
    stats->declare_histogram("obs.server.request_us");
  }
}

}  // namespace funnel::obs
