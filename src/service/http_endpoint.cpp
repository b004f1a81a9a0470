#include "service/http_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "obs/json.h"
#include "obs/prometheus.h"

namespace ditto::service {

namespace {

std::string http_response(int code, const char* reason, const std::string& content_type,
                          const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.1 " << code << " " << reason << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return os.str();
}

std::string jobs_json(JobService* service) {
  std::ostringstream os;
  os << "{\"jobs\":[";
  if (service != nullptr) {
    bool first = true;
    for (const JobService::JobSnapshotRow& row : service->jobs_snapshot()) {
      if (!first) os << ",";
      first = false;
      os << "{\"id\":" << row.id << ",\"label\":\"" << obs::json_escape(row.label) << "\""
         << ",\"state\":\"" << job_state_name(row.state) << "\"";
      if (!row.error.empty()) {
        os << ",\"error\":\"" << obs::json_escape(row.error) << "\"";
      }
      os << ",\"submitted\":" << obs::json_number(row.submitted)
         << ",\"started\":" << obs::json_number(row.started)
         << ",\"finished\":" << obs::json_number(row.finished)
         << ",\"slots_granted\":" << row.slots_granted << "}";
    }
  }
  os << "]";
  if (service != nullptr) {
    os << ",\"total_slots\":" << service->total_slots()
       << ",\"free_slots\":" << service->free_slots();
  }
  os << "}\n";
  return os.str();
}

}  // namespace

HttpEndpoint::HttpEndpoint(Options options) : options_(options) {}

HttpEndpoint::~HttpEndpoint() { stop(); }

std::string HttpEndpoint::respond(const std::string& method, const std::string& target) const {
  if (method != "GET") {
    return http_response(405, "Method Not Allowed", "text/plain", "method not allowed\n");
  }
  // Ignore any query string: scrapers commonly append one.
  const std::string path = target.substr(0, target.find('?'));
  if (path == "/healthz") {
    return http_response(200, "OK", "text/plain", "ok\n");
  }
  if (path == "/metrics") {
    const obs::MetricsRegistry& registry =
        options_.metrics != nullptr ? *options_.metrics : obs::MetricsRegistry::global();
    return http_response(200, "OK", "text/plain; version=0.0.4",
                         obs::to_prometheus_text(registry));
  }
  if (path == "/jobs") {
    return http_response(200, "OK", "application/json", jobs_json(options_.service));
  }
  return http_response(404, "Not Found", "text/plain", "not found\n");
}

Status HttpEndpoint::start() {
  if (running_.load()) return Status::failed_precondition("endpoint already started");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::unavailable("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::unavailable("cannot bind 127.0.0.1:" + std::to_string(options_.port));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::unavailable("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Status::unavailable("getsockname() failed");
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));
  listen_fd_ = fd;
  running_.store(true);
  thread_ = std::thread(&HttpEndpoint::serve_loop, this);
  return Status::ok();
}

void HttpEndpoint::stop() {
  if (!running_.exchange(false)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpEndpoint::serve_loop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout ms=*/100);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;

    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;

    // One small request per connection; cap the header read defensively.
    std::string request;
    char buf[2048];
    while (request.size() < 16 * 1024 && request.find("\r\n\r\n") == std::string::npos) {
      const ssize_t n = ::read(conn, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      request.append(buf, static_cast<std::size_t>(n));
    }

    std::string method, target;
    {
      std::istringstream line(request.substr(0, request.find("\r\n")));
      line >> method >> target;
    }
    const std::string response = method.empty() || target.empty()
                                     ? http_response(400, "Bad Request", "text/plain",
                                                     "bad request\n")
                                     : respond(method, target);
    // Counted before the send: a client that has read the whole
    // response must already see it in requests_served().
    requests_.fetch_add(1, std::memory_order_relaxed);
    // Large bodies (/metrics grows with every chunk counter) need the
    // full partial-write loop: send() can return short or -1/EINTR on
    // a signal, and MSG_NOSIGNAL turns a peer reset into EPIPE instead
    // of a process-killing SIGPIPE.
    std::size_t off = 0;
    while (off < response.size()) {
      const ssize_t n =
          ::send(conn, response.data() + off, response.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(conn);
  }
}

}  // namespace ditto::service
