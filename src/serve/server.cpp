#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "serve/protocol.h"

namespace shiraz::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// Writes the whole buffer, riding out EINTR and partial writes. Returns
/// false if the peer vanished (EPIPE/ECONNRESET — not an error for us).
bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {
  SHIRAZ_REQUIRE(!config_.socket_path.empty(), "socket_path must be set");
  SHIRAZ_REQUIRE(config_.threads >= 1, "threads must be >= 1");
  service_ = std::make_unique<Service>(config_.service);
  connections_gauge_ = &service_->metrics()->gauge(
      "shiraz_serve_active_connections", "live client connections");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw IoError("socket path too long for sockaddr_un: " +
                  config_.socket_path);
  }
  std::memcpy(addr.sun_path, config_.socket_path.c_str(),
              config_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket(AF_UNIX)");
  ::unlink(config_.socket_path.c_str());  // stale socket from a prior run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind(" + config_.socket_path + ")");
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    errno = saved;
    throw_errno("listen(" + config_.socket_path + ")");
  }
  pool_ = std::make_unique<common::ThreadPool>(config_.threads);
}

Server::~Server() {
  request_stop();
  wait();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(config_.socket_path.c_str());
}

void Server::serve_async() {
  SHIRAZ_REQUIRE(!accept_thread_.joinable(), "serve_async called twice");
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::serve() {
  serve_async();
  wait();
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // Drain connection futures; handle_connection never throws past its body.
  for (;;) {
    std::vector<std::future<void>> pending;
    {
      const std::lock_guard<std::mutex> lock(conn_mu_);
      pending.swap(connections_);
    }
    if (pending.empty()) break;
    for (auto& f : pending) f.wait();
  }
}

void Server::request_stop() {
  if (stopping_.exchange(true)) return;
  // shutdown() does not reliably wake a blocked accept() on a listening
  // AF_UNIX socket; a throwaway self-connect does. It must happen BEFORE
  // the shutdown below — connecting to an already-shut-down listener fails
  // with ECONNREFUSED and enqueues nothing, so accept() would sleep
  // forever. The accept loop sees stopping_ and closes what this hands it.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() < sizeof(addr.sun_path)) {
    std::memcpy(addr.sun_path, config_.socket_path.c_str(),
                config_.socket_path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
      ::close(fd);
    }
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  const std::lock_guard<std::mutex> lock(conn_mu_);
  for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
}

void Server::track(int fd) {
  const std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.insert(fd);
  connections_gauge_->add(1.0);
}

void Server::untrack(int fd) {
  const std::lock_guard<std::mutex> lock(conn_mu_);
  conn_fds_.erase(fd);
  connections_gauge_->add(-1.0);
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listen socket shut down (or broken) — stop accepting
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    track(fd);
    const std::lock_guard<std::mutex> lock(conn_mu_);
    // Prune finished connections so a long-lived daemon stays bounded.
    std::erase_if(connections_, [](std::future<void>& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    connections_.push_back(pool_->submit([this, fd] { handle_connection(fd); }));
  }
}

void Server::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, or request_stop shut the socket down
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      // subscribe stream lines flow straight to the client as the request
      // executes; a vanished peer just stops the stream (the response write
      // below then fails the same way and closes the connection).
      bool stream_ok = true;
      const Service::StreamSink sink = [fd, &stream_ok](const std::string& s) {
        if (!stream_ok) return;
        const std::string framed = s + "\n";
        stream_ok = write_all(fd, framed.data(), framed.size());
      };
      const Service::Result result = service_->handle_line(line, sink);
      const std::string out = result.response + "\n";
      if (!stream_ok || !write_all(fd, out.data(), out.size())) {
        open = false;
        break;
      }
      if (result.shutdown) {
        request_stop();  // flags + fd shutdowns only — safe on a pool worker
        open = false;
        break;
      }
    }
    buffer.erase(0, start);
    // A partial line past the cap is refused once, and the peer is hung up on.
    if (open && buffer.size() > kMaxRequestLineBytes) {
      const std::string out =
          error_response("request line exceeds " +
                         std::to_string(kMaxRequestLineBytes) + " bytes") +
          "\n";
      write_all(fd, out.data(), out.size());
      break;
    }
  }
  untrack(fd);
  ::close(fd);
}

}  // namespace shiraz::serve
