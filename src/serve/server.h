// The shirazctl serve daemon: a Unix-domain socket front end for Service.
//
// One accept thread hands each connection to a common::ThreadPool worker;
// the worker reads newline-delimited requests, answers each through
// Service::handle_line, and writes one response line per request, in order.
// A partial line longer than kMaxRequestLineBytes is refused with one error
// response and the connection closes.
// A `shutdown` request (or Server::request_stop) stops the accept loop and
// shuts down every live connection's socket, so blocked reads return and
// workers drain promptly. request_stop only flips flags and shuts down file
// descriptors — it is safe to call from a pool worker (the shutdown op's
// path); the joins happen in wait() / the destructor on the owning thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "serve/service.h"

namespace shiraz::obs {
class Gauge;
}  // namespace shiraz::obs

namespace shiraz::serve {

/// Longest partial request line a connection may buffer. A client that sends
/// more than this without a newline gets one error response, and then the
/// connection closes, so no client can grow the daemon's memory without bound.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct ServerConfig {
  /// Path of the Unix-domain socket to bind. Required; at most ~100 bytes
  /// (sockaddr_un limit). A stale file at the path is unlinked first.
  std::string socket_path;
  /// Worker threads answering requests (concurrent connections served).
  std::size_t threads = 4;
  ServiceConfig service;
};

class Server {
 public:
  /// Binds and listens; throws IoError if the socket cannot be created
  /// (path too long, directory missing or unwritable, ...). Connections are
  /// accepted once serve_async() (or serve()) starts the accept loop.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Starts the accept thread and returns immediately.
  void serve_async();

  /// serve_async() + wait(): runs until a shutdown request arrives.
  void serve();

  /// Blocks until the accept loop has stopped and all connections drained.
  void wait();

  /// Stops accepting, unblocks every live connection. Idempotent;
  /// async-signal-unsafe but thread-safe, callable from pool workers.
  void request_stop();

  const std::string& socket_path() const { return config_.socket_path; }
  Service& service() { return *service_; }

 private:
  void accept_loop();
  void handle_connection(int fd);
  void track(int fd);
  void untrack(int fd);

  ServerConfig config_;
  std::unique_ptr<Service> service_;
  obs::Gauge* connections_gauge_ = nullptr;  ///< owned by the service registry
  std::unique_ptr<common::ThreadPool> pool_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conn_mu_;               ///< guards conn_fds_
  std::set<int> conn_fds_;           ///< live connection sockets
  std::vector<std::future<void>> connections_;  ///< guarded by conn_mu_
};

}  // namespace shiraz::serve
