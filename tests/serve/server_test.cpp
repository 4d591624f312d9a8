// The socket daemon end to end: real AF_UNIX connections, concurrent
// clients, request ordering per connection, and shutdown semantics. The
// ServeServer suite runs under TSan in CI (see the -R filter in ci.yml).
#include "serve/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json_parse.h"
#include "serve/client.h"

namespace shiraz::serve {
namespace {

/// Unique socket path per test, cleaned up by the server's destructor.
std::string temp_socket(const std::string& tag) {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("shiraz_srv_" + tag + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock"))
      .string();
}

constexpr const char* kSolve =
    R"({"op":"solve_k","delta_lw_s":18,"delta_hw_s":1800})";

TEST(ServeServer, AnswersOverTheSocketByteIdenticalToTheService) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket("basic");
  cfg.threads = 2;
  Server server(cfg);
  server.serve_async();
  ASSERT_TRUE(wait_for_server(cfg.socket_path));

  Client client(cfg.socket_path);
  Service direct;
  for (const char* line :
       {kSolve, R"({"op":"oci","delta_s":60})",
        R"({"op":"checkpoint_now","delta_s":60,"since_ckpt_s":0})",
        R"({"op":"bogus"})"}) {
    EXPECT_EQ(client.request(line), direct.handle(line)) << line;
  }
  server.request_stop();
  server.wait();
}

TEST(ServeServer, ConcurrentClientsEachGetTheirOwnOrderedResponses) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket("concurrent");
  cfg.threads = 4;
  Server server(cfg);
  server.serve_async();
  ASSERT_TRUE(wait_for_server(cfg.socket_path));

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequests = 25;
  std::vector<std::vector<std::string>> responses(kClients);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client(cfg.socket_path);
        for (std::size_t i = 0; i < kRequests; ++i) {
          // Distinct id per request: the echoed id proves responses arrive
          // in request order on this connection, never cross-wired.
          const std::string line =
              R"({"op":"solve_k","id":)" + std::to_string(c * 1000 + i) +
              R"(,"delta_lw_s":18,"delta_hw_s":1800})";
          responses[c].push_back(client.request(line));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      const JsonValue doc = parse_json(responses[c][i]);
      EXPECT_TRUE(doc.at("ok").boolean);
      EXPECT_EQ(doc.at("id").number, static_cast<double>(c * 1000 + i));
    }
  }
  EXPECT_EQ(server.service().counters().solve_k, kClients * kRequests);
  server.request_stop();
  server.wait();
}

/// Client `c`'s request `i`: solve_k, oci, checkpoint_now and pair_whatif in
/// turn over four signatures every client shares, so the daemon's cache,
/// registry and whatif path see concurrent hits and misses. Whatif seeds
/// differ between clients on the same signature.
std::string mixed_line(std::size_t c, std::size_t i) {
  static const char* const kSignatures[] = {
      R"("mtbf_hours":5,"delta_lw_s":18,"delta_hw_s":1800)",
      R"("mtbf_hours":5,"delta_lw_s":72,"delta_hw_s":1800)",
      R"("mtbf_hours":20,"delta_lw_s":18,"delta_hw_s":1800)",
      R"("mtbf_hours":5,"delta_lw_s":36,"delta_hw_s":3600)",
  };
  const std::string sig = kSignatures[(c + i / 4) % std::size(kSignatures)];
  const std::string head = R"({"id":)" + std::to_string(c * 1000 + i) + ",";
  switch (i % 4) {
    case 0:
      return head + R"("op":"solve_k",)" + sig + "}";
    case 1:
      return head + R"("op":"oci","mtbf_hours":5,"delta_s":)" +
             std::to_string(600 * (1 + (c + i) % 3)) + "}";
    case 2:
      return head + R"("op":"checkpoint_now","mtbf_hours":5,"delta_s":60,)" +
             R"("since_ckpt_s":)" + std::to_string(900 * (i % 3)) + "}";
    default:
      return head + R"("op":"pair_whatif",)" + sig +
             R"(,"t_total_hours":100,"reps":2,"seed":)" +
             std::to_string(c + 1) + "}";
  }
}

TEST(ServeServer, ConcurrentMixedClientsMatchAFreshService) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket("mixed");
  cfg.threads = 4;
  Server server(cfg);
  server.serve_async();
  ASSERT_TRUE(wait_for_server(cfg.socket_path));

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequests = 16;
  std::vector<std::vector<std::string>> responses(kClients);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client(cfg.socket_path);
        for (std::size_t i = 0; i < kRequests; ++i) {
          responses[c].push_back(client.request(mixed_line(c, i)));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  server.request_stop();
  server.wait();

  // Each line is answered again by a Service of its own (empty cache, no
  // other request before it): a response must depend on its line alone.
  for (std::size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(), kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      const std::string line = mixed_line(c, i);
      EXPECT_NE(responses[c][i].find(R"("ok":true)"), std::string::npos)
          << line << " -> " << responses[c][i];
      EXPECT_EQ(responses[c][i], Service().handle(line)) << line;
    }
  }
  EXPECT_EQ(server.service().counters().pair_whatif, kClients * kRequests / 4);
}

TEST(ServeServer, ShutdownRequestStopsTheDaemon) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket("shutdown");
  Server server(cfg);
  server.serve_async();
  ASSERT_TRUE(wait_for_server(cfg.socket_path));

  Client client(cfg.socket_path);
  const JsonValue doc = parse_json(client.request(R"({"op":"shutdown"})"));
  EXPECT_TRUE(doc.at("ok").boolean);
  server.wait();  // returns because the shutdown op stopped the accept loop
  EXPECT_FALSE(wait_for_server(cfg.socket_path, /*timeout=*/0.05));
}

TEST(ServeServer, SocketFileIsRemovedOnDestruction) {
  const std::string path = temp_socket("cleanup");
  {
    Server server(ServerConfig{path, 1, {}});
    server.serve_async();
    ASSERT_TRUE(wait_for_server(path));
    server.request_stop();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeServer, UnbindableSocketThrowsIoError) {
  ServerConfig cfg;
  cfg.socket_path = "/nonexistent-dir/shiraz.sock";
  EXPECT_THROW(Server{cfg}, IoError);

  ServerConfig too_long;
  too_long.socket_path = std::string(200, 'x');
  EXPECT_THROW(Server{too_long}, IoError);
}

/// A bare AF_UNIX connection, for a byte stream the line Client never sends.
class RawSocket {
 public:
  explicit RawSocket(const std::string& path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    // A daemon that never answers or hangs up fails the test instead of
    // hanging it.
    const timeval timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  bool connected() const { return connected_; }

  /// Sends as much of `bytes` as the peer accepts; returns the count sent
  /// (short when the peer hangs up).
  std::size_t send_all(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    return sent;
  }

  /// Reads until the peer closes (or the timeout passes) and returns what
  /// arrived. A peer that closes with our bytes still unread reports
  /// ECONNRESET once before end of file; both mean closed.
  std::string read_until_closed() {
    std::string received;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return received;
      received.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  bool connected_ = false;
};

TEST(ServeServer, OversizedLineIsRefusedAndOthersAreServed) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket("oversized");
  cfg.threads = 2;
  Server server(cfg);
  server.serve_async();
  ASSERT_TRUE(wait_for_server(cfg.socket_path));
  Service direct;
  Client client(cfg.socket_path);

  // 2 MiB without a newline: one error line, then the daemon hangs up
  // without reading the rest.
  {
    RawSocket flood(cfg.socket_path);
    ASSERT_TRUE(flood.connected());
    const std::size_t sent =
        flood.send_all(std::string(2 * kMaxRequestLineBytes, 'x'));
    EXPECT_GT(sent, kMaxRequestLineBytes);
    const std::string reply = flood.read_until_closed();
    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(reply.find('\n'), reply.size() - 1) << "exactly one line";
    const JsonValue doc = parse_json(reply.substr(0, reply.size() - 1));
    EXPECT_FALSE(doc.at("ok").boolean);
    EXPECT_NE(doc.at("error").string.find("exceeds"), std::string::npos);
  }

  // The other client is served as usual.
  EXPECT_EQ(client.request(kSolve), direct.handle(kSolve));

  // A garbage line one byte under the cap is an ordinary request: the
  // normal parse error, and the connection stays open for the next line.
  const std::string garbage(kMaxRequestLineBytes - 1, 'x');
  EXPECT_EQ(client.request(garbage), direct.handle(garbage));
  EXPECT_EQ(client.request(kSolve), direct.handle(kSolve));
  server.request_stop();
  server.wait();
}

TEST(ServeServer, StaleSocketFileIsReplaced) {
  const std::string path = temp_socket("stale");
  {
    Server first(ServerConfig{path, 1, {}});
    first.serve_async();
    ASSERT_TRUE(wait_for_server(path));
    first.request_stop();
    first.wait();
  }
  // Simulate a crash leaving the file behind, then rebind over it.
  { FILE* f = std::fopen(path.c_str(), "w"); if (f) std::fclose(f); }
  Server second(ServerConfig{path, 1, {}});
  second.serve_async();
  ASSERT_TRUE(wait_for_server(path));
  Client client(path);
  EXPECT_NE(client.request(kSolve).find("\"ok\":true"), std::string::npos);
  second.request_stop();
  second.wait();
}

}  // namespace
}  // namespace shiraz::serve
