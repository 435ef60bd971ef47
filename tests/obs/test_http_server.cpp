// SocketServer behavior over real sockets: keep-alive with pipelining,
// arrival-order response writes under out-of-order async completion,
// Connection: close semantics (client-requested and server-policy),
// inline parse-error answers, idle timeouts, the dropped-ticket 500
// backstop, and a shutdown that cannot lose a parked worker's wakeup.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/http.hpp"
#include "obs/http_server.hpp"

namespace mev::obs::http {

/// Reaches SocketServer's private test seam.
struct SocketServerTestPeer {
  static void set_wait_predicate_hook(SocketServer& server,
                                      std::function<void()> hook) {
    server.wait_predicate_hook_ = std::move(hook);
  }
  /// Wakes every worker parked on the connection queue.
  static void notify_workers(SocketServer& server) {
    std::lock_guard<std::mutex> lock(server.queue_mutex_);
    server.queue_cv_.notify_all();
  }
};

}  // namespace mev::obs::http

namespace {

using mev::obs::http::format_response;
using mev::obs::http::Request;
using mev::obs::http::ResponseTicket;
using mev::obs::http::SocketServer;
using mev::obs::http::SocketServerConfig;
using mev::obs::http::SocketServerTestPeer;

constexpr const char* kText = "text/plain";

/// Minimal test client: blocking connect/send plus a Content-Length-aware
/// reader so pipelined responses can be split back apart.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send_raw(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads exactly one framed response (headers + Content-Length body);
  /// empty string on EOF/timeout.
  std::string read_response() {
    for (;;) {
      const std::size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::string headers = buffer_.substr(0, header_end + 4);
        std::size_t body_len = 0;
        const std::size_t cl = headers.find("Content-Length: ");
        if (cl != std::string::npos)
          body_len = static_cast<std::size_t>(
              std::stoul(headers.substr(cl + 16)));
        if (buffer_.size() >= header_end + 4 + body_len) {
          const std::string response =
              buffer_.substr(0, header_end + 4 + body_len);
          buffer_.erase(0, header_end + 4 + body_len);
          return response;
        }
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the server closed (EOF) with nothing further buffered.
  bool at_eof() {
    if (!buffer_.empty()) return false;
    char chunk[256];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    return n == 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

SocketServerConfig base_config() {
  SocketServerConfig config;
  config.port = 0;
  config.worker_threads = 2;
  config.io_timeout_ms = 3000;
  config.keep_alive = true;
  return config;
}

TEST(SocketServer, KeepAlivePipeliningServesManyRequestsPerConnection) {
  SocketServer server(base_config(),
                      [](Request&& request, ResponseTicket ticket) {
                        ticket.respond(format_response(
                            200, kText, std::string(request.path()) + "\n",
                            ticket.keep_alive(), {}));
                      });
  ASSERT_TRUE(server.start());
  Client client(server.port());
  ASSERT_TRUE(client.ok());
  // Three requests in ONE write: the parser must split them and the
  // responses must come back individually framed, in order.
  client.send_raw(
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n");
  for (const char* expected : {"/a", "/b", "/c"}) {
    const std::string response = client.read_response();
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find(std::string("\r\n\r\n") + expected + "\n"),
              std::string::npos)
        << response;
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
  }
  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests, 3u);
}

TEST(SocketServer, AsyncOutOfOrderCompletionWritesInArrivalOrder) {
  // The dispatcher parks every ticket; a separate thread completes them
  // in REVERSE order. The wire order must still match arrival order.
  std::mutex mutex;
  std::vector<std::pair<std::string, ResponseTicket>> parked;
  SocketServer server(base_config(),
                      [&](Request&& request, ResponseTicket ticket) {
                        std::lock_guard<std::mutex> lock(mutex);
                        parked.emplace_back(std::string(request.path()),
                                            std::move(ticket));
                      });
  ASSERT_TRUE(server.start());
  Client client(server.port());
  ASSERT_TRUE(client.ok());
  client.send_raw("GET /first HTTP/1.1\r\n\r\nGET /second HTTP/1.1\r\n\r\n");

  // Wait for both to be parked, then resolve second-then-first.
  for (int i = 0; i < 500; ++i) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (parked.size() == 2) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::thread resolver([&] {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(parked.size(), 2u);
    for (std::size_t i = parked.size(); i-- > 0;)
      parked[i].second.respond(format_response(
          200, kText, parked[i].first + "\n",
          parked[i].second.keep_alive(), {}));
  });
  resolver.join();

  EXPECT_NE(client.read_response().find("/first\n"), std::string::npos);
  EXPECT_NE(client.read_response().find("/second\n"), std::string::npos);
}

TEST(SocketServer, ClientConnectionCloseIsHonored) {
  SocketServer server(base_config(),
                      [](Request&&, ResponseTicket ticket) {
                        const bool keep = ticket.keep_alive();
                        ticket.respond(
                            format_response(200, kText, "ok\n", keep, {}));
                      });
  ASSERT_TRUE(server.start());
  Client client(server.port());
  ASSERT_TRUE(client.ok());
  client.send_raw("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::string response = client.read_response();
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(client.at_eof());
}

TEST(SocketServer, Http10DefaultsToClose) {
  SocketServer server(base_config(),
                      [](Request&&, ResponseTicket ticket) {
                        const bool keep = ticket.keep_alive();
                        ticket.respond(
                            format_response(200, kText, "ok\n", keep, {}));
                      });
  ASSERT_TRUE(server.start());
  Client client(server.port());
  ASSERT_TRUE(client.ok());
  client.send_raw("GET / HTTP/1.0\r\n\r\n");
  const std::string response = client.read_response();
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_TRUE(client.at_eof());
}

TEST(SocketServer, KeepAliveDisabledServesOneRequestPerConnection) {
  SocketServerConfig config = base_config();
  config.keep_alive = false;  // the admin plane's posture
  SocketServer server(std::move(config),
                      [](Request&& request, ResponseTicket ticket) {
                        ticket.respond(format_response(
                            200, kText, std::string(request.path()) + "\n",
                            ticket.keep_alive(), {}));
                      });
  ASSERT_TRUE(server.start());
  Client client(server.port());
  ASSERT_TRUE(client.ok());
  // Two pipelined requests: only the first is served, then close.
  client.send_raw("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  const std::string response = client.read_response();
  EXPECT_NE(response.find("/a\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_EQ(client.read_response(), "");  // EOF: /b never answered
}

TEST(SocketServer, ParseErrorsAnswerInlineAndClose) {
  SocketServer server(base_config(),
                      [](Request&&, ResponseTicket ticket) {
                        ticket.respond(
                            format_response(200, kText, "ok\n", true, {}));
                      });
  ASSERT_TRUE(server.start());
  Client client(server.port());
  ASSERT_TRUE(client.ok());
  client.send_raw("total garbage\r\n\r\n");
  const std::string response = client.read_response();
  EXPECT_NE(response.find("HTTP/1.1 400 Bad Request"), std::string::npos);
  EXPECT_TRUE(client.at_eof());
  EXPECT_EQ(server.stats().parse_errors, 1u);
}

TEST(SocketServer, DroppedTicketAnswers500NotAWedgedConnection) {
  SocketServer server(base_config(),
                      [](Request&&, ResponseTicket ticket) {
                        // Dispatcher "forgets" to respond; the ticket's
                        // destructor must answer so the client unblocks.
                        ResponseTicket dropped = std::move(ticket);
                      });
  ASSERT_TRUE(server.start());
  Client client(server.port());
  ASSERT_TRUE(client.ok());
  client.send_raw("GET / HTTP/1.1\r\n\r\n");
  const std::string response = client.read_response();
  EXPECT_NE(response.find("HTTP/1.1 500 Internal Server Error"),
            std::string::npos);
}

TEST(SocketServer, IdleKeepAliveConnectionsTimeOut) {
  SocketServerConfig config = base_config();
  config.io_timeout_ms = 200;
  SocketServer server(std::move(config),
                      [](Request&&, ResponseTicket ticket) {
                        ticket.respond(
                            format_response(200, kText, "ok\n", true, {}));
                      });
  ASSERT_TRUE(server.start());
  Client client(server.port());
  ASSERT_TRUE(client.ok());
  // Send nothing: the server must hang up on its own.
  EXPECT_TRUE(client.at_eof());
}

TEST(SocketServer, StartStopIsIdempotentAndResolvesEphemeralPorts) {
  SocketServer server(base_config(),
                      [](Request&&, ResponseTicket ticket) {
                        ticket.respond(
                            format_response(200, kText, "ok\n", false, {}));
                      });
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);
  EXPECT_TRUE(server.start());
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  server.stop();
}

TEST(SocketServer, StopWakesAWorkerCaughtInsideItsWaitPredicate) {
  // Lost-wakeup regression. The hook holds the only worker inside its
  // first queue-wait predicate — state already read as "running, nothing
  // queued", queue lock held — while stop() runs. A stop() that flips
  // running_ without the queue lock lands in that window and notifies
  // before the worker blocks, so the worker sleeps forever and stop()
  // hangs joining it. Flipping under the lock makes stop() wait until the
  // worker is parked, and the notify then reaches it.
  using namespace std::chrono_literals;
  SocketServerConfig config = base_config();
  config.worker_threads = 1;
  SocketServer server(std::move(config), [](Request&&, ResponseTicket) {});
  std::promise<void> in_window;
  std::atomic<bool> armed{true};
  std::atomic<bool> stop_called{false};
  SocketServerTestPeer::set_wait_predicate_hook(server, [&] {
    if (!armed.exchange(false)) return;
    in_window.set_value();
    while (!stop_called.load()) std::this_thread::yield();
    // An unlocked flip shows up here; a locked one cannot while we hold
    // the queue lock, so give up on it after a short while.
    const auto deadline = std::chrono::steady_clock::now() + 100ms;
    while (server.running() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    // Let an unlocked stop() reach its notify before this worker parks.
    if (!server.running()) std::this_thread::sleep_for(50ms);
  });
  ASSERT_TRUE(server.start());
  in_window.get_future().wait();

  auto stopped = std::async(std::launch::async, [&] {
    stop_called.store(true);
    server.stop();
  });
  if (stopped.wait_for(5s) != std::future_status::ready) {
    SocketServerTestPeer::notify_workers(server);  // unwedge, then fail
    stopped.wait();
    FAIL() << "stop() hung: the worker missed the shutdown wakeup";
  }
  EXPECT_FALSE(server.running());
}

TEST(SocketServer, LateResponseAfterStopIsHarmless) {
  // A completion callback may fire after the connection — or the whole
  // server — is gone; respond() must be a safe no-op then.
  ResponseTicket parked;
  std::atomic<bool> got{false};
  SocketServerConfig config = base_config();
  config.io_timeout_ms = 200;  // bounds the shutdown drain wait
  auto server = std::make_unique<SocketServer>(
      std::move(config), [&](Request&&, ResponseTicket ticket) {
        parked = std::move(ticket);
        got.store(true);
      });
  ASSERT_TRUE(server->start());
  {
    Client client(server->port());
    ASSERT_TRUE(client.ok());
    client.send_raw("GET / HTTP/1.1\r\n\r\n");
    for (int i = 0; i < 500 && !got.load(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(got.load());
  }
  server->stop();
  server.reset();
  parked.respond(format_response(200, kText, "too late\n", false, {}));
}

}  // namespace
