// Shared HTTP/1.1 socket server: the one socket-handling implementation
// behind both the admin plane (obs::AdminServer) and the scoring frontend
// (net::ScoringFrontend). Model:
//
//   * one accept thread multiplexing on poll(), a BOUNDED connection
//     queue, and a small worker pool; when the queue is full new
//     connections are shed (closed) immediately and counted — an embedded
//     server must never become a memory or latency liability.
//   * each worker owns one connection at a time and runs its read/write
//     loop: bytes feed an incremental http::RequestParser; every complete
//     request is handed to the dispatcher together with a ResponseTicket.
//   * the dispatcher may resolve the ticket inline (synchronous routing,
//     the admin plane) or from another thread later (the scoring service's
//     completion callback). The connection loop writes responses strictly
//     in request arrival order, so HTTP/1.1 pipelining stays coherent even
//     when the micro-batcher completes requests out of order.
//   * keep-alive is a server-level policy: when enabled, connections
//     persist across requests (honoring `Connection: close` and HTTP/1.0
//     semantics); when disabled every response closes (the admin plane's
//     connection-per-request model). At most `max_pipeline` requests per
//     connection are in flight before the loop stops reading — the
//     socket's own backpressure then reaches the client.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/http.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace mev::obs::http {

struct SocketServerConfig {
  /// TCP port to bind; 0 = kernel-assigned (read back from port()).
  std::uint16_t port = 0;
  /// Loopback by default: embedded planes are operator surfaces.
  std::string bind_address = "127.0.0.1";
  /// Worker threads; each serves one connection at a time.
  std::size_t worker_threads = 2;
  /// Accepted-but-unserved connections held at once; beyond this new
  /// connections are shed (closed) immediately.
  std::size_t max_queued_connections = 16;
  /// Per-connection receive/send timeout, and the idle keep-alive window:
  /// a connection with no pending work and no bytes for this long closes.
  std::uint64_t io_timeout_ms = 2000;
  /// Server-level keep-alive policy. false = every response advertises
  /// and performs Connection: close.
  bool keep_alive = false;
  /// Requests in flight per connection before the loop stops reading.
  std::size_t max_pipeline = 32;
  /// Parser limits (body cap, header caps) for every connection.
  ParserLimits limits;
  /// Log component tag, e.g. "obs.admin" or "net.http".
  const char* log_component = "obs.http";
  /// Sink for lifecycle/shed logs; nullptr = obs::default_logger().
  Logger* logger = nullptr;
  /// Optional metric handles (inert when default-constructed).
  Counter shed_counter;         // connections closed unserved (queue full)
  Counter parse_error_counter;  // requests answered from a parser error
};

/// Per-connection signaling state (mutex + condvar); defined in the .cpp.
struct ConnState;

/// The write half of one in-flight request. Handed to the dispatcher;
/// respond() may be called exactly once, from any thread, at any time —
/// including after the connection (or the whole server) has gone away, in
/// which case the response is silently dropped. A ticket destroyed
/// without responding answers 500 so the connection can never wedge.
class ResponseTicket {
 public:
  ResponseTicket() = default;
  ResponseTicket(ResponseTicket&&) noexcept = default;
  ResponseTicket& operator=(ResponseTicket&&) noexcept = default;
  ResponseTicket(const ResponseTicket&) = delete;
  ResponseTicket& operator=(const ResponseTicket&) = delete;
  ~ResponseTicket();

  /// Whether the connection stays open after this response; format the
  /// response's Connection header to match.
  bool keep_alive() const noexcept { return keep_alive_; }

  /// Delivers the full serialized response (status line through body).
  void respond(std::string raw_response) noexcept;

 private:
  friend class SocketServer;
  struct Slot;
  ResponseTicket(std::shared_ptr<Slot> slot, bool keep_alive) noexcept
      : slot_(std::move(slot)), keep_alive_(keep_alive) {}

  std::shared_ptr<Slot> slot_;
  bool keep_alive_ = false;
};

class SocketServer {
 public:
  /// Invoked on a worker thread for every complete request. The ticket
  /// must eventually be responded to (its destructor answers 500
  /// otherwise); holding it past the dispatcher return is the async path.
  using Dispatch = std::function<void(Request&&, ResponseTicket)>;

  SocketServer(SocketServerConfig config, Dispatch dispatch);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, spawns accept/worker threads. False (with an error
  /// log) when the socket cannot be bound; the process keeps running.
  bool start();

  /// Closes the listener, stops reading new requests, waits for pending
  /// responses to resolve, joins all threads. Idempotent.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound TCP port; 0 when not started.
  std::uint16_t port() const noexcept {
    return running() ? bound_port_ : 0;
  }

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_shed = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t parse_errors = 0;
  };
  Stats stats() const noexcept;

 private:
  friend struct SocketServerTestPeer;

  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);

  SocketServerConfig config_;
  Dispatch dispatch_;
  Logger* logger_;

  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> parse_errors_{0};

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_fds_;
  /// Test seam, set only before start(): runs inside the workers' queue
  /// wait predicate, after it has read the queue state and with
  /// queue_mutex_ held.
  std::function<void()> wait_predicate_hook_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace mev::obs::http
