#include "obs/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace mev::obs::http {

namespace {

constexpr const char* kTextPlain = "text/plain; charset=utf-8";

/// Writes `size` bytes, tolerating partial sends; MSG_NOSIGNAL so a
/// client that hangs up mid-response does not SIGPIPE the process.
/// Returns false when the connection is unwritable.
bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;  // timeout, reset, or shutdown
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

/// HTTP/1.1 defaults to keep-alive; HTTP/1.0 defaults to close. An
/// explicit Connection header wins either way.
bool client_wants_keep_alive(const Request& request) noexcept {
  const std::string* connection = request.header("Connection");
  if (connection != nullptr) {
    if (iequals(*connection, "close")) return false;
    if (iequals(*connection, "keep-alive")) return true;
  }
  return request.version != "HTTP/1.0";
}

}  // namespace

/// One connection's shared signaling state: the worker waits on `cv` for
/// the head-of-line response; completion callbacks (any thread) flip a
/// slot ready and notify. Held by shared_ptr from every outstanding slot
/// so a late respond() after the connection died stays safe.
struct ConnState {
  std::mutex mutex;
  std::condition_variable cv;
};

struct ResponseTicket::Slot {
  std::shared_ptr<ConnState> conn;
  std::string response;
  bool ready = false;
  bool close_after = false;
};

ResponseTicket::~ResponseTicket() {
  if (slot_ != nullptr)
    respond(format_response(500, kTextPlain, "internal server error\n",
                            /*keep_alive=*/false, {}));
}

void ResponseTicket::respond(std::string raw_response) noexcept {
  if (slot_ == nullptr) return;  // already responded (or default ticket)
  const std::shared_ptr<Slot> slot = std::move(slot_);
  {
    std::lock_guard<std::mutex> lock(slot->conn->mutex);
    slot->response = std::move(raw_response);
    slot->ready = true;
  }
  slot->conn->cv.notify_all();
}

SocketServer::SocketServer(SocketServerConfig config, Dispatch dispatch)
    : config_(std::move(config)),
      dispatch_(std::move(dispatch)),
      logger_(config_.logger != nullptr ? config_.logger
                                        : &default_logger()) {
  if (config_.worker_threads == 0) config_.worker_threads = 1;
  if (config_.max_queued_connections == 0) config_.max_queued_connections = 1;
  if (config_.max_pipeline == 0) config_.max_pipeline = 1;
}

SocketServer::~SocketServer() { stop(); }

bool SocketServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    MEV_LOG(*logger_, LogLevel::kError, config_.log_component,
            "socket() failed", {LogField::i64_value("errno", errno)});
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    MEV_LOG(*logger_, LogLevel::kError, config_.log_component,
            "bad bind address",
            {LogField::string("address", config_.bind_address.c_str())});
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    MEV_LOG(*logger_, LogLevel::kError, config_.log_component,
            "bind/listen failed",
            {LogField::string("address", config_.bind_address.c_str()),
             LogField::u64_value("port", config_.port),
             LogField::i64_value("errno", errno)});
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0)
    bound_port_ = ntohs(bound.sin_port);

  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });

  MEV_LOG(*logger_, LogLevel::kInfo, config_.log_component, "server started",
          {LogField::string("address", config_.bind_address.c_str()),
           LogField::u64_value("port", bound_port_),
           LogField::u64_value("workers", config_.worker_threads),
           LogField::u64_value("keep_alive", config_.keep_alive ? 1 : 0)});
  return true;
}

void SocketServer::stop() {
  {
    // Flip under the queue lock: a worker between its wait predicate and
    // blocking holds this lock, so the flip cannot land in that window and
    // the notify below cannot be lost.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  }
  // Wake a blocked accept(); the fd itself is closed only after the
  // accept thread is joined, so it can never race onto a recycled fd.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Shed anything still queued; every accepted fd is closed exactly once.
  std::lock_guard<std::mutex> lock(queue_mutex_);
  for (int fd : pending_fds_) ::close(fd);
  pending_fds_.clear();
  MEV_LOG(*logger_, LogLevel::kInfo, config_.log_component, "server stopped",
          {LogField::u64_value("port", bound_port_)});
}

SocketServer::Stats SocketServer::stats() const noexcept {
  Stats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_shed = shed_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  return stats;
}

void SocketServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (!running_.load(std::memory_order_acquire)) break;
    if (ready <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // Responses are small (one JSON verdict batch); never let Nagle hold
    // them hostage to the client's ACK cadence.
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (pending_fds_.size() >= config_.max_queued_connections)
        shed = true;
      else
        pending_fds_.push_back(conn);
    }
    if (shed) {
      // Bounded model: close unserved rather than queue without limit.
      ::close(conn);
      shed_.fetch_add(1, std::memory_order_relaxed);
      config_.shed_counter.inc();
      MEV_LOG_EVERY(*logger_, LogLevel::kWarn, /*rate_per_s=*/1.0,
                    /*burst=*/3.0, config_.log_component,
                    "connection shed: queue full",
                    {LogField::u64_value("max_queued",
                                         config_.max_queued_connections)});
    } else {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      queue_cv_.notify_one();
    }
  }
}

void SocketServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        const bool wake = !pending_fds_.empty() ||
                          !running_.load(std::memory_order_acquire);
        if (wait_predicate_hook_) wait_predicate_hook_();
        return wake;
      });
      if (pending_fds_.empty()) return;  // stopping and drained
      fd = pending_fds_.front();
      pending_fds_.pop_front();
    }
    serve_connection(fd);
  }
}

void SocketServer::serve_connection(int fd) {
  timeval timeout{};
  timeout.tv_sec = static_cast<time_t>(config_.io_timeout_ms / 1000);
  timeout.tv_usec =
      static_cast<suseconds_t>((config_.io_timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  const auto conn = std::make_shared<ConnState>();
  // Outstanding requests in arrival order; only the worker mutates the
  // deque (under conn->mutex because respond() reads slots concurrently).
  std::deque<std::shared_ptr<ResponseTicket::Slot>> pending;
  RequestParser parser(config_.limits);
  char buffer[8192];
  bool stop_reading = false;  // EOF, close-after response, error, shutdown
  bool write_failed = false;
  std::uint64_t drain_wait_ms = 0;  // time spent stalled during shutdown

  const auto pending_size = [&] {
    std::lock_guard<std::mutex> lock(conn->mutex);
    return pending.size();
  };

  // Writes every ready head-of-line response, preserving arrival order
  // even when the service completed them out of order.
  const auto flush_ready = [&] {
    for (;;) {
      std::shared_ptr<ResponseTicket::Slot> slot;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (pending.empty() || !pending.front()->ready) return;
        slot = pending.front();
        pending.pop_front();
      }
      if (!write_failed)
        write_failed = !send_all(fd, slot->response.data(),
                                 slot->response.size());
      responses_.fetch_add(1, std::memory_order_relaxed);
      if (slot->close_after) stop_reading = true;
    }
  };

  // Parses everything in [data, data+n): complete requests are dispatched
  // with a ticket; a parse error answers inline and poisons the
  // connection (framing is unrecoverable after a bad request).
  const auto handle_bytes = [&](const char* data, std::size_t n) {
    std::size_t offset = 0;
    while (offset < n && !stop_reading) {
      offset += parser.feed(data + offset, n - offset);
      if (parser.status() == ParseStatus::kComplete) {
        requests_.fetch_add(1, std::memory_order_relaxed);
        Request request = parser.take_request();
        parser.reset();
        const bool keep =
            config_.keep_alive && client_wants_keep_alive(request) &&
            running_.load(std::memory_order_acquire);
        auto slot = std::make_shared<ResponseTicket::Slot>();
        slot->conn = conn;
        slot->close_after = !keep;
        if (!keep) stop_reading = true;
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          pending.push_back(slot);
        }
        dispatch_(std::move(request), ResponseTicket(std::move(slot), keep));
      } else if (parser.status() == ParseStatus::kError) {
        parse_errors_.fetch_add(1, std::memory_order_relaxed);
        config_.parse_error_counter.inc();
        const int status = parser.error_status();
        auto slot = std::make_shared<ResponseTicket::Slot>();
        slot->conn = conn;
        slot->close_after = true;
        slot->ready = true;
        slot->response = format_response(
            status, kTextPlain, std::string(status_text(status)) + "\n",
            /*keep_alive=*/false, {});
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          pending.push_back(slot);
        }
        stop_reading = true;
      }
    }
  };

  for (;;) {
    flush_ready();
    if (write_failed) break;
    const std::size_t outstanding = pending_size();
    if (stop_reading && outstanding == 0) break;
    if (!running_.load(std::memory_order_acquire)) stop_reading = true;

    if (!stop_reading && outstanding < config_.max_pipeline) {
      // Read side. With responses outstanding, poll without blocking so
      // their completion is never delayed by a quiet socket; when idle,
      // chunk the wait so stop() is honored promptly.
      int ready = 0;
      if (outstanding > 0) {
        pollfd pfd{fd, POLLIN, 0};
        ready = ::poll(&pfd, 1, 0);
      } else {
        std::uint64_t waited_ms = 0;
        while (waited_ms < config_.io_timeout_ms &&
               running_.load(std::memory_order_acquire)) {
          pollfd pfd{fd, POLLIN, 0};
          const std::uint64_t chunk_ms =
              std::min<std::uint64_t>(100, config_.io_timeout_ms - waited_ms);
          ready = ::poll(&pfd, 1, static_cast<int>(chunk_ms));
          if (ready != 0) break;
          waited_ms += chunk_ms;
        }
        if (ready == 0) break;  // idle keep-alive timeout (or shutdown)
      }
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (ready > 0) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) {
          // EOF or error: drain what's pending, then close. A client may
          // legitimately half-close after pipelining its requests.
          stop_reading = true;
        } else {
          handle_bytes(buffer, static_cast<std::size_t>(n));
        }
        continue;
      }
    }
    if (outstanding > 0) {
      // Wait for the head-of-line response; bounded so read-side progress
      // (pipelined bytes already in the socket) is re-checked regularly.
      std::unique_lock<std::mutex> lock(conn->mutex);
      const bool head_ready =
          conn->cv.wait_for(lock, std::chrono::milliseconds(50), [&] {
            return !pending.empty() && pending.front()->ready;
          });
      if (!running_.load(std::memory_order_acquire)) {
        // Shutdown drain is bounded: a dispatcher that never resolves its
        // ticket must not wedge stop(). Abandoning the connection is safe
        // — a late respond() lands in a detached slot and is dropped.
        if (head_ready)
          drain_wait_ms = 0;
        else if ((drain_wait_ms += 50) >= config_.io_timeout_ms)
          break;
      }
    }
  }
  ::close(fd);
}

}  // namespace mev::obs::http
