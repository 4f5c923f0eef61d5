// The sharded epoll event loop behind Server (docs/SERVICE.md "I/O plane"),
// and the Server members that own it.
//
// Topology: one acceptor thread (blocking accept on the listener, so
// begin_drain keeps its close-the-listener semantics) hands each new
// connection — made non-blocking, TCP_NODELAY — to a reactor shard chosen
// round-robin.  Each shard owns its connections exclusively: an
// edge-triggered epoll instance, an eventfd for cross-thread wakeups, and
// an inbox (mutex + vectors) through which the acceptor delivers fds and
// the offload pool delivers completed responses.  Nothing else ever touches
// a connection, so per-connection state needs no locks.
//
// Data path per connection:
//   read until EAGAIN -> incremental '\n' framing into a request queue ->
//   serve queue head: overlong lines answer protocol_error, fast_handler
//   answers inline (ping / cache hits), everything else is offloaded to the
//   handler pool (at most ONE in flight per connection — the line protocol
//   promises in-order responses) -> responses append to a coalesced output
//   buffer flushed until EAGAIN, with EPOLLOUT (edge) re-arming the flush.
//   A connection whose un-flushed output exceeds max_output_bytes is a slow
//   consumer and is disconnected (counted) instead of growing the heap.
//
// Fault injection (chaos tests) fires on every non-blocking read/write, as
// the blocking LineChannel fires per syscall: kDrop closes the connection,
// a clamped length makes a short read/write, injected sleeps stall the
// shard.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netemu/faultline/injector.hpp"
#include "netemu/scope/metrics.hpp"
#include "netemu/service/protocol.hpp"
#include "netemu/service/server.hpp"
#include "netemu/util/thread_pool.hpp"

namespace netemu {

namespace {

using SteadyClock = std::chrono::steady_clock;

scope::Gauge& connections_gauge() {
  static scope::Gauge& g = scope::Registry::global().gauge(
      "netemu_connections_open", "Live connections across all I/O shards");
  return g;
}

scope::Counter& backpressure_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_backpressure_disconnects_total",
      "Connections dropped because pending output exceeded the cap");
  return c;
}

scope::Histogram& request_us_hist() {
  static scope::Histogram& h = scope::Registry::global().histogram(
      "netemu_io_request_us",
      "Request-to-response latency on the I/O plane (framing to enqueue)");
  return h;
}

double micros_since(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
      .count();
}

/// Bind + listen on 127.0.0.1:options.port, resolve the actual port into
/// *port.  Returns the listening fd, or -1 with *error / *errno_out
/// describing the failing syscall.
int listen_loopback(const Server::Options& options, std::uint16_t* port,
                    std::string* error, int* errno_out) {
  const auto fail = [&](int fd, const std::string& msg) {
    if (errno_out) *errno_out = errno;
    if (error) *error = msg + ": " + std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return -1;
  };

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail(fd, "socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail(fd, "bind 127.0.0.1:" + std::to_string(options.port));
  }
  if (::listen(fd, options.backlog) < 0) return fail(fd, "listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return fail(fd, "getsockname");
  }
  *port = ntohs(addr.sin_port);
  if (error) error->clear();
  if (errno_out) *errno_out = 0;
  return fd;
}

/// Peer tag for a connected socket: "ip:port" via getpeername, or
/// "conn-<fd>" when the syscall fails.
std::string peer_tag(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
      addr.sin_family == AF_INET) {
    char ip[INET_ADDRSTRLEN] = {};
    if (::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip))) {
      return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
    }
  }
  return "conn-" + std::to_string(fd);
}

}  // namespace

class Server::Reactor {
 public:
  /// The owning Server outlives its reactor; its handler and options are
  /// fixed after construction.
  explicit Reactor(Server& owner)
      : owner_(owner), handler_(owner.handler_), options_(owner.options_) {}

  ~Reactor() { stop(); }

  /// Bind + listen + spawn threads.  On failure: false, *error set (when
  /// non-null), *errno_out = failing syscall's errno.
  bool start(std::string* error, int* errno_out) {
    const int fd = listen_loopback(options_, &port_, error, errno_out);
    if (fd < 0) return false;
    listen_fd_.store(fd);
    stopping_.store(false);  // from here on, stop() owns cleanup

    std::size_t shards = options_.io_threads;
    if (shards == 0) {
      shards = std::max(1u, std::thread::hardware_concurrency());
    }
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      auto shard = std::make_unique<Shard>();
      shard->epoll_fd = ::epoll_create1(0);
      shard->wake_fd = ::eventfd(0, EFD_NONBLOCK);
      if (shard->epoll_fd < 0 || shard->wake_fd < 0) {
        if (errno_out) *errno_out = errno;
        if (error) {
          *error = std::string(shard->epoll_fd < 0 ? "epoll_create1"
                                                   : "eventfd") +
                   ": " + std::strerror(errno);
        }
        shards_.push_back(std::move(shard));  // stop() closes the partial set
        stop();
        return false;
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = shard->wake_fd;
      ::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->wake_fd, &ev);
      // Per-shard loop histogram: a hot or stalled shard (a blocking
      // fast_handler, a fault-injected sleep) shows up as its own tail.
      shard->loop_us = &scope::Registry::global().histogram(
          "netemu_io_loop_us_shard" + std::to_string(s),
          "Event-loop iteration time (work, not epoll_wait idle) on shard " +
              std::to_string(s));
      shards_.push_back(std::move(shard));
    }

    // Threads running the handler for requests the fast path did not
    // answer.  The handler underneath (executor admission gate, fleet
    // backends) bounds real concurrency; this only has to exceed it.
    offload_pool_ = std::make_unique<ThreadPool>(
        std::max<std::size_t>(8, 2 * std::thread::hardware_concurrency()));

    for (auto& shard : shards_) {
      Shard* s = shard.get();
      s->thread = std::thread([this, s] { shard_loop(*s); });
    }
    accept_thread_ = std::thread([this] { accept_loop(); });
    return true;
  }

  std::uint16_t port() const { return port_; }

  /// Close the listener only; live connections keep serving.  Idempotent.
  void begin_drain() {
    const int fd = listen_fd_.exchange(-1);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
  }

  /// Full stop: close everything, join every thread.  Idempotent.
  void stop() {
    if (stopping_.exchange(true)) return;
    begin_drain();  // close the listener; the acceptor exits
    if (accept_thread_.joinable()) accept_thread_.join();
    for (auto& shard : shards_) {
      if (shard->thread.joinable()) {
        wake(*shard);  // stopping_ is set; the loop exits on wake
        shard->thread.join();
      }
    }
    // Handlers still running on the pool post completions into inboxes that
    // no shard will read again; they are dropped when the shard (and its
    // queued strings) are destroyed below.
    if (offload_pool_) offload_pool_->shutdown();
    for (auto& shard : shards_) {
      for (auto& [fd, conn] : shard->conns) {
        ::close(fd);
        connections_gauge().add(-1.0);
      }
      shard->conns.clear();
      // Accepted fds the shard never got to register.
      for (const int fd : shard->incoming) ::close(fd);
      shard->incoming.clear();
      if (shard->wake_fd >= 0) ::close(shard->wake_fd);
      if (shard->epoll_fd >= 0) ::close(shard->epoll_fd);
    }
  }

 private:
  /// One request framed out of the input buffer, waiting for its response.
  struct PendingRequest {
    std::string line;
    bool overlong = false;  ///< exceeded max_line; answers protocol_error
    SteadyClock::time_point framed_at;
  };

  struct Conn {
    std::uint64_t gen = 0;  ///< guards completions against fd reuse
    std::string peer;       ///< "ip:port" tag (guard client identity)
    std::string in;         ///< unparsed input tail
    bool discarding = false;  ///< inside an overlong line, pre-newline
    std::deque<PendingRequest> requests;
    bool offload_in_flight = false;
    SteadyClock::time_point offload_framed_at;
    std::string out;            ///< coalesced responses
    std::size_t out_pos = 0;    ///< flushed prefix of `out`
    bool read_closed = false;   ///< peer half-closed (EOF seen)
    bool close_after_flush = false;
    bool shutdown_after_flush = false;  ///< handler requested server stop
  };

  struct Completion {
    int fd = -1;
    std::uint64_t gen = 0;
    std::string response;
    bool shutdown = false;
  };

  struct Shard {
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    scope::Histogram* loop_us = nullptr;

    std::mutex inbox_mutex;
    std::vector<int> incoming;  ///< fds from the acceptor
    std::vector<Completion> completions;
    /// True while an eventfd wake is already pending and undrained —
    /// producers skip the redundant write syscall (connection storms post
    /// thousands of inbox items; one wakeup drains them all).
    std::atomic<bool> wake_pending{false};

    // Owned by the shard thread only (no locks): fd -> connection.
    // unique_ptr keeps Conn* stable across rehashes.
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::uint64_t next_gen = 1;
  };

  void wake(Shard& shard) {
    if (shard.wake_pending.exchange(true, std::memory_order_acq_rel)) {
      return;  // an undrained wake is already in flight
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n =
        ::write(shard.wake_fd, &one, sizeof(one));  // EAGAIN (full) is fine
  }

  void accept_loop() {
    std::size_t next_shard = 0;
    for (;;) {
      const int listen_fd = listen_fd_.load();
      if (listen_fd < 0) return;
      // accept4 delivers the fd already non-blocking: two fcntl syscalls
      // fewer per connection than accept + F_GETFL/F_SETFL, which a
      // connection storm turns into a measurable accept-rate difference.
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener closed (drain/stop) or fatal: stop accepting
      }
      if (stopping_.load()) {
        ::close(fd);
        return;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Shard& shard = *shards_[next_shard];
      next_shard = (next_shard + 1) % shards_.size();
      {
        std::lock_guard lock(shard.inbox_mutex);
        shard.incoming.push_back(fd);
      }
      wake(shard);
    }
  }

  void shard_loop(Shard& shard) {
    constexpr int kMaxEvents = 128;
    epoll_event events[kMaxEvents];
    while (!stopping_.load()) {
      const int n = ::epoll_wait(shard.epoll_fd, events, kMaxEvents, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;  // epoll fd gone: shutting down
      }
      const auto t0 = SteadyClock::now();
      bool woken = false;
      // Socket events first, inbox last: a connection closed in this batch
      // frees its fd, and a new accept may reuse the number — registering
      // newcomers after all socket events keeps stale events from aliasing
      // onto them (completions are additionally generation-checked).
      for (int i = 0; i < n; ++i) {
        if (events[i].data.fd == shard.wake_fd) {
          woken = true;
          continue;
        }
        on_socket_event(shard, events[i].data.fd, events[i].events);
      }
      if (woken) drain_inbox(shard);
      shard.loop_us->observe(micros_since(t0));
    }
  }

  void drain_inbox(Shard& shard) {
    std::uint64_t drained = 0;
    [[maybe_unused]] ssize_t r =
        ::read(shard.wake_fd, &drained, sizeof(drained));
    // Clear BEFORE swapping: a producer that enqueues after the swap must
    // see the flag down and raise a fresh wake; one that enqueued before it
    // is picked up by this very swap, so its skipped write loses nothing.
    shard.wake_pending.store(false, std::memory_order_release);
    std::vector<int> incoming;
    std::vector<Completion> completions;
    {
      std::lock_guard lock(shard.inbox_mutex);
      incoming.swap(shard.incoming);
      completions.swap(shard.completions);
    }
    for (Completion& c : completions) on_completion(shard, c);
    for (const int fd : incoming) register_conn(shard, fd);
  }

  void register_conn(Shard& shard, int fd) {
    auto conn = std::make_unique<Conn>();
    conn->gen = shard.next_gen++;
    conn->peer = peer_tag(fd);
    Conn* c = conn.get();
    shard.conns.emplace(fd, std::move(conn));
    epoll_event ev{};
    // Registered once with both directions, edge-triggered: EPOLLOUT edges
    // only fire after a full->writable transition, which is exactly when a
    // flush stopped on EAGAIN needs re-arming; no EPOLL_CTL_MOD per write.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(shard.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      shard.conns.erase(fd);
      ::close(fd);
      return;
    }
    connections_gauge().add(1.0);
    // The client may have written before we registered; with ET that edge
    // is already behind us, so poll the socket once by hand.  A FIN already
    // queued is still reported by the registration's first event.
    on_readable(shard, fd, *c, /*hangup=*/false);
  }

  void on_socket_event(Shard& shard, int fd, std::uint32_t ev) {
    const auto it = shard.conns.find(fd);
    if (it == shard.conns.end()) return;  // closed earlier in this batch
    Conn& conn = *it->second;
    if (ev & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
      const bool hangup = (ev & (EPOLLRDHUP | EPOLLHUP)) != 0;
      if (!on_readable(shard, fd, conn, hangup)) return;  // closed
    }
    if (ev & EPOLLOUT) {
      if (!try_flush(shard, fd, conn)) return;
    }
    finish_if_done(shard, fd, conn);
  }

  /// Read until EAGAIN, frame complete lines, serve what can be served.
  /// `hangup`: the event reported the peer's FIN, so read on to the EOF —
  /// edge-triggered epoll will not report that FIN again.  Without it a
  /// short read means the socket is drained.  False when the connection
  /// was closed.
  bool on_readable(Shard& shard, int fd, Conn& conn, bool hangup) {
    char chunk[16384];
    for (;;) {
      std::size_t want = sizeof(chunk);
      if (options_.faults &&
          options_.faults->on_io(want) == FaultInjector::IoFault::kDrop) {
        close_conn(shard, fd);
        return false;
      }
      ssize_t got;
      do {
        got = ::read(fd, chunk, want);
      } while (got < 0 && errno == EINTR);
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(shard, fd);
        return false;
      }
      if (got == 0) {
        conn.read_closed = true;
        break;
      }
      conn.in.append(chunk, static_cast<std::size_t>(got));
      if (!hangup && static_cast<std::size_t>(got) < want) break;  // drained
    }
    frame_lines(conn);
    if (conn.read_closed) {
      // Half-close: answer every complete pipelined request, then close.
      // A partial trailing line is a torn request and gets no response.
      conn.in.clear();
      conn.close_after_flush = true;
    }
    if (!process_requests(shard, fd, conn)) return false;
    if (!try_flush(shard, fd, conn)) return false;
    return finish_if_done(shard, fd, conn);
  }

  /// Split `conn.in` into complete request lines (handling overlong-line
  /// discard mode) and queue them for processing.
  void frame_lines(Conn& conn) {
    std::size_t pos = 0;
    const std::string& in = conn.in;
    for (;;) {
      const std::size_t nl = in.find('\n', pos);
      if (nl == std::string::npos) break;
      if (conn.discarding) {
        // Tail of a line that already blew the cap: drop it, answer.
        conn.discarding = false;
        conn.requests.push_back(
            {std::string(), /*overlong=*/true, SteadyClock::now()});
      } else if (nl - pos > options_.max_line) {
        conn.requests.push_back(
            {std::string(), /*overlong=*/true, SteadyClock::now()});
      } else {
        conn.requests.push_back({in.substr(pos, nl - pos), false,
                                 SteadyClock::now()});
      }
      pos = nl + 1;
    }
    if (pos > 0) conn.in.erase(0, pos);
    // Cap memory on a newline-free firehose: drop the buffered prefix and
    // remember to answer protocol_error once the newline finally arrives.
    // In discard mode the whole remaining tail is pre-newline overlong
    // content, so it never needs buffering at all.
    if (conn.discarding) {
      conn.in.clear();
    } else if (conn.in.size() > options_.max_line) {
      conn.in.clear();
      conn.discarding = true;
    }
  }

  /// Serve queued requests in order.  Stops at the first request that needs
  /// the offload pool (one in flight per connection keeps responses
  /// ordered).  False when the connection was closed.
  bool process_requests(Shard& shard, int fd, Conn& conn) {
    // Flush threshold inside a pipelined burst: keeps a long run of inline
    // answers from accumulating into one giant buffer (and from tripping
    // the slow-consumer cap when the peer is in fact keeping up).
    constexpr std::size_t kFlushChunk = 256u << 10;
    while (!conn.offload_in_flight && !conn.requests.empty()) {
      if (conn.out.size() - conn.out_pos >= kFlushChunk) {
        if (!try_flush(shard, fd, conn)) return false;
        if (conn.out.size() - conn.out_pos > options_.max_output_bytes) {
          backpressure_counter().inc();
          close_conn(shard, fd);
          return false;
        }
      }
      PendingRequest& req = conn.requests.front();
      if (req.overlong) {
        const bool ok = enqueue_response(
            shard, fd, conn,
            protocol_error_line("request line exceeds " +
                                std::to_string(options_.max_line) + " bytes"),
            req.framed_at);
        if (!ok) return false;
        conn.requests.pop_front();
        continue;
      }
      if (options_.fast_handler) {
        if (auto fast = options_.fast_handler(req.line)) {
          if (!enqueue_response(shard, fd, conn, std::move(*fast),
                                req.framed_at)) {
            return false;
          }
          conn.requests.pop_front();
          continue;
        }
      }
      conn.offload_in_flight = true;
      conn.offload_framed_at = req.framed_at;
      std::string line = std::move(req.line);
      conn.requests.pop_front();
      Shard* shard_ptr = &shard;
      const std::uint64_t gen = conn.gen;
      // Peer copied by value: the connection may be closed (and its Conn
      // destroyed) while the handler runs on the offload pool.
      const bool accepted = offload_pool_->submit(
          [this, shard_ptr, fd, gen, line = std::move(line),
           peer = conn.peer] {
            bool shutdown = false;
            Completion done;
            done.fd = fd;
            done.gen = gen;
            done.response = handler_(line, peer, &shutdown);
            done.shutdown = shutdown;
            {
              std::lock_guard lock(shard_ptr->inbox_mutex);
              shard_ptr->completions.push_back(std::move(done));
            }
            wake(*shard_ptr);
          });
      if (!accepted) {
        // Pool shutting down: the server is stopping; drop the connection.
        close_conn(shard, fd);
        return false;
      }
      break;  // wait for the completion before serving the next request
    }
    return true;
  }

  void on_completion(Shard& shard, Completion& done) {
    const auto it = shard.conns.find(done.fd);
    if (it == shard.conns.end() || it->second->gen != done.gen) {
      return;  // connection closed (or fd reused) while the handler ran
    }
    Conn& conn = *it->second;
    conn.offload_in_flight = false;
    if (done.shutdown) {
      // Deliver the shutdown ack, then close the connection and stop the
      // server.
      conn.shutdown_after_flush = true;
      conn.close_after_flush = true;
    }
    if (!enqueue_response(shard, done.fd, conn, std::move(done.response),
                          conn.offload_framed_at)) {
      return;
    }
    if (!process_requests(shard, done.fd, conn)) return;
    if (!try_flush(shard, done.fd, conn)) return;
    finish_if_done(shard, done.fd, conn);
  }

  /// Append one framed response to the output buffer, enforcing the
  /// slow-consumer cap.  False when the connection was closed.
  bool enqueue_response(Shard& shard, int fd, Conn& conn,
                        std::string response,
                        SteadyClock::time_point framed_at) {
    request_us_hist().observe(micros_since(framed_at));
    conn.out += response;
    conn.out += '\n';
    if (conn.out.size() - conn.out_pos > options_.max_output_bytes) {
      backpressure_counter().inc();
      close_conn(shard, fd);
      return false;
    }
    return true;
  }

  /// Write pending output until EAGAIN or empty.  False when the
  /// connection was closed.
  bool try_flush(Shard& shard, int fd, Conn& conn) {
    while (conn.out_pos < conn.out.size()) {
      std::size_t want = conn.out.size() - conn.out_pos;
      if (options_.faults &&
          options_.faults->on_io(want) == FaultInjector::IoFault::kDrop) {
        close_conn(shard, fd);
        return false;
      }
      ssize_t wrote;
      do {
        wrote = ::send(fd, conn.out.data() + conn.out_pos, want,
                       MSG_NOSIGNAL);
      } while (wrote < 0 && errno == EINTR);
      if (wrote < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return true;  // EPOLLOUT re-arms the flush
        }
        close_conn(shard, fd);
        return false;
      }
      conn.out_pos += static_cast<std::size_t>(wrote);
    }
    conn.out.clear();
    conn.out_pos = 0;
    return true;
  }

  /// Close-after-flush / shutdown-after-flush bookkeeping once the output
  /// buffer is empty.  False when the connection was closed.
  bool finish_if_done(Shard& shard, int fd, Conn& conn) {
    if (conn.out_pos < conn.out.size()) return true;  // still flushing
    if (conn.offload_in_flight || !conn.requests.empty()) return true;
    if (conn.shutdown_after_flush) {
      conn.shutdown_after_flush = false;
      close_conn(shard, fd);
      owner_.request_stop();
      return false;
    }
    if (conn.close_after_flush) {
      close_conn(shard, fd);
      return false;
    }
    return true;
  }

  void close_conn(Shard& shard, int fd) {
    const auto it = shard.conns.find(fd);
    if (it == shard.conns.end()) return;
    shard.conns.erase(it);  // epoll deregisters on close
    ::close(fd);
    connections_gauge().add(-1.0);
  }

  Server& owner_;
  const Server::TaggedLineHandler& handler_;
  const Server::Options& options_;
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{true};
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> offload_pool_;
};

Server::Server(TaggedLineHandler handler, Options options)
    : handler_(std::move(handler)), options_(std::move(options)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  last_errno_ = 0;
  {
    std::lock_guard lock(mutex_);
    stop_requested_ = false;
    stopped_ = false;
  }
  reactor_ = std::make_unique<Reactor>(*this);
  if (!reactor_->start(error, &last_errno_)) {
    reactor_.reset();
    std::lock_guard lock(mutex_);
    stopped_ = true;
    return false;
  }
  port_ = reactor_->port();
  return true;
}

void Server::begin_drain() {
  if (reactor_) reactor_->begin_drain();
}

void Server::stop() {
  request_stop();
  {
    std::lock_guard lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (reactor_) reactor_->stop();
  stop_cv_.notify_all();
}

}  // namespace netemu
