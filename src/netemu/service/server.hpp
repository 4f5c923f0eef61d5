#pragma once
// The planner daemon: a localhost TCP listener speaking the line protocol.
//
// The listener is decoupled from what answers the lines: a Server runs a
// TaggedLineHandler — the executor constructor wraps a QueryExecutor
// (handle_request_line), the daemons and the fleet front door pass their
// own (drain op, proxying to real backends).
//
// The I/O plane is a sharded epoll event loop (event_loop.cpp,
// docs/SERVICE.md "I/O plane"): one acceptor distributes non-blocking
// connections round-robin across `io_threads` reactor shards; each shard
// owns its fds with edge-triggered epoll, frames request lines
// incrementally from per-connection buffers, serves `fast_handler` answers
// (ping, cache hits) inline on the reactor, and offloads everything else to
// a bounded handler pool whose completions are posted back to the owning
// shard through an eventfd.  Responses are coalesced into a per-connection
// output buffer bounded by `max_output_bytes` — a consumer that falls
// further behind than that is disconnected instead of growing the heap.
// Thousands of mostly-idle connections cost two buffers each, not a kernel
// thread each.
//
// Lifecycle: start() binds and spawns, begin_drain() closes only the
// listener (live connections still get their responses), stop() shuts
// everything down and joins, and a handler that sets *shutdown_requested
// stops the server after its response flushes.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "netemu/service/executor.hpp"

namespace netemu {

class FaultInjector;

class Server {
 public:
  /// Answer one request line (no trailing newline) with one response line;
  /// set *shutdown_requested to stop the server after the response.  `peer`
  /// is the connection's tag ("ip:port" from getpeername, "conn-<fd>" when
  /// that fails) — a stable per-connection identity handlers stamp onto
  /// queries that carry no "client" field, so guard fairness can tell
  /// callers apart without client cooperation.
  using TaggedLineHandler =
      std::function<std::string(const std::string& line,
                                const std::string& peer,
                                bool* shutdown_requested)>;

  /// Optional non-blocking fast path run inline on a reactor shard: return
  /// the response line to answer immediately, nullopt to fall through to
  /// the handler on the offload pool.  MUST NOT block (no locks held
  /// across compute, no I/O) — a stalled shard stalls every connection it
  /// owns.
  using FastHandler =
      std::function<std::optional<std::string>(const std::string& line)>;

  struct Options {
    std::uint16_t port = 7464;  ///< 0 = ephemeral (see port() after start)
    int backlog = 256;
    std::size_t max_line = 1 << 20;  ///< request line cap (protocol_error)
    /// Fault injector applied to every connection's socket I/O (chaos
    /// testing).  Not owned; must outlive the server.  nullptr disables.
    FaultInjector* faults = nullptr;
    /// Reactor shards; 0 = hardware threads.
    std::size_t io_threads = 0;
    /// Per-connection pending-output cap; a consumer further behind than
    /// this is disconnected (backpressure) instead of buffering unboundedly.
    std::size_t max_output_bytes = 8u << 20;
    /// Reactor-inline fast path (see FastHandler).
    FastHandler fast_handler;
  };

  /// Serve a QueryExecutor; installs the protocol fast path (ping, cache
  /// hits inline on the reactor) unless options.fast_handler is set.
  Server(QueryExecutor& executor, Options options);
  /// Serve an arbitrary handler (the daemons, the fleet front door).
  Server(TaggedLineHandler handler, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the reactor.  False + *error on failure;
  /// last_errno() then holds the failing syscall's errno so callers can
  /// print actionable messages (EADDRINUSE: port taken).
  bool start(std::string* error = nullptr);

  /// errno of the syscall that failed the last start() (0 on success).
  int last_errno() const { return last_errno_; }

  /// Actual bound port (resolves port 0).
  std::uint16_t port() const { return port_; }

  /// Block until a client sends {"op":"shutdown"} or another thread calls
  /// stop().  Returns after the server is fully stopped.
  void wait();

  /// Idempotent full stop: close listener and connections, join threads.
  void stop();

  /// Drain: close the listener (no new connections) but leave every live
  /// connection untouched so in-flight responses are still delivered and
  /// late requests on open connections get their shed/answer.  Idempotent;
  /// follow with stop() once the drain budget elapses (docs/LIFECYCLE.md).
  void begin_drain();

  bool running() const;

 private:
  class Reactor;  // event_loop.cpp: sockets, shards, offload pool

  void request_stop();

  TaggedLineHandler handler_;
  Options options_;
  std::unique_ptr<Reactor> reactor_;
  std::uint16_t port_ = 0;
  int last_errno_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = true;
};

}  // namespace netemu
