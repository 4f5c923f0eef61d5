#include "netemu/service/server.hpp"

#include "netemu/service/protocol.hpp"

// The reactor-owning members (the handler constructor, ~Server, start,
// begin_drain, stop) live in event_loop.cpp next to Server::Reactor.

namespace netemu {

Server::Server(QueryExecutor& executor, Options options)
    : Server(
          TaggedLineHandler([&executor](const std::string& line,
                                        const std::string& peer,
                                        bool* shutdown_requested) {
            // Stamp the connection peer as the default client identity so
            // the guard's per-client fairness works without cooperation.
            return handle_request_line(line, executor, shutdown_requested,
                                       nullptr, "peer:" + peer);
          }),
          [&options, &executor]() {
            // The executor handler gets the protocol fast path for free:
            // ping and cache hits answer inline on the reactor.
            if (!options.fast_handler) {
              options.fast_handler = [&executor](const std::string& line) {
                return try_handle_request_line_fast(line, executor);
              };
            }
            return options;
          }()) {}

void Server::request_stop() {
  {
    std::lock_guard lock(mutex_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void Server::wait() {
  {
    std::unique_lock lock(mutex_);
    stop_cv_.wait(lock, [this] { return stop_requested_ || stopped_; });
  }
  stop();
}

bool Server::running() const {
  std::lock_guard lock(mutex_);
  return !stopped_ && !stop_requested_;
}

}  // namespace netemu
