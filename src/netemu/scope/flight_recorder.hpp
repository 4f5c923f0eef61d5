#pragma once
// netemu::scope — the flight recorder.
//
// A fixed-size lock-free ring of recent notable events per process: breaker
// transitions, hedge outcomes, sheds, injected faults, crashes.  Writers
// claim a slot with one fetch_add and fill it with relaxed atomic stores —
// no locks, no allocation, safe from any thread.  The ring is for
// postmortems: when a faultline soak dies or netemu_serve crashes, dump()
// reconstructs the last few thousand events (with trace ids) from the core
// of the still-warm process, stderr, or a debugger; {"op":"events"} reads
// them from a live one.
//
// Consistency model: a slot's payload is a fixed array of atomic words, so
// concurrent access is never a data race (TSan-clean by construction).  A
// reader validates a slot by re-checking its sequence word after reading
// the payload; a slot overwritten mid-read is discarded.  In the
// astronomically unlikely case of two writers lapping onto the same slot
// simultaneously (the ring is kSlots deep), the slot's text may interleave
// — acceptable for a diagnostic channel, and the sequence word still marks
// it as the newer event.
//
// dump(fd) is async-signal-safe: no locks, no allocation, formatting into
// stack buffers, output via write(2) only — install_crash_handler() wires
// it to SIGSEGV/SIGBUS/SIGABRT/SIGFPE so a crashing daemon leaves its last
// moments on stderr.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace netemu::scope {

class FlightRecorder {
 public:
  static constexpr std::size_t kSlots = 4096;
  static constexpr std::size_t kDetailWords = 12;  ///< 96 bytes of text
  static constexpr std::size_t kDetailBytes = kDetailWords * 8;

  enum class Kind : std::uint32_t {
    kInfo = 0,
    kShed,       ///< admission control rejected a request
    kBreaker,    ///< circuit breaker state transition
    kHedge,      ///< hedge fired / resolved
    kFault,      ///< injected fault (faultline)
    kCrash,      ///< fatal signal (recorded by the crash handler)
  };
  static const char* kind_name(Kind k) noexcept;

  /// The process-wide recorder.
  static FlightRecorder& global();

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event.  Lock-free; `detail` is truncated to kDetailBytes-1.
  /// trace_id 0 = not tied to a traced request.
  void record(Kind kind, std::uint64_t trace_id, const char* detail) noexcept;
  void record(Kind kind, std::uint64_t trace_id, const std::string& detail) noexcept {
    record(kind, trace_id, detail.c_str());
  }

  struct Event {
    std::uint64_t seq = 0;       ///< global event number (1-based)
    std::uint64_t t_us = 0;      ///< scope::now_us() at record time
    std::uint64_t trace_id = 0;
    Kind kind = Kind::kInfo;
    std::string detail;
  };

  /// Up to `max_events` most recent events, oldest first.  Concurrent-safe;
  /// slots overwritten mid-read are skipped.
  std::vector<Event> recent(std::size_t max_events = kSlots) const;

  /// Events recorded since process start (recent() returns the last kSlots).
  std::uint64_t total() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

  /// Async-signal-safe dump of the ring to `fd`, oldest first.
  void dump(int fd) const noexcept;

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  ///< 0 = never written
    std::atomic<std::uint64_t> t_us{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint32_t> kind{0};
    std::atomic<std::uint64_t> detail[kDetailWords]{};
  };

  std::atomic<std::uint64_t> next_{0};
  Slot slots_[kSlots];
};

/// Install SIGSEGV/SIGBUS/SIGABRT/SIGFPE handlers that dump the global
/// recorder to stderr and re-raise.  Idempotent.
void install_crash_handler();

}  // namespace netemu::scope
