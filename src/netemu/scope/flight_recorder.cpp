#include "netemu/scope/flight_recorder.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>

#include "netemu/scope/trace.hpp"

namespace netemu::scope {

namespace {

// --- async-signal-safe formatting helpers (no locale, no allocation) ---

std::size_t format_u64(std::uint64_t v, char* buf) noexcept {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

std::size_t format_hex64(std::uint64_t v, char* buf) noexcept {
  static const char digits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[i] = digits[v & 0xF];
    v >>= 4;
  }
  return 16;
}

void write_all(int fd, const char* data, std::size_t len) noexcept {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) return;  // best effort: a postmortem must never loop forever
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

const char* FlightRecorder::kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kInfo: return "info";
    case Kind::kShed: return "shed";
    case Kind::kBreaker: return "breaker";
    case Kind::kHedge: return "hedge";
    case Kind::kFault: return "fault";
    case Kind::kCrash: return "crash";
  }
  return "?";
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* instance = new FlightRecorder();  // leaked
  return *instance;
}

void FlightRecorder::record(Kind kind, std::uint64_t trace_id,
                            const char* detail) noexcept {
  const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& s = slots_[ticket % kSlots];
  // Invalidate first so a concurrent reader discards a half-written slot.
  s.seq.store(0, std::memory_order_release);
  s.t_us.store(now_us(), std::memory_order_relaxed);
  s.trace_id.store(trace_id, std::memory_order_relaxed);
  s.kind.store(static_cast<std::uint32_t>(kind), std::memory_order_relaxed);
  // Pack the detail text into atomic words (relaxed stores: the release on
  // seq below publishes everything).
  std::uint64_t words[kDetailWords] = {};
  if (detail != nullptr) {
    char* bytes = reinterpret_cast<char*>(words);
    std::size_t n = 0;
    while (n < kDetailBytes - 1 && detail[n] != '\0') {
      bytes[n] = detail[n];
      ++n;
    }
  }
  for (std::size_t i = 0; i < kDetailWords; ++i) {
    s.detail[i].store(words[i], std::memory_order_relaxed);
  }
  s.seq.store(ticket, std::memory_order_release);
}

std::vector<FlightRecorder::Event> FlightRecorder::recent(
    std::size_t max_events) const {
  std::vector<Event> out;
  out.reserve(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    const Slot& s = slots_[i];
    const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
    if (seq == 0) continue;
    Event e;
    e.seq = seq;
    e.t_us = s.t_us.load(std::memory_order_relaxed);
    e.trace_id = s.trace_id.load(std::memory_order_relaxed);
    e.kind = static_cast<Kind>(s.kind.load(std::memory_order_relaxed));
    std::uint64_t words[kDetailWords];
    for (std::size_t w = 0; w < kDetailWords; ++w) {
      words[w] = s.detail[w].load(std::memory_order_relaxed);
    }
    // Validate: if the slot was overwritten while we read it, skip it.
    if (s.seq.load(std::memory_order_acquire) != seq) continue;
    const char* bytes = reinterpret_cast<const char*>(words);
    e.detail.assign(bytes, strnlen(bytes, kDetailBytes));
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  if (out.size() > max_events) {
    out.erase(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(out.size() - max_events));
  }
  return out;
}

void FlightRecorder::dump(int fd) const noexcept {
  // One line per valid slot, oldest first, fully signal-safe: we scan in
  // two passes over the fixed slot array instead of sorting.
  std::uint64_t min_seq = ~0ULL, max_seq = 0;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const std::uint64_t seq = slots_[i].seq.load(std::memory_order_acquire);
    if (seq == 0) continue;
    if (seq < min_seq) min_seq = seq;
    if (seq > max_seq) max_seq = seq;
  }
  if (max_seq == 0) {
    static const char empty[] = "scope: flight recorder empty\n";
    write_all(fd, empty, sizeof(empty) - 1);
    return;
  }
  static const char header[] = "scope: flight recorder dump (seq, t_us, kind, trace, detail)\n";
  write_all(fd, header, sizeof(header) - 1);
  for (std::uint64_t want = min_seq; want <= max_seq; ++want) {
    const Slot& s = slots_[want % kSlots];
    if (s.seq.load(std::memory_order_acquire) != want) continue;
    char line[256];
    std::size_t n = 0;
    n += format_u64(want, line + n);
    line[n++] = ' ';
    n += format_u64(s.t_us.load(std::memory_order_relaxed), line + n);
    line[n++] = ' ';
    const char* kind =
        kind_name(static_cast<Kind>(s.kind.load(std::memory_order_relaxed)));
    for (const char* p = kind; *p != '\0'; ++p) line[n++] = *p;
    line[n++] = ' ';
    n += format_hex64(s.trace_id.load(std::memory_order_relaxed), line + n);
    line[n++] = ' ';
    std::uint64_t words[kDetailWords];
    for (std::size_t w = 0; w < kDetailWords; ++w) {
      words[w] = s.detail[w].load(std::memory_order_relaxed);
    }
    const char* bytes = reinterpret_cast<const char*>(words);
    for (std::size_t b = 0; b < kDetailBytes && bytes[b] != '\0'; ++b) {
      if (n >= sizeof(line) - 2) break;
      line[n++] = bytes[b];
    }
    line[n++] = '\n';
    write_all(fd, line, n);
  }
}

namespace {

void crash_handler(int sig) {
  FlightRecorder& fr = FlightRecorder::global();
  fr.record(FlightRecorder::Kind::kCrash, 0,
            sig == SIGSEGV   ? "SIGSEGV"
            : sig == SIGBUS  ? "SIGBUS"
            : sig == SIGABRT ? "SIGABRT"
            : sig == SIGFPE  ? "SIGFPE"
                             : "signal");
  fr.dump(2);
  // Restore the default action and re-raise so the process still dies with
  // the original signal (and a core, when enabled).
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void install_crash_handler() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  std::signal(SIGSEGV, crash_handler);
  std::signal(SIGBUS, crash_handler);
  std::signal(SIGABRT, crash_handler);
  std::signal(SIGFPE, crash_handler);
}

}  // namespace netemu::scope
