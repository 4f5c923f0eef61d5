#pragma once
// Hedged dispatch: the one race behind router hedging and scatter straggler
// retry.  A HedgeRace runs attempts at the same idempotent work on counted
// threads and owns the scoreboard, cancel-at-loser and refusal after stop;
// callers say only what an attempt is and when the next one fires
// (docs/FLEET.md, "Hedging: one race for the whole fleet").

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "netemu/util/json.hpp"

namespace netemu {

/// Detached attempt threads, counted so their owner can join them.
class AttemptThreads {
 public:
  AttemptThreads() = default;
  ~AttemptThreads() { stop(); }
  AttemptThreads(const AttemptThreads&) = delete;
  AttemptThreads& operator=(const AttemptThreads&) = delete;

  /// Run `fn` on a detached thread; false (and `fn` never runs) once stop()
  /// has begun.
  bool spawn(std::function<void()> fn);
  /// Refuse further spawns and block until every spawned `fn` has returned.
  void stop();

 private:
  std::mutex m_;
  std::condition_variable cv_;
  int running_ = 0;
  bool stopping_ = false;
};

/// How the scoreboard ranks one attempt's outcome (higher is better).
enum class HedgeGrade {
  kFailed,  ///< no document: refused connect, drop, timeout, refused launch
  kShed,    ///< a document that is not an answer (overload shed, error)
  kAnswer,  ///< the answer the caller wanted
};

struct HedgeOutcome {
  HedgeGrade grade = HedgeGrade::kFailed;
  Json doc;  ///< the response document (kShed / kAnswer)
  std::string error;
  std::size_t backend = static_cast<std::size_t>(-1);  ///< who produced it
};

/// A fresh top-level object holding `doc`'s fields with `overrides` applied:
/// Json copies share structure, so attempt documents are rebuilt, never
/// copied and mutated.
Json attempt_doc(const Json& doc, JsonObject overrides);

/// Own by shared_ptr: every attempt thread holds a reference.
class HedgeRace : public std::enable_shared_from_this<HedgeRace> {
 public:
  using Attempt = std::function<HedgeOutcome()>;
  /// Fired, with the race's lock held, at each twin still running when the
  /// winner lands; must not block.
  using Cancel = std::function<void(std::size_t backend, std::uint64_t trace)>;
  /// Called after every landing, outside the race's lock; `won` is true for
  /// the landing that decided the race.
  using OnLand = std::function<void(bool won)>;

  HedgeRace(AttemptThreads& threads, Cancel cancel, OnLand on_land = {});
  HedgeRace(const HedgeRace&) = delete;
  HedgeRace& operator=(const HedgeRace&) = delete;

  /// Start one attempt.  `backend` and `trace` name where it is expected to
  /// run, should it need cancelling as a loser.
  void launch(std::size_t backend, std::uint64_t trace, Attempt attempt);

  /// An answer won, or every launched attempt has landed.
  bool settled() const;
  /// Block until settled or `timeout` passes; returns settled().
  bool wait_for(std::chrono::milliseconds timeout);

  struct Result {
    HedgeOutcome outcome;  ///< the winner's, or the best non-answer
    std::optional<std::size_t> winner;  ///< its launch slot (0 = first)
    bool cancel_fired = false;  ///< a still-running loser was cancelled
  };
  /// Block until settled, then hand over the result (once).
  Result take();

 private:
  struct Launched {
    std::size_t backend;
    std::uint64_t trace;
    bool running;
  };

  void land(std::size_t slot, HedgeOutcome outcome);

  AttemptThreads& threads_;
  const Cancel cancel_;
  const OnLand on_land_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  std::vector<Launched> launched_;
  std::size_t running_ = 0;
  std::optional<std::size_t> winner_;
  std::optional<HedgeOutcome> best_;
  bool cancel_fired_ = false;
};

}  // namespace netemu
