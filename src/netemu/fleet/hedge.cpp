#include "netemu/fleet/hedge.hpp"

#include <thread>
#include <utility>

namespace netemu {

bool AttemptThreads::spawn(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(m_);
    if (stopping_) return false;
    ++running_;
  }
  std::thread([this, fn = std::move(fn)]() mutable {
    fn();
    // Drop the captures before the count does: stop() may then return and
    // the owner be destroyed.  Notify under the lock for the same reason.
    fn = nullptr;
    std::lock_guard<std::mutex> lock(m_);
    --running_;
    cv_.notify_all();
  }).detach();
  return true;
}

void AttemptThreads::stop() {
  std::unique_lock<std::mutex> lock(m_);
  stopping_ = true;
  cv_.wait(lock, [this] { return running_ == 0; });
}

Json attempt_doc(const Json& doc, JsonObject overrides) {
  Json out = Json::object();
  for (const auto& [k, v] : doc.fields()) out[k] = v;
  for (auto& [k, v] : overrides) out[k] = std::move(v);
  return out;
}

HedgeRace::HedgeRace(AttemptThreads& threads, Cancel cancel, OnLand on_land)
    : threads_(threads),
      cancel_(std::move(cancel)),
      on_land_(std::move(on_land)) {}

void HedgeRace::launch(std::size_t backend, std::uint64_t trace,
                       Attempt attempt) {
  std::unique_lock<std::mutex> lock(m_);
  const std::size_t slot = launched_.size();
  launched_.push_back(Launched{backend, trace, true});
  ++running_;
  lock.unlock();
  if (!threads_.spawn([self = shared_from_this(), slot,
                       attempt = std::move(attempt)] {
        self->land(slot, attempt());
      })) {
    land(slot, HedgeOutcome{HedgeGrade::kFailed, Json(), "fleet stopping",
                            backend});
  }
}

void HedgeRace::land(std::size_t slot, HedgeOutcome outcome) {
  std::unique_lock<std::mutex> lock(m_);
  launched_[slot].running = false;
  --running_;
  const bool won = !winner_ && outcome.grade == HedgeGrade::kAnswer;
  if (won) {
    winner_ = slot;
    best_ = std::move(outcome);
    // Under the lock: whoever sees the winner also sees its cancels fired.
    for (const Launched& twin : launched_) {
      if (!twin.running) continue;
      cancel_(twin.backend, twin.trace);
      cancel_fired_ = true;
    }
  } else if (!winner_ && (!best_ || outcome.grade > best_->grade)) {
    best_ = std::move(outcome);
  }
  cv_.notify_all();
  lock.unlock();
  if (on_land_) on_land_(won);
}

bool HedgeRace::settled() const {
  std::lock_guard<std::mutex> lock(m_);
  return winner_ || running_ == 0;
}

bool HedgeRace::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(m_);
  return cv_.wait_for(lock, timeout,
                      [this] { return winner_ || running_ == 0; });
}

HedgeRace::Result HedgeRace::take() {
  std::unique_lock<std::mutex> lock(m_);
  cv_.wait(lock, [this] { return winner_ || running_ == 0; });
  return Result{best_ ? std::move(*best_) : HedgeOutcome{}, winner_,
                cancel_fired_};
}

}  // namespace netemu
