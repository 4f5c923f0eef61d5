#include "netemu/guard/guard.hpp"

#include <algorithm>

#include "netemu/scope/metrics.hpp"

namespace netemu::guard {

namespace {

scope::Counter& shed_share_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_guard_share_exceeded_total",
      "Queries shed because the client exceeded its fair-share cost cap");
  return c;
}

scope::Gauge& pressure_gauge() {
  static scope::Gauge& g = scope::Registry::global().gauge(
      "netemu_guard_pressure",
      "Pending admitted cost over the cost budget (>= 1 = gate closed)");
  return g;
}

}  // namespace

void DrainRate::note(double busy_ms, std::uint64_t cost,
                     std::size_t workers) {
  if (busy_ms < 0.0 || cost == 0) return;
  // One flight's wall time covers `cost` units, and `workers` flights drain
  // in parallel: the backlog retires one unit every busy/(cost*workers) ms.
  const double per_unit =
      busy_ms / (static_cast<double>(cost) *
                 static_cast<double>(std::max<std::size_t>(1, workers)));
  constexpr double kAlpha = 0.2;
  ms_per_unit_ = samples_ == 0
                     ? per_unit
                     : (1.0 - kAlpha) * ms_per_unit_ + kAlpha * per_unit;
  ++samples_;
}

std::uint64_t DrainRate::hint_ms(double backlog_units,
                                 std::uint64_t fallback_ms) const {
  if (samples_ == 0) return fallback_ms;
  const double raw = std::max(0.0, backlog_units) * ms_per_unit_;
  // Floor at a quarter of the configured constant: an almost-empty backlog
  // still deserves a nonzero pause, or retries arrive before the dequeue.
  const double lo = std::max(1.0, static_cast<double>(fallback_ms) / 4.0);
  return static_cast<std::uint64_t>(std::clamp(raw, lo, 10000.0));
}

Guard::Guard(Options options) : options_(options) {
  // A zero budget would shed every flight behind an idle one; one unit is
  // the smallest gate that still serves.
  options_.cost_budget = std::max<std::uint64_t>(1, options_.cost_budget);
  options_.client_share = std::clamp(options_.client_share, 0.01, 1.0);
}

double Guard::pressure_locked() const {
  return static_cast<double>(pending_cost_) /
         static_cast<double>(options_.cost_budget);
}

void Guard::evict_idle_locked() {
  // Bounded map: drop the least-recently-seen client with nothing in
  // flight.  A returning evictee simply re-enters; the map can never grow
  // without bound.
  auto victim = clients_.end();
  for (auto it = clients_.begin(); it != clients_.end(); ++it) {
    if (it->second.in_flight_cost > 0) continue;
    if (victim == clients_.end() ||
        it->second.last_seen < victim->second.last_seen) {
      victim = it;
    }
  }
  if (victim != clients_.end()) clients_.erase(victim);
}

Guard::Decision Guard::admit(const std::string& client, std::uint64_t cost) {
  Decision d;
  std::lock_guard lock(mutex_);
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    if (clients_.size() >= kMaxClients) evict_idle_locked();
    it = clients_.emplace(client, ClientState{}).first;
  }
  ClientState& c = it->second;
  c.last_seen = ++admit_calls_;

  // Cost backlog and fair share.  An empty executor admits anything (the
  // biggest legal estimate must stay servable when nothing competes), and a
  // client's first in-flight query is never share-blocked for the same
  // reason.
  if (pending_cost_ > 0 && pending_cost_ + cost > options_.cost_budget) {
    ++counters_.shed_backlog;
    d.admit = false;
    d.reason = "cost budget full";
    return d;
  }
  const double share_cap =
      options_.client_share * static_cast<double>(options_.cost_budget);
  if (c.in_flight_cost > 0 &&
      static_cast<double>(c.in_flight_cost + cost) > share_cap) {
    ++counters_.shed_share;
    shed_share_counter().inc();
    d.admit = false;
    d.reason = "client over fair share";
    return d;
  }

  c.in_flight_cost += cost;
  pending_cost_ += cost;
  ++counters_.admitted;
  pressure_gauge().set(pressure_locked());
  return d;
}

void Guard::release(const std::string& client, std::uint64_t cost) {
  std::lock_guard lock(mutex_);
  pending_cost_ -= std::min(pending_cost_, cost);
  auto it = clients_.find(client);
  if (it != clients_.end()) {
    it->second.in_flight_cost -= std::min(it->second.in_flight_cost, cost);
  }
  pressure_gauge().set(pressure_locked());
}

double Guard::pressure() const {
  std::lock_guard lock(mutex_);
  return pressure_locked();
}

std::uint64_t Guard::pending_cost() const {
  std::lock_guard lock(mutex_);
  return pending_cost_;
}

std::size_t Guard::clients_tracked() const {
  std::lock_guard lock(mutex_);
  return clients_.size();
}

Guard::Counters Guard::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

Json Guard::to_json() const {
  std::lock_guard lock(mutex_);
  Json doc = Json::object();
  doc["cost_budget"] = options_.cost_budget;
  doc["pending_cost"] = pending_cost_;
  doc["pressure"] = pressure_locked();
  doc["clients"] = clients_.size();
  doc["admitted"] = counters_.admitted;
  doc["shed_backlog"] = counters_.shed_backlog;
  doc["shed_share"] = counters_.shed_share;
  return doc;
}

}  // namespace netemu::guard
