#include "netemu/routing/packet_sim.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "netemu/scope/metrics.hpp"

namespace netemu {

namespace {

// Simulation-volume counters (scope registry; see docs/SCOPE.md).  Adds
// happen once per run_batch — batch granularity, never per tick — so the
// tick loop's hot path is untouched.
scope::Counter& sim_ticks_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_sim_ticks_total",
      "Packet-simulator ticks executed since process start");
  return c;
}

scope::Counter& sim_batches_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_sim_batches_total", "run_batch calls since process start");
  return c;
}

scope::Counter& sim_messages_counter() {
  static scope::Counter& c = scope::Registry::global().counter(
      "netemu_sim_messages_total",
      "Messages delivered by run_batch since process start");
  return c;
}

void record_batch_volume(std::uint64_t ticks, std::uint64_t messages) {
  sim_ticks_counter().add(ticks);
  sim_batches_counter().inc();
  sim_messages_counter().add(messages);
}

// Arbitration policies as key functors: each maps an active-list SLOT to a
// packed 64-bit priority key (smaller == higher priority), snapshotted when
// the slot is scattered into its bucket.  Selection is then a branchless
// integer min — no pointer chasing inside nth_element comparators.
//
// Slots, not message ids: compaction is stable and the initial slot order
// is message order, so the slot in the key's low 32 bits doubles as the
// deterministic message-index tie-break.  All three orders are strict and
// total, so the winner SET per channel is deterministic (and identical
// whether selected by nth_element or a linear min-scan), matching the
// reference comparators "greater remaining, tie smaller index" /
// "smaller index" / "smaller key, tie smaller index" exactly.
struct FarthestFirstKey {
  const std::uint32_t* remaining;  // per-slot hops still to go
  std::uint64_t operator()(std::uint32_t j) const {
    // ~remaining: more hops left -> smaller key -> wins.
    return (static_cast<std::uint64_t>(~remaining[j]) << 32) | j;
  }
};

struct FifoKey {
  std::uint64_t operator()(std::uint32_t j) const { return j; }
};

struct RandomKey {
  const std::uint32_t* key;  // per-slot arbitration keys
  std::uint64_t operator()(std::uint32_t j) const {
    return (static_cast<std::uint64_t>(key[j]) << 32) | j;
  }
};

constexpr std::uint32_t slot_of(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed);
}

}  // namespace

std::uint64_t simulated_ticks_total() { return sim_ticks_counter().value(); }

std::uint64_t simulated_batches_total() {
  return sim_batches_counter().value();
}

std::uint64_t simulated_messages_total() {
  return sim_messages_counter().value();
}

const char* arbitration_name(Arbitration a) {
  switch (a) {
    case Arbitration::kFarthestFirst: return "farthest-first";
    case Arbitration::kFifo: return "fifo";
    case Arbitration::kRandom: return "random";
  }
  return "?";
}

PacketSimulator::PacketSimulator(const Machine& machine,
                                 Arbitration arbitration)
    : machine_(machine), arbitration_(arbitration) {
  const Multigraph& g = machine.graph;
  const std::size_t n = g.num_vertices();
  arc_base_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    arc_base_[v + 1] = arc_base_[v] + g.num_neighbors(static_cast<Vertex>(v));
  }
  const std::size_t channels = arc_base_[n];
  arc_to_.resize(channels);
  channel_cap_.resize(channels);
  channel_tail_.resize(channels);
  for (std::size_t v = 0; v < n; ++v) {
    // Sort each vertex's outgoing channels by head so channel_of can
    // binary-search.
    auto arcs = g.neighbors(static_cast<Vertex>(v));
    std::vector<Arc> sorted(arcs.begin(), arcs.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const Arc& a, const Arc& b) { return a.to < b.to; });
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const std::size_t c = arc_base_[v] + i;
      arc_to_[c] = sorted[i].to;
      channel_cap_[c] = sorted[i].mult;
      channel_tail_[c] = static_cast<Vertex>(v);
    }
  }
  all_unit_cap_ = std::all_of(channel_cap_.begin(), channel_cap_.end(),
                              [](std::uint32_t cap) { return cap == 1; });
}

std::uint32_t PacketSimulator::channel_of(Vertex u, Vertex v) const {
  const auto begin = arc_to_.begin() + static_cast<std::ptrdiff_t>(arc_base_[u]);
  const auto end = arc_to_.begin() + static_cast<std::ptrdiff_t>(arc_base_[u + 1]);
  const auto it = std::lower_bound(begin, end, v);
  if (it == end || *it != v) {
    throw std::runtime_error("PacketSimulator: path uses a missing edge");
  }
  return static_cast<std::uint32_t>(it - arc_to_.begin());
}

void PacketSimulator::append(PreparedBatch& batch,
                             const std::vector<Vertex>& path) const {
  if (batch.load_.empty()) batch.load_.assign(channel_cap_.size(), 0);
  for (std::size_t j = 0; j + 1 < path.size(); ++j) {
    const std::uint32_t c = channel_of(path[j], path[j + 1]);
    batch.seq_.push_back(c);
    batch.static_congestion_ =
        std::max<std::uint64_t>(batch.static_congestion_, ++batch.load_[c]);
  }
  batch.seq_off_.push_back(static_cast<std::uint32_t>(batch.seq_.size()));
}

PacketSimulator::PreparedBatch PacketSimulator::prepare(
    const std::vector<std::vector<Vertex>>& paths) const {
  PreparedBatch batch;
  batch.load_.assign(channel_cap_.size(), 0);
  batch.seq_off_.reserve(paths.size() + 1);
  std::size_t total = 0;
  for (const auto& p : paths) total += p.empty() ? 0 : p.size() - 1;
  batch.seq_.reserve(total);
  for (const auto& p : paths) append(batch, p);
  return batch;
}

std::uint64_t PacketSimulator::makespan_floor(
    const PreparedBatch& batch) const {
  std::uint64_t floor = 0;
  for (std::size_t c = 0; c < batch.load_.size(); ++c) {
    const std::uint64_t cap = channel_cap_[c];
    floor = std::max<std::uint64_t>(floor, (batch.load_[c] + cap - 1) / cap);
  }
  return floor;
}

namespace {
#if defined(__GNUC__) || defined(__clang__)
inline void prefetch_rw(const void* a) { __builtin_prefetch(a, 1, 3); }
#else
inline void prefetch_rw(const void*) {}
#endif
}  // namespace

template <class PriorityFactory>
BatchStats PacketSimulator::run_batch_impl(
    const PreparedBatch& batch, const PriorityFactory& make_priority,
    const std::uint32_t* rand_key_by_msg, const CancelToken& cancel) const {
  cancel.check();  // a pre-cancelled batch never starts
  BatchStats stats;
  const std::size_t m = batch.size();
  const std::uint32_t* seq = batch.seq_.data();
  const std::uint32_t* seq_off = batch.seq_off_.data();
  stats.static_congestion = batch.static_congestion_;
  stats.total_hops = batch.seq_.size();
  stats.delivered = m;

  // Active messages as parallel slot arrays (struct-of-arrays): the per-tick
  // passes then read sequentially instead of chasing per-message state
  // through m-sized arrays.  Stable compaction keeps slots sorted by message
  // id, so slot order doubles as the deterministic tie-break order and the
  // random keys travel with their slot.
  const bool has_key = rand_key_by_msg != nullptr;
  std::size_t na = 0;
  std::vector<std::uint32_t> act_cursor(m);  // absolute index into seq
  std::vector<std::uint32_t> act_rem(m);     // hops still to go
  std::vector<std::uint32_t> act_cur(m);     // seq[act_cursor], cached
  std::vector<std::uint32_t> act_key(has_key ? m : 0);
  for (std::uint32_t i = 0; i < m; ++i) {
    const std::uint32_t len = seq_off[i + 1] - seq_off[i];
    if (len == 0) continue;  // zero-hop: delivered at tick 0 with latency 0
    act_cursor[na] = seq_off[i];
    act_rem[na] = len;
    act_cur[na] = seq[seq_off[i]];
    if (has_key) act_key[na] = rand_key_by_msg[i];
    ++na;
  }

  // The key functors read act_rem / act_key, which this loop owns and keeps
  // current — hence the factory indirection.  The vectors never reallocate,
  // so the captured pointers stay valid.
  const auto priority_key = make_priority(act_rem.data(), act_key.data());

  // Flat counting-sort scratch, sized once for the whole run.  count[] is
  // maintained all-zero between ticks (only touched channels are reset), so
  // a tick costs O(active + touched), never O(channels).
  constexpr std::uint32_t kNoBucket = 0xFFFFFFFFu;
  const std::size_t num_ch = channel_cap_.size();
  // Per-channel request count (low 32 bits) and bucket offset (high 32
  // bits) share one word, so the per-slot hot passes do a single random
  // access per channel instead of two.
  std::vector<std::uint64_t> count_base(num_ch, 0);
  std::vector<std::uint32_t> touched;
  touched.reserve(std::min(num_ch, na) + 1);
  std::vector<std::uint32_t> contended;      // channels with cnt > cap
  std::vector<std::uint32_t> contended_cnt;  // their request counts
  const bool node_capped_early = !machine_.forward_cap.empty();
  const bool unit_fast = !node_capped_early && all_unit_cap_;
  std::vector<std::uint64_t> bucket(unit_fast ? 0 : na);  // grouped packed keys

  const bool node_capped = node_capped_early;
  const std::size_t num_nodes = node_capped ? machine_.graph.num_vertices() : 0;
  std::vector<std::uint32_t> node_count(num_nodes, 0);
  std::vector<std::uint32_t> node_base(num_nodes);
  std::vector<Vertex> touched_nodes;
  std::vector<std::uint64_t> winners(node_capped ? na : 0);
  std::vector<std::uint64_t> node_bucket(node_capped ? na : 0);
  if (node_capped) touched_nodes.reserve(std::min(num_nodes, na) + 1);

  std::uint64_t tick = 0;
  double latency_sum = 0.0;
  std::uint32_t delivered_this_tick = 0;

  const auto advance = [&](std::uint32_t j) {
    const std::uint32_t cursor = ++act_cursor[j];
    if (--act_rem[j] == 0) {
      latency_sum += static_cast<double>(tick);
      stats.makespan = tick;
      ++delivered_this_tick;
    } else {
      act_cur[j] = seq[cursor];
    }
  };

  if (unit_fast) {
    // Unit-capacity machines (every channel a single wire -- mesh,
    // butterfly, tree, ...): a requested channel advances exactly one
    // message, the one with the minimum priority key, so a running min held
    // directly in count_base replaces counting, bucketing and selection.
    // And because next tick's keys are final once this tick's advances are
    // done, the mins for tick T+1 are computed in the same end-of-tick pass
    // that compacts the slot arrays -- ONE sweep over the slots per tick.
    // Keys are biased by +1 so 0 keeps meaning "channel not requested" (no
    // key reaches ~0, see the key functors, so the bias cannot wrap).
    const auto sweep_min = [&](std::uint32_t j) {
      const std::uint32_t c = act_cur[j];
      const std::uint64_t k = priority_key(j) + 1;
      const std::uint64_t v = count_base[c];
      if (v == 0) {
        touched.push_back(c);
        count_base[c] = k;
      } else if (k < v) {
        count_base[c] = k;
      }
    };
    for (std::size_t j = 0; j < na; ++j) {
      if (j + 8 < na) prefetch_rw(&count_base[act_cur[j + 8]]);
      sweep_min(static_cast<std::uint32_t>(j));
    }
    while (!touched.empty()) {
      ++tick;
      // Amortized cancellation poll: one AND + branch per tick, a clock /
      // flag read every kCancelCheckTicks.  The partial volume is recorded
      // before unwinding so reclaimed-CPU accounting sees the ticks burned.
      if ((tick & (kCancelCheckTicks - 1)) == 0 && cancel.cancelled()) {
        record_batch_volume(tick, static_cast<std::uint64_t>(m - na));
        throw CancelledError("run_batch cancelled at tick " +
                             std::to_string(tick));
      }
      delivered_this_tick = 0;
      for (const std::uint32_t c : touched) {
        advance(slot_of(count_base[c] - 1));
        count_base[c] = 0;  // restore the all-zero invariant
      }
      touched.clear();
      if (delivered_this_tick == 0) {
        for (std::size_t j = 0; j < na; ++j) {
          if (j + 8 < na) prefetch_rw(&count_base[act_cur[j + 8]]);
          sweep_min(static_cast<std::uint32_t>(j));
        }
      } else {
        // Compact stably while recomputing the mins: slot order stays
        // message order (the deterministic tie-break), and keys embed the
        // POST-compaction slot index -- exactly what selection reads.
        std::size_t keep = 0;
        for (std::size_t j = 0; j < na; ++j) {
          if (j + 8 < na) prefetch_rw(&count_base[act_cur[j + 8]]);
          if (act_rem[j] == 0) continue;
          act_cursor[keep] = act_cursor[j];
          act_rem[keep] = act_rem[j];
          act_cur[keep] = act_cur[j];
          if (has_key) act_key[keep] = act_key[j];
          sweep_min(static_cast<std::uint32_t>(keep));
          ++keep;
        }
        na = keep;
      }
    }
    record_batch_volume(tick, m);
    stats.avg_latency = m == 0 ? 0.0 : latency_sum / static_cast<double>(m);
    return stats;
  }

  // General machines (multi-wire channels and/or node forwarding caps):
  // count the initial tick's requests; later ticks recount during the
  // compaction pass (the request channels for tick T+1 are exactly act_cur
  // after tick T's advances), saving a full pass per tick.
  for (std::size_t j = 0; j < na; ++j) {
    const std::uint32_t c = act_cur[j];
    if (static_cast<std::uint32_t>(count_base[c]++) == 0) touched.push_back(c);
  }

  while (na > 0) {
    ++tick;
    if ((tick & (kCancelCheckTicks - 1)) == 0 && cancel.cancelled()) {
      record_batch_volume(tick, static_cast<std::uint64_t>(m - na));
      throw CancelledError("run_batch cancelled at tick " +
                           std::to_string(tick));
    }
    delivered_this_tick = 0;

    // Bucket offsets.  Without a node cap, only CONTENDED channels
    // (cnt > cap) need arbitration -- everyone else advances in place during
    // the scatter pass, skipping bucketing and selection entirely.  That is
    // the common case for most of a batch's drain.  With a node cap every
    // channel winner must still face the per-node round, so all go through
    // buckets.
    contended.clear();
    contended_cnt.clear();
    std::uint32_t running = 0;
    // The count half is zeroed here; bucketed channels reuse it as an
    // ascending scatter cursor (re-zeroed after arbitration), so slots on
    // uncontended channels need no store at all in the scatter pass.
    if (!node_capped) {
      for (const std::uint32_t c : touched) {
        const std::uint32_t cnt = static_cast<std::uint32_t>(count_base[c]);
        std::uint32_t b = kNoBucket;
        if (cnt > channel_cap_[c]) {
          b = running;
          running += cnt;
          contended.push_back(c);
          contended_cnt.push_back(cnt);
        }
        count_base[c] = static_cast<std::uint64_t>(b) << 32;
      }
    } else {
      for (const std::uint32_t c : touched) {
        const std::uint32_t cnt = static_cast<std::uint32_t>(count_base[c]);
        count_base[c] = static_cast<std::uint64_t>(running) << 32;
        running += cnt;
        contended.push_back(c);
        contended_cnt.push_back(cnt);
      }
    }
    // Scatter pass: advance uncontended slots in place; snapshot the rest
    // as packed priority keys in their channel's bucket slice, cursored by
    // the count half.
    for (std::size_t j = 0; j < na; ++j) {
      if (j + 8 < na) prefetch_rw(&count_base[act_cur[j + 8]]);
      const std::uint32_t c = act_cur[j];
      const std::uint64_t v = count_base[c];
      const std::uint32_t b = static_cast<std::uint32_t>(v >> 32);
      if (b == kNoBucket) {
        advance(static_cast<std::uint32_t>(j));  // read-only: no store
      } else {
        bucket[b + static_cast<std::uint32_t>(v)] =
            priority_key(static_cast<std::uint32_t>(j));
        count_base[c] = v + 1;  // cursor in the count half
      }
    }

    // Arbitrate each bucketed channel in place on its slice.  Keys were
    // snapshotted before any advance of a bucketed slot (a slot sits in at
    // most one bucket), so selection over them matches the reference
    // live-comparator order exactly.
    if (!node_capped) {
      for (std::size_t t = 0; t < contended.size(); ++t) {
        std::uint64_t* req =
            bucket.data() + (count_base[contended[t]] >> 32);
        count_base[contended[t]] = 0;  // restore the all-zero invariant
        const std::uint32_t cnt = contended_cnt[t];
        const std::uint32_t cap = channel_cap_[contended[t]];
        if (cap == 1) {
          // Unit multiplicity dominates: a linear min-scan picks the same
          // unique winner as nth_element without its overhead.
          std::uint64_t best = req[0];
          for (std::uint32_t k = 1; k < cnt; ++k) {
            if (req[k] < best) best = req[k];
          }
          advance(slot_of(best));
        } else {
          std::nth_element(req, req + (cap - 1), req + cnt);
          for (std::uint32_t k = 0; k < cap; ++k) advance(slot_of(req[k]));
        }
      }
    } else {
      // Channel winners feed a second counting-sort round over tail nodes
      // (weak machines: a node forwards at most forward_cap messages/tick).
      std::uint32_t nw = 0;
      for (std::size_t t = 0; t < contended.size(); ++t) {
        std::uint64_t* req =
            bucket.data() + (count_base[contended[t]] >> 32);
        count_base[contended[t]] = 0;  // restore the all-zero invariant
        std::uint32_t cnt = contended_cnt[t];
        const std::uint32_t cap = channel_cap_[contended[t]];
        if (cnt > cap) {
          if (cap == 1) {
            std::uint64_t best = req[0];
            for (std::uint32_t k = 1; k < cnt; ++k) {
              if (req[k] < best) best = req[k];
            }
            req[0] = best;
          } else {
            std::nth_element(req, req + (cap - 1), req + cnt);
          }
          cnt = cap;
        }
        for (std::uint32_t k = 0; k < cnt; ++k) winners[nw++] = req[k];
      }

      // Keys stay valid through the node round: channel winners are not
      // advanced until node arbitration completes.
      touched_nodes.clear();
      for (std::uint32_t k = 0; k < nw; ++k) {
        const Vertex tail = channel_tail_[act_cur[slot_of(winners[k])]];
        if (node_count[tail]++ == 0) touched_nodes.push_back(tail);
      }
      running = 0;
      for (const Vertex v : touched_nodes) {
        node_base[v] = running;
        running += node_count[v];
        node_count[v] = 0;
      }
      for (std::uint32_t k = 0; k < nw; ++k) {
        const Vertex tail = channel_tail_[act_cur[slot_of(winners[k])]];
        node_bucket[node_base[tail] + node_count[tail]++] = winners[k];
      }
      for (const Vertex v : touched_nodes) {
        std::uint64_t* req = node_bucket.data() + node_base[v];
        std::uint32_t cnt = node_count[v];
        node_count[v] = 0;
        const std::uint32_t cap = machine_.forward_cap[v];
        if (cap != kUnlimitedForward && cnt > cap) {
          std::nth_element(req, req + (cap - 1), req + cnt);
          cnt = cap;
        }
        for (std::uint32_t k = 0; k < cnt; ++k) advance(slot_of(req[k]));
      }
    }

    // Compaction + recount, fused: one pass rebuilds next tick's request
    // counts while (only when something delivered) compacting the slot
    // arrays stably in place.  Stability keeps slot order == message order,
    // which the packed keys use as the deterministic tie-break.
    touched.clear();
    if (delivered_this_tick > 0) {
      std::size_t keep = 0;
      for (std::size_t j = 0; j < na; ++j) {
        if (j + 8 < na) prefetch_rw(&count_base[act_cur[j + 8]]);
        if (act_rem[j] > 0) {
          const std::uint32_t c = act_cur[j];
          act_cursor[keep] = act_cursor[j];
          act_rem[keep] = act_rem[j];
          act_cur[keep] = c;
          if (has_key) act_key[keep] = act_key[j];
          ++keep;
          if (static_cast<std::uint32_t>(count_base[c]++) == 0) {
            touched.push_back(c);
          }
        }
      }
      na = keep;
    } else {
      for (std::size_t j = 0; j < na; ++j) {
        if (j + 8 < na) prefetch_rw(&count_base[act_cur[j + 8]]);
        const std::uint32_t c = act_cur[j];
        if (static_cast<std::uint32_t>(count_base[c]++) == 0) {
          touched.push_back(c);
        }
      }
    }
  }

  record_batch_volume(tick, m);
  stats.avg_latency = m == 0 ? 0.0 : latency_sum / static_cast<double>(m);
  return stats;
}

BatchStats PacketSimulator::run_batch(const PreparedBatch& batch, Prng& rng,
                                      const CancelToken& cancel) const {
  switch (arbitration_) {
    case Arbitration::kFifo:
      return run_batch_impl(
          batch,
          [](const std::uint32_t*, const std::uint32_t*) { return FifoKey{}; },
          nullptr, cancel);
    case Arbitration::kRandom: {
      // Keys are drawn per message in index order (zero-hop messages
      // included), matching the documented serial order.
      std::vector<std::uint32_t> rand_key(batch.size());
      for (auto& k : rand_key) k = static_cast<std::uint32_t>(rng());
      return run_batch_impl(
          batch,
          [](const std::uint32_t*, const std::uint32_t* key) {
            return RandomKey{key};
          },
          rand_key.data(), cancel);
    }
    case Arbitration::kFarthestFirst:
      break;
  }
  return run_batch_impl(
      batch,
      [](const std::uint32_t* remaining, const std::uint32_t*) {
        return FarthestFirstKey{remaining};
      },
      nullptr, cancel);
}

BatchStats PacketSimulator::run_batch(
    const std::vector<std::vector<Vertex>>& paths, Prng& rng,
    const CancelToken& cancel) const {
  return run_batch(prepare(paths), rng, cancel);
}

}  // namespace netemu
