#include "netemu/routing/packet_sim.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
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

// Arbitration policies as key functors: each maps a message index j to a
// packed 64-bit priority key (smaller == higher priority), computed when the
// message joins a channel's heap.  Selection is then a branchless integer
// compare — no pointer chasing inside comparators.
//
// The message index in the key's low 32 bits is the deterministic
// tie-break.  All three orders are strict and total, so the winner SET per
// channel and per node is deterministic (identical whether selected by a
// heap or nth_element), matching the reference comparators "greater
// remaining, tie smaller index" / "smaller index" / "smaller key, tie
// smaller index" exactly.
struct FarthestFirstKey {
  const std::uint32_t* remaining;  // hops still to go, by index
  std::uint64_t operator()(std::uint32_t j) const {
    // ~remaining: more hops left -> smaller key -> wins.
    return (static_cast<std::uint64_t>(~remaining[j]) << 32) | j;
  }
};

struct FifoKey {
  std::uint64_t operator()(std::uint32_t j) const { return j; }
};

struct RandomKey {
  const std::uint32_t* key;  // arbitration keys, by index
  std::uint64_t operator()(std::uint32_t j) const {
    return (static_cast<std::uint64_t>(key[j]) << 32) | j;
  }
};

constexpr std::uint32_t index_of(std::uint64_t packed) {
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

PacketSimulator::PreparedBatch PacketSimulator::PreparedBatch::copy_with_room(
    std::size_t messages, std::size_t total_hops) const {
  PreparedBatch copy;
  copy.seq_.reserve(seq_.size() + total_hops);
  copy.seq_.assign(seq_.begin(), seq_.end());
  copy.seq_off_.reserve(seq_off_.size() + messages);
  copy.seq_off_.assign(seq_off_.begin(), seq_off_.end());
  copy.load_ = load_;
  copy.static_congestion_ = static_congestion_;
  return copy;
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

// One binary min-heap of packed keys per channel, all in a single arena
// allocated once per run and never reallocated: 1.5 entries per live message
// plus 2 per channel.  A channel's first block is its tick-0 occupancy + 2.
// A full heap moves to a block of twice its capacity at the bump pointer,
// abandoning the old one.
// When the bump pointer would pass the end, the arena is compacted in place:
// blocks are packed forward in offset order, then spread backward so every
// heap gets size/4 + 1 free entries.  That needs at most 1.25 entries per
// queued message plus 1 per channel, which always fits, so a push never
// fails and no buffer is ever copied into a second allocation (a growable
// arena briefly holds old and new buffers at once, which costs peak RSS).
class ChannelHeaps {
 public:
  ChannelHeaps(const std::vector<std::uint32_t>& occupancy, std::size_t live)
      : heap_(occupancy.size()),
        order_(occupancy.size()),
        arena_size_(live + live / 2 + 2 * occupancy.size()) {
    if (arena_size_ > UINT32_MAX) {
      throw std::length_error("PacketSimulator: batch too large");
    }
    arena_.reset(new std::uint64_t[arena_size_]);  // untouched until used
    for (std::size_t c = 0; c < heap_.size(); ++c) {
      heap_[c] = {static_cast<std::uint32_t>(bump_), 0, occupancy[c] + 2};
      bump_ += occupancy[c] + 2;
    }
  }

  bool empty(std::uint32_t c) const { return heap_[c].size == 0; }
  std::uint32_t size(std::uint32_t c) const { return heap_[c].size; }

  void prefetch_header(std::uint32_t c) const { prefetch_rw(&heap_[c]); }
  void prefetch_top(std::uint32_t c) const {
    prefetch_rw(arena_.get() + heap_[c].off);
  }

  std::uint64_t pop(std::uint32_t c) {
    Heap& h = heap_[c];
    std::uint64_t* a = arena_.get() + h.off;
    const std::uint64_t top = a[0];
    const std::uint32_t n = --h.size;
    if (n > 0) {
      // Sift the last key down from the root through the hole.  Its old
      // slot becomes a sentinel no key beats, so picking the smaller child
      // needs no bounds branch.
      const std::uint64_t x = a[n];
      a[n] = ~std::uint64_t{0};
      std::uint32_t i = 0;
      for (std::uint32_t child = 1; child < n; child = 2 * i + 1) {
        child += a[child + 1] < a[child];
        if (x < a[child]) break;
        a[i] = a[child];
        i = child;
      }
      a[i] = x;
    }
    return top;
  }

  void push(std::uint32_t c, std::uint64_t key) {
    if (heap_[c].size == heap_[c].cap) grow(c);
    Heap& h = heap_[c];
    std::uint64_t* a = arena_.get() + h.off;
    std::uint32_t i = h.size++;
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (a[parent] < key) break;
      a[i] = a[parent];
      i = parent;
    }
    a[i] = key;
  }

 private:
  struct Heap {
    std::uint32_t off;   // block start in the arena
    std::uint32_t size;  // keys held
    std::uint32_t cap;   // block length
  };

  void grow(std::uint32_t c) {
    Heap& h = heap_[c];
    const std::size_t cap = 2 * static_cast<std::size_t>(h.cap);
    if (bump_ + cap > arena_size_) {
      compact();  // leaves every heap, this one included, room to push
      return;
    }
    std::copy_n(arena_.get() + h.off, h.size, arena_.get() + bump_);
    h.off = static_cast<std::uint32_t>(bump_);
    h.cap = static_cast<std::uint32_t>(cap);
    bump_ += cap;
  }

  void compact() {
    // Blocks in offset order: sort (offset, channel) pairs packed in a u64.
    for (std::uint32_t c = 0; c < order_.size(); ++c) {
      order_[c] = static_cast<std::uint64_t>(heap_[c].off) << 32 | c;
    }
    std::sort(order_.begin(), order_.end());
    std::uint64_t* a = arena_.get();
    // Pack forward: each block moves down, onto blocks already moved.
    std::size_t end = 0;
    for (const std::uint64_t entry : order_) {
      Heap& h = heap_[index_of(entry)];
      std::memmove(a + end, a + h.off, h.size * sizeof(std::uint64_t));
      h.off = static_cast<std::uint32_t>(end);
      end += h.size;
    }
    for (const std::uint64_t entry : order_) {
      end += heap_[index_of(entry)].size / 4 + 1;
    }
    // Spread backward: each block moves up, below blocks already moved.
    bump_ = end;
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      Heap& h = heap_[index_of(*it)];
      h.cap = h.size + h.size / 4 + 1;
      end -= h.cap;
      std::memmove(a + end, a + h.off, h.size * sizeof(std::uint64_t));
      h.off = static_cast<std::uint32_t>(end);
    }
  }

  std::vector<Heap> heap_;
  std::vector<std::uint64_t> order_;  // compaction scratch
  std::size_t arena_size_;
  std::size_t bump_ = 0;
  std::unique_ptr<std::uint64_t[]> arena_;
};
}  // namespace

template <bool MultiWire, bool NodeCapped, class PriorityFactory>
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
  const std::size_t num_ch = channel_cap_.size();
  std::uint64_t tick = 0;
  double latency_sum = 0.0;

  // Event-driven: a channel of w wires moves the (up to) w messages with the
  // smallest keys each tick, so each channel keeps its waiting messages in a
  // min-heap and a tick pops every non-empty channel -- O(non-empty channels
  // * log queue), not O(live messages).  The only per-message state is rem;
  // a message's current channel is seq[seq_off[i + 1] - rem[i]].
  std::vector<std::uint32_t> rem(m);  // hops still to go
  const auto priority_key = make_priority(rem.data(), rand_key_by_msg);
  std::size_t live = 0;  // undelivered messages
  std::vector<std::uint32_t> active;  // non-empty channels, any order
  active.reserve(num_ch);
  std::vector<std::uint32_t> occupancy(num_ch, 0);  // at tick 0
  for (std::uint32_t i = 0; i < m; ++i) {
    rem[i] = seq_off[i + 1] - seq_off[i];
    if (rem[i] == 0) continue;  // zero-hop: delivered at tick 0
    if (occupancy[seq[seq_off[i]]]++ == 0) {
      active.push_back(seq[seq_off[i]]);
    }
    ++live;
  }
  ChannelHeaps heaps(occupancy, live);
  for (std::uint32_t i = 0; i < m; ++i) {
    if (rem[i] > 0) heaps.push(seq[seq_off[i]], priority_key(i));
  }
  std::size_t wires = num_ch;
  if constexpr (MultiWire) {
    wires = 0;
    for (const std::uint32_t cap : channel_cap_) wires += cap;
  }
  // At most min(wires, live) messages move per tick.  This tick's moves: the
  // channel each joins and its key there.
  std::vector<std::uint32_t> move_ch(std::min(wires, live));
  std::vector<std::uint64_t> move_key(move_ch.size());
  std::size_t nm = 0;

  // Node round scratch (weak machines: a node forwards at most forward_cap
  // of its channel winners per tick): the winners' keys, then the same keys
  // grouped by tail node.
  const std::size_t num_nodes = NodeCapped ? machine_.num_vertices() : 0;
  std::vector<std::uint64_t> won(NodeCapped ? move_ch.size() : 0);
  std::vector<std::uint64_t> node_bucket(won.size());
  std::vector<std::uint32_t> node_count(num_nodes, 0);
  std::vector<std::uint32_t> node_base(num_nodes);
  std::vector<Vertex> touched_nodes;
  touched_nodes.reserve(std::min(num_nodes, won.size()));
  std::size_t nw = 0;
  const auto channel_now = [&](std::uint32_t i) {
    return seq[seq_off[i + 1] - rem[i]];
  };

  // A winner takes its hop: delivered, or queued to join its next channel
  // with a key computed now.
  const auto advance = [&](std::uint32_t i) {
    const std::uint32_t r = --rem[i];
    if (r == 0) {
      latency_sum += static_cast<double>(tick);
      stats.makespan = tick;
      --live;
      return;
    }
    move_ch[nm] = seq[seq_off[i + 1] - r];
    move_key[nm] = priority_key(i);
    ++nm;
  };
  const auto take = [&](std::uint64_t key) {
    if constexpr (NodeCapped) {
      won[nw++] = key;
    } else {
      advance(index_of(key));
    }
  };

  while (!active.empty()) {
    ++tick;
    // Amortized cancellation poll: one AND + branch per tick, a clock /
    // flag read every kCancelCheckTicks.  The partial volume is recorded
    // before unwinding so reclaimed-CPU accounting sees the ticks burned.
    if ((tick & (kCancelCheckTicks - 1)) == 0 && cancel.cancelled()) {
      record_batch_volume(tick, static_cast<std::uint64_t>(m - live));
      throw CancelledError("run_batch cancelled at tick " +
                           std::to_string(tick));
    }
    // Every non-empty channel pops its minimum keys, one per wire; a
    // channel left empty leaves the active list.  Moves join their next
    // heap only after every pop, so no message crosses two channels in one
    // tick.
    nm = 0;
    std::size_t keep = 0;
    const std::size_t na = active.size();
    for (std::size_t k = 0; k < na; ++k) {
      if (k + 16 < na) heaps.prefetch_header(active[k + 16]);
      if (k + 8 < na) heaps.prefetch_top(active[k + 8]);
      const std::uint32_t c = active[k];
      if constexpr (MultiWire) {  // all but the last of this channel's pops
        for (std::uint32_t w = std::min(channel_cap_[c], heaps.size(c)); w > 1;
             --w) {
          take(heaps.pop(c));
        }
      }
      const std::uint64_t key = heaps.pop(c);
      if (!heaps.empty(c)) active[keep++] = c;
      take(key);
    }
    active.resize(keep);

    if constexpr (NodeCapped) {
      // The channel winners face a round per tail node: counting sort by
      // tail, keep the forward_cap smallest keys.  Node winners advance;
      // node losers rejoin their own channel's heap with their key
      // unchanged (their rem did not move), in the same push pass.
      touched_nodes.clear();
      for (std::size_t k = 0; k < nw; ++k) {
        const Vertex tail = channel_tail_[channel_now(index_of(won[k]))];
        if (node_count[tail]++ == 0) touched_nodes.push_back(tail);
      }
      std::uint32_t running = 0;
      for (const Vertex v : touched_nodes) {
        node_base[v] = running;
        running += node_count[v];
        node_count[v] = 0;
      }
      for (std::size_t k = 0; k < nw; ++k) {
        const Vertex tail = channel_tail_[channel_now(index_of(won[k]))];
        node_bucket[node_base[tail] + node_count[tail]++] = won[k];
      }
      nw = 0;
      for (const Vertex v : touched_nodes) {
        std::uint64_t* req = node_bucket.data() + node_base[v];
        const std::uint32_t cnt = node_count[v];
        node_count[v] = 0;
        std::uint32_t pass = cnt;
        const std::uint32_t cap = machine_.forward_cap[v];
        if (cap != kUnlimitedForward && cnt > cap) {
          std::nth_element(req, req + (cap - 1), req + cnt);
          pass = cap;
        }
        for (std::uint32_t k = pass; k < cnt; ++k) {
          move_ch[nm] = channel_now(index_of(req[k]));
          move_key[nm] = req[k];
          ++nm;
        }
        for (std::uint32_t k = 0; k < pass; ++k) advance(index_of(req[k]));
      }
    }

    for (std::size_t k = 0; k < nm; ++k) {
      if (k + 16 < nm) heaps.prefetch_header(move_ch[k + 16]);
      if (k + 8 < nm) heaps.prefetch_top(move_ch[k + 8]);
      const std::uint32_t c = move_ch[k];
      if (heaps.empty(c)) active.push_back(c);
      heaps.push(c, move_key[k]);
    }
  }
  record_batch_volume(tick, m);
  stats.avg_latency = m == 0 ? 0.0 : latency_sum / static_cast<double>(m);
  return stats;
}

BatchStats PacketSimulator::run_batch(const PreparedBatch& batch, Prng& rng,
                                      const CancelToken& cancel) const {
  // Multi-wire pops and the node round are compiled in only where the
  // machine has them, so a unit-capacity machine's channel loop holds no
  // code for them (a run-time check there pushed the loop's counters onto
  // the stack; docs/PERF.md).
  const bool multi_wire =
      std::any_of(channel_cap_.begin(), channel_cap_.end(),
                  [](std::uint32_t wires) { return wires > 1; });
  const bool node_capped = !machine_.forward_cap.empty();
  const auto run = [&](const auto& make_priority, const std::uint32_t* key) {
    if (multi_wire) {
      return node_capped
                 ? run_batch_impl<true, true>(batch, make_priority, key, cancel)
                 : run_batch_impl<true, false>(batch, make_priority, key,
                                               cancel);
    }
    return node_capped
               ? run_batch_impl<false, true>(batch, make_priority, key, cancel)
               : run_batch_impl<false, false>(batch, make_priority, key,
                                              cancel);
  };
  switch (arbitration_) {
    case Arbitration::kFifo:
      return run([](const std::uint32_t*, const std::uint32_t*) {
        return FifoKey{};
      }, nullptr);
    case Arbitration::kRandom: {
      // Keys are drawn per message in index order (zero-hop messages
      // included), matching the documented serial order.
      std::vector<std::uint32_t> rand_key(batch.size());
      for (auto& k : rand_key) k = static_cast<std::uint32_t>(rng());
      return run([](const std::uint32_t*, const std::uint32_t* key) {
        return RandomKey{key};
      }, rand_key.data());
    }
    case Arbitration::kFarthestFirst:
      break;
  }
  return run([](const std::uint32_t* remaining, const std::uint32_t*) {
    return FarthestFirstKey{remaining};
  }, nullptr);
}

BatchStats PacketSimulator::run_batch(
    const std::vector<std::vector<Vertex>>& paths, Prng& rng,
    const CancelToken& cancel) const {
  return run_batch(prepare(paths), rng, cancel);
}

}  // namespace netemu
