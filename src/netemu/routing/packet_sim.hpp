#pragma once
// Cycle-accurate store-and-forward packet simulator.
//
// Model (matches the paper's accounting in Theorem 6):
//  * one message crosses a wire per tick and per direction; an edge of
//    multiplicity m is m parallel wires;
//  * a machine may additionally impose a per-node forwarding capacity
//    (weak machines, the bus hub);
//  * all messages of a batch are present at tick 0 and the batch's makespan
//    is the delivery time of the last one — bandwidth is then
//    messages / makespan in the large-batch limit.
//
// Contention is resolved by an arbitration policy; farthest-remaining-first
// is the default (it is the policy family behind the O(congestion+dilation)
// routing theorem the paper leans on), FIFO and random are ablation knobs.
//
// Hot-path design (see docs/PERF.md): paths are flattened ONCE into a
// PreparedBatch of channel-id sequences (channel_of resolved at flatten
// time, never per tick).  The tick loop is event-driven: each channel keeps
// its waiting messages in a min-heap of packed priority keys and a tick pops
// every non-empty channel, one key per wire, so a tick costs O(non-empty
// channels * log queue), not O(waiting messages).  On a node-capped machine
// the channel winners then face a per-node round, and the node losers go
// back into their channel's heap.  Scratch is sized once per run — no
// per-tick allocation.  PreparedBatch is appendable so a batch-doubling
// caller reuses the already-flattened prefix instead of re-resolving every
// path.

#include <atomic>
#include <cstdint>
#include <vector>

#include "netemu/topology/machine.hpp"
#include "netemu/util/cancel.hpp"
#include "netemu/util/prng.hpp"

namespace netemu {

enum class Arbitration { kFarthestFirst, kFifo, kRandom };

const char* arbitration_name(Arbitration a);

struct BatchStats {
  std::uint64_t makespan = 0;      ///< ticks until the last delivery
  std::uint64_t delivered = 0;     ///< messages delivered (== batch size)
  std::uint64_t total_hops = 0;    ///< sum of path lengths
  double avg_latency = 0.0;        ///< mean delivery tick
  std::uint64_t static_congestion = 0;  ///< max directed-wire load of paths

  double rate() const {
    return makespan == 0 ? 0.0
                         : static_cast<double>(delivered) /
                               static_cast<double>(makespan);
  }

  bool operator==(const BatchStats&) const = default;
};

/// Process-wide simulation-volume counters (scope registry-backed; one add
/// per run_batch, never per tick).  Monotone within a process; pair with
/// scope::process_epoch_unix_s() for reset-safe reads across restarts —
/// the health/stats ops report exactly that pair.
std::uint64_t simulated_ticks_total();
std::uint64_t simulated_batches_total();
std::uint64_t simulated_messages_total();

class PacketSimulator {
 public:
  /// Paths flattened into per-message channel-id sequences.  Built by
  /// prepare()/append() of the simulator that will run it (channel ids are
  /// simulator-specific) and reusable across any number of run_batch calls.
  class PreparedBatch {
   public:
    std::size_t size() const { return seq_off_.size() - 1; }
    std::uint64_t total_hops() const { return seq_.size(); }
    std::uint64_t static_congestion() const { return static_congestion_; }

    /// A copy with room for `messages` more appends totalling ~`total_hops`
    /// hops (a hint; appends beyond it just grow normally).  Batch-building
    /// is the allocation-heaviest part of a throughput trial, so a caller
    /// that knows the message count sizes the buffers once, here, instead
    /// of doubling them as it appends.
    PreparedBatch copy_with_room(std::size_t messages,
                                 std::size_t total_hops) const;

   private:
    friend class PacketSimulator;
    std::vector<std::uint32_t> seq_;           // concatenated channel ids
    std::vector<std::uint32_t> seq_off_{0};    // per-message offsets, size m+1
    std::vector<std::uint32_t> load_;          // per-channel static load
    std::uint64_t static_congestion_ = 0;
  };

  explicit PacketSimulator(const Machine& machine,
                           Arbitration arbitration = Arbitration::kFarthestFirst);

  /// Flatten full vertex paths into channel sequences (throws if a path uses
  /// a missing edge).  Paths of length <= 1 contribute no hops.
  PreparedBatch prepare(const std::vector<std::vector<Vertex>>& paths) const;

  /// Append one more routed path to an existing batch (batch-doubling
  /// top-up); static congestion is maintained incrementally.
  void append(PreparedBatch& batch, const std::vector<Vertex>& path) const;

  /// Route a prepared batch to completion.  Thread-safe: const, all mutable
  /// state is call-local, so one simulator can serve concurrent trials.
  ///
  /// rng contract: rng feeds the random arbitration policy only.  Under
  /// kRandom, run_batch draws exactly batch.size() values, one key per
  /// message in message-index order (zero-hop messages included), all
  /// before the first tick; kFarthestFirst and kFifo draw none.  So the rng
  /// leaves the call advanced by rng_draws(batch) whether or not the run
  /// completes, and a caller can run a copy of its rng here while it goes
  /// on drawing from its own past those values (measure_throughput's
  /// pipelined calibration ladder relies on this).
  ///
  /// Cancellation: `cancel` is polled every kCancelCheckTicks ticks; when it
  /// fires the partial simulation volume is still recorded and the call
  /// raises CancelledError — the run stops within one check quantum.  A
  /// never-firing (or default/null) token leaves the result bit-identical
  /// to an uncancellable run (tests/sim_golden_test.cpp).
  BatchStats run_batch(const PreparedBatch& batch, Prng& rng,
                       const CancelToken& cancel = {}) const;

  /// The number of values run_batch(batch, rng) draws from rng (see the rng
  /// contract above): batch.size() under kRandom, 0 otherwise.
  std::uint64_t rng_draws(const PreparedBatch& batch) const {
    return arbitration_ == Arbitration::kRandom ? batch.size() : 0;
  }

  /// A lower bound on run_batch(batch).makespan under every arbitration:
  /// max over channels of ceil(load / wires), since a channel of w wires
  /// carries at most w messages per tick.  On an all-unit-capacity machine
  /// it equals batch.static_congestion().  Node forwarding caps are not
  /// counted, so on a node-capped machine the bound may be loose.  Costs one
  /// pass over the channel table and simulates nothing.
  std::uint64_t makespan_floor(const PreparedBatch& batch) const;

  /// Convenience wrapper: prepare + run in one call.
  BatchStats run_batch(const std::vector<std::vector<Vertex>>& paths,
                       Prng& rng, const CancelToken& cancel = {}) const;

  std::size_t num_channels() const { return channel_cap_.size(); }

 private:
  std::uint32_t channel_of(Vertex u, Vertex v) const;

  template <bool MultiWire, bool NodeCapped, class PriorityFactory>
  BatchStats run_batch_impl(const PreparedBatch& batch,
                            const PriorityFactory& make_priority,
                            const std::uint32_t* rand_key_by_msg,
                            const CancelToken& cancel) const;

  const Machine& machine_;
  Arbitration arbitration_;
  // Directed channel table: channel id = arc slot in a flattened per-vertex
  // layout; capacity = edge multiplicity.
  std::vector<std::size_t> arc_base_;          // per-vertex offset
  std::vector<Vertex> arc_to_;                 // channel -> head vertex
  std::vector<std::uint32_t> channel_cap_;     // channel -> wires
  std::vector<Vertex> channel_tail_;           // channel -> tail vertex
};

}  // namespace netemu
