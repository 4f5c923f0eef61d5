#include "netemu/routing/butterfly_router.hpp"

#include <cassert>

#include "netemu/util/math.hpp"

namespace netemu {

ButterflyRouter::ButterflyRouter(const Machine& machine)
    : d_(machine.shape.at(0)) {
  assert(machine.family == Family::kButterfly ||
         machine.family == Family::kMultibutterfly);
}

void ButterflyRouter::route_append(Vertex src, Vertex dst, Prng& /*rng*/,
                                   std::vector<Vertex>& out) {
  // Vertex = level * 2^d + row.
  const std::uint64_t row_mask = (std::uint64_t{1} << d_) - 1;
  const std::uint64_t l1 = src >> d_, r1 = src & row_mask;
  const std::uint64_t l2 = dst >> d_, r2 = dst & row_mask;
  std::uint64_t needed = r1 ^ r2;

  std::uint64_t level = l1, row = r1;
  out.clear();
  out.push_back(src);
  auto push = [&] {
    out.push_back(static_cast<Vertex>((level << d_) | row));
  };

  // Descend to the lowest needed boundary (crossing boundary i downward may
  // fix bit i).
  std::uint64_t down_target = level;
  for (unsigned i = 0; i < d_; ++i) {
    if (needed >> i & 1u) {
      down_target = std::min<std::uint64_t>(down_target, i);
      break;
    }
  }
  down_target = std::min<std::uint64_t>(down_target, l2);
  while (level > down_target) {
    const unsigned boundary = static_cast<unsigned>(level - 1);
    if (needed >> boundary & 1u) {
      row ^= 1ULL << boundary;
      needed &= ~(1ULL << boundary);
    }
    --level;
    push();
  }

  // Ascend past every remaining needed boundary (and at least to l2).
  std::uint64_t up_target = l2;
  for (unsigned i = d_; i-- > 0;) {
    if (needed >> i & 1u) {
      up_target = std::max<std::uint64_t>(up_target, i + 1u);
      break;
    }
  }
  while (level < up_target) {
    const unsigned boundary = static_cast<unsigned>(level);
    if (needed >> boundary & 1u) {
      row ^= 1ULL << boundary;
      needed &= ~(1ULL << boundary);
    }
    ++level;
    push();
  }

  // Settle straight down to the destination level.
  while (level > l2) {
    --level;
    push();
  }
  assert(level == l2 && row == r2 && needed == 0);
}

ShuffleExchangeRouter::ShuffleExchangeRouter(const Machine& machine)
    : d_(machine.shape.at(0)) {
  assert(machine.family == Family::kShuffleExchange);
}

void ShuffleExchangeRouter::route_append(Vertex src, Vertex dst,
                                         Prng& /*rng*/,
                                         std::vector<Vertex>& out) {
  out.clear();
  out.push_back(src);
  std::uint64_t cur = src;
  // d rounds: force the lsb to bit k of dst, then rotate right — bit k ends
  // up back at position k after the remaining rotations.
  for (unsigned k = 0; k < d_; ++k) {
    const std::uint64_t want = (dst >> k) & 1u;
    if ((cur & 1u) != want) {
      cur ^= 1u;
      out.push_back(static_cast<Vertex>(cur));
    }
    const std::uint64_t next = rotr_bits(cur, d_);
    if (next != cur) {
      out.push_back(static_cast<Vertex>(next));
    }
    cur = next;
  }
  assert(cur == dst);
}

ValiantRouter::ValiantRouter(const Machine& machine,
                             std::unique_ptr<Router> base)
    : machine_(machine), base_(std::move(base)) {}

void ValiantRouter::route_append(Vertex src, Vertex dst, Prng& rng,
                                 std::vector<Vertex>& out) {
  if (src == dst) {
    out.assign(1, src);
    return;
  }
  const auto w = static_cast<Vertex>(
      rng.below(machine_.graph.num_vertices()));
  base_->route_append(src, w, rng, out);
  // The second leg needs its own buffer: routing it into `out` would
  // overwrite the first.  The thread's spare buffer is taken for the call,
  // so a nested Valiant router (base_ itself Valiant) finds it empty and
  // never shares it; in steady state the leg allocates nothing.
  thread_local std::vector<Vertex> spare;
  std::vector<Vertex> second = std::move(spare);
  base_->route_append(w, dst, rng, second);
  out.insert(out.end(), second.begin() + 1, second.end());
  spare = std::move(second);
}

}  // namespace netemu
