#pragma once

// Algorithmic collectives built only on the Transport contract.
//
//   allReduceSum  elementwise sum of doubles. Payloads of at least 2H
//                 elements take the ring reduce-scatter + all-gather —
//                 ~2·n·(H−1)/H bytes per rank, perfectly balanced — and
//                 smaller ones, too small to chunk, a binomial-tree reduce to
//                 rank 0 followed by a tree broadcast. The rule depends only
//                 on (n, H), so every rank picks the same algorithm without
//                 coordination, as an MPI library does for MPI_Allreduce.
//   broadcast     binomial tree, ceil(log2 H) rounds.
//   gatherv       variable-size payloads to a root, drained with recvAny.
//   allGatherv    ring: every rank forwards each block once.
//   allToAllv     personalized payload per peer, drained with recvAny — the
//                 primitive behind the sync engines' sparse exchanges.
//
// Tag discipline: every operation draws a fresh tag from a per-instance
// sequence, so late receivers can never mix operations. Instances that are
// live concurrently on the same transport must use distinct TagSpaces
// (SPMD code creates the same instances in the same order on every rank,
// so the sequences agree across ranks by construction).
//
// Cost accounting: each collective records its serialized round count
// (ring allreduce: 2(H−1), tree reduce or broadcast: ceil(log2 H), root
// drains: H−1) via CommStats::recordCollectiveRounds, and NetworkModel
// charges max(messages, rounds) × latency — tree depth and root
// serialization show up in modelled time even where per-rank message counts
// would hide them.

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "comm/transport.h"
#include "sim/comm_stats.h"

namespace gw2v::comm {

/// Concurrently-live Collectives instances on one transport must not share a
/// tag space (their operation sequences would collide). Each subsystem gets
/// its own.
enum class TagSpace : int {
  kDefault = 0,
  kModelSync = 1,
  kScalarSync = 2,
  kGraphAnalytics = 3,
  kTrainer = 4,
  kBaseline = 5,
  kTest = 6,
  kBench = 7,
  kServe = 8,
  kPs = 9,
};

const char* tagSpaceName(TagSpace s) noexcept;

/// The half-open tag block [base, base + 2^20) a TagSpace owns. Collectives
/// sequences its per-op tags inside this block; the parameter server frames
/// its RPC tags inside tagSpaceRange(TagSpace::kPs). Registered with the
/// transport so cross-subsystem overlaps fail fast (Transport::registerTagRange).
constexpr std::pair<int, int> tagSpaceRange(TagSpace s) noexcept {
  const int base = sim::kInternalTagBase + (static_cast<int>(s) << 20);
  return {base, base + (1 << 20)};
}

class Collectives {
 public:
  Collectives(Transport& transport, RankId me, TagSpace space = TagSpace::kDefault)
      : t_(transport), me_(me), numRanks_(transport.numRanks()),
        spaceBase_(tagSpaceRange(space).first) {
    if (me_ >= numRanks_) throw std::invalid_argument("Collectives: rank out of range");
    const auto [lo, hi] = tagSpaceRange(space);
    t_.registerTagRange(lo, hi, tagSpaceName(space));
  }

  RankId id() const noexcept { return me_; }
  unsigned numRanks() const noexcept { return numRanks_; }

  void barrier() { t_.barrier(me_); }

  /// In-place elementwise sum; the result is identical on every rank. Ring
  /// when values.size() >= 2H, tree reduce + broadcast below that.
  void allReduceSum(std::span<double> values);

  /// In-place binomial-tree broadcast from `root`; non-root buffers are
  /// overwritten. Standard MPICH rank relabelling: the receive loop finds the
  /// parent at this rank's lowest set bit; the send loop covers the
  /// remaining lower bits.
  template <typename T>
  void broadcast(std::span<T> values, RankId root) {
    if (numRanks_ <= 1) return;
    const unsigned H = numRanks_;
    const int tag = nextTag();
    const unsigned vr = (me_ + H - root) % H;
    unsigned mask = 1;
    while (mask < H) {
      if (vr & mask) {
        const RankId src = (vr - mask + root) % H;
        const std::vector<T> in = t_.recvElems<T>(me_, src, tag);
        if (in.size() != values.size())
          throw std::runtime_error("broadcast: size mismatch across ranks");
        std::copy(in.begin(), in.end(), values.begin());
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vr + mask < H) {
        const RankId dst = (vr + mask + root) % H;
        t_.sendElems<T>(me_, dst, tag, std::span<const T>(values));
      }
      mask >>= 1;
    }
    recordRounds(ceilLog2(H));
  }

  // ---- Variable-size byte collectives. ----

  /// Gather every rank's payload at `root`, drained with recvAny. Returns a
  /// per-source vector at the root (own payload included); empty elsewhere.
  std::vector<std::vector<std::uint8_t>> gatherv(std::vector<std::uint8_t> mine, RankId root);

  /// Every rank ends up with every rank's payload (ring forwarding: each
  /// block crosses each link exactly once). Indexed by source rank.
  std::vector<std::vector<std::uint8_t>> allGatherv(std::vector<std::uint8_t> mine);

  /// Personalized exchange over caller-owned slot vectors (one slot per
  /// rank): `toPeer[p]` is moved out to rank p and `from[src]` receives rank
  /// src's payload; self slots are left untouched. Reusing both vectors
  /// across calls lets callers recycle payload buffers. The drain uses
  /// recvAny, so a slow peer never blocks faster ones.
  void allToAllv(std::vector<std::vector<std::uint8_t>>& toPeer,
                 std::vector<std::vector<std::uint8_t>>& from);

  /// Operations issued so far (tags consumed); equal on every rank in SPMD.
  std::uint64_t opsIssued() const noexcept { return seq_; }

 private:
  static unsigned ceilLog2(unsigned v) noexcept {
    unsigned r = 0;
    while ((1u << r) < v) ++r;
    return r;
  }

  /// Fresh tag per operation; the per-instance sequence keeps rounds apart
  /// (wraps far beyond any in-flight window). Each op may use a few adjacent
  /// subtags.
  int nextTag() noexcept {
    const int tag = spaceBase_ + static_cast<int>((seq_ % (1u << 17)) << 3);
    ++seq_;
    return tag;
  }

  void recordRounds(std::uint64_t rounds) noexcept {
    t_.statsFor(me_).recordCollectiveRounds(rounds);
  }

  void ringAllReduceSum(std::span<double> v);
  void treeReduceSum(std::span<double> v);  // into rank 0

  Transport& t_;
  RankId me_;
  unsigned numRanks_;
  int spaceBase_;
  std::uint64_t seq_ = 0;
};

}  // namespace gw2v::comm
