#include "comm/collectives.h"

namespace gw2v::comm {

const char* tagSpaceName(TagSpace s) noexcept {
  switch (s) {
    case TagSpace::kDefault: return "default";
    case TagSpace::kModelSync: return "model-sync";
    case TagSpace::kScalarSync: return "scalar-sync";
    case TagSpace::kGraphAnalytics: return "graph-analytics";
    case TagSpace::kTrainer: return "trainer";
    case TagSpace::kBaseline: return "baseline";
    case TagSpace::kTest: return "test";
    case TagSpace::kBench: return "bench";
    case TagSpace::kServe: return "serve";
    case TagSpace::kPs: return "ps";
  }
  return "?";
}

namespace {

/// Chunk c of H near-equal chunks of `v` (ring allreduce's unit of transfer).
std::span<double> chunkOf(std::span<double> v, unsigned c, unsigned H) noexcept {
  const std::size_t lo = v.size() * c / H;
  const std::size_t hi = v.size() * (c + 1) / H;
  return v.subspan(lo, hi - lo);
}

void addInto(std::span<double> acc, const std::vector<double>& in) noexcept {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
}

}  // namespace

void Collectives::allReduceSum(std::span<double> values) {
  if (numRanks_ <= 1 || values.empty()) return;
  // Ring needs >= 1 element per chunk to beat the tree; tiny payloads take
  // the 2·ceil(log2 H)-round tree instead.
  if (values.size() >= 2 * static_cast<std::size_t>(numRanks_)) {
    ringAllReduceSum(values);
  } else {
    treeReduceSum(values);
    broadcast(values, 0);
  }
}

// Ring reduce-scatter + all-gather: step s, rank i sends chunk (i−s) mod H
// right and folds chunk (i−s−1) mod H from the left; after H−1 steps rank i
// owns the fully-reduced chunk (i+1) mod H, which the all-gather circulates.
void Collectives::ringAllReduceSum(std::span<double> v) {
  const unsigned H = numRanks_;
  const int tag = nextTag();
  const RankId right = (me_ + 1) % H;
  const RankId left = (me_ + H - 1) % H;
  for (unsigned s = 0; s < H - 1; ++s) {
    t_.sendElems<double>(me_, right, tag, chunkOf(v, (me_ + H - s) % H, H));
    const std::vector<double> in = t_.recvElems<double>(me_, left, tag);
    const auto dst = chunkOf(v, (me_ + H - s - 1) % H, H);
    if (in.size() != dst.size())
      throw std::runtime_error("ring allreduce: chunk size mismatch across ranks");
    addInto(dst, in);
  }
  for (unsigned s = 0; s < H - 1; ++s) {
    t_.sendElems<double>(me_, right, tag + 1, chunkOf(v, (me_ + 1 + H - s) % H, H));
    const std::vector<double> in = t_.recvElems<double>(me_, left, tag + 1);
    const auto dst = chunkOf(v, (me_ + H - s) % H, H);
    if (in.size() != dst.size())
      throw std::runtime_error("ring allgather: chunk size mismatch across ranks");
    std::copy(in.begin(), in.end(), dst.begin());
  }
  recordRounds(2 * (H - 1));
}

// Binomial tree into rank 0: at each level a rank with the level's bit clear
// folds in the partner above it, a rank with it set sends its partial sum
// down and drops out. Non-root buffers end holding partial sums.
void Collectives::treeReduceSum(std::span<double> v) {
  const unsigned H = numRanks_;
  const int tag = nextTag();
  unsigned mask = 1;
  while (mask < H) {
    if ((me_ & mask) == 0) {
      if (me_ + mask < H) {
        const std::vector<double> in = t_.recvElems<double>(me_, me_ + mask, tag);
        if (in.size() != v.size()) throw std::runtime_error("reduce: size mismatch across ranks");
        addInto(v, in);
      }
    } else {
      t_.sendElems<double>(me_, me_ - mask, tag, v);
      break;
    }
    mask <<= 1;
  }
  recordRounds(ceilLog2(H));
}

std::vector<std::vector<std::uint8_t>> Collectives::gatherv(std::vector<std::uint8_t> mine,
                                                            RankId root) {
  std::vector<std::vector<std::uint8_t>> out;
  if (numRanks_ == 1) {
    out.resize(1);
    out[0] = std::move(mine);
    return out;
  }
  const int tag = nextTag();
  if (me_ == root) {
    out.resize(numRanks_);
    out[root] = std::move(mine);
    for (unsigned k = 1; k < numRanks_; ++k) {
      auto [src, payload] = t_.recvAny(me_, tag);
      out[src] = std::move(payload);
    }
    recordRounds(numRanks_ - 1);
  } else {
    t_.send(me_, root, tag, std::move(mine));
    recordRounds(1);
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> Collectives::allGatherv(std::vector<std::uint8_t> mine) {
  std::vector<std::vector<std::uint8_t>> out(numRanks_);
  out[me_] = std::move(mine);
  if (numRanks_ == 1) return out;
  const int tag = nextTag();
  const RankId right = (me_ + 1) % numRanks_;
  const RankId left = (me_ + numRanks_ - 1) % numRanks_;
  // Step s: forward the block picked up last step (starting with our own);
  // every block crosses every link exactly once.
  for (unsigned s = 0; s < numRanks_ - 1; ++s) {
    const unsigned sendB = (me_ + numRanks_ - s) % numRanks_;
    const unsigned recvB = (me_ + numRanks_ - s - 1) % numRanks_;
    t_.send(me_, right, tag, out[sendB]);
    out[recvB] = t_.recv(me_, left, tag);
  }
  recordRounds(numRanks_ - 1);
  return out;
}

void Collectives::allToAllv(std::vector<std::vector<std::uint8_t>>& toPeer,
                            std::vector<std::vector<std::uint8_t>>& from) {
  if (toPeer.size() != numRanks_ || from.size() != numRanks_)
    throw std::invalid_argument("allToAllv: need exactly one payload slot per rank");
  if (numRanks_ == 1) return;
  const int tag = nextTag();
  for (RankId p = 0; p < numRanks_; ++p) {
    if (p == me_) continue;
    t_.send(me_, p, tag, std::move(toPeer[p]));
  }
  for (unsigned k = 1; k < numRanks_; ++k) {
    auto [src, payload] = t_.recvAny(me_, tag);
    from[src] = std::move(payload);
  }
  recordRounds(numRanks_ - 1);
}

}  // namespace gw2v::comm
