// Oracle-based randomized testing of the Gluon-lite sync engine: a
// sequential reference implementation of the reduce->broadcast semantics is
// run against random update patterns (random host counts, dimensions, dirty
// sets, delta values, round counts) and all replicas must match the oracle
// bit-for-bit for every reducer and every communication strategy.
//
// A second suite cross-checks the parallel engine against the
// single-threaded reference path (SyncOptions::serial) over the same random
// dirty sets for codec ∈ {fp32, fp16, int8} × threads ∈ {1, 2, 4} ×
// H ∈ {1, 2, 4, 8} × two model shapes: replicas must match bit-for-bit
// (lossy codecs quantize identically on both paths, so the serial engine
// stays the oracle), and the byte counts must be equal too.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "comm/sync_engine.h"
#include "core/model_combiner.h"
#include "sim/cluster.h"
#include "util/rng.h"
#include "util/vecmath.h"

namespace gw2v::comm {
namespace {

using graph::Label;
using graph::ModelGraph;

struct FuzzConfig {
  unsigned hosts;
  std::uint32_t nodes;
  std::uint32_t dim;
  unsigned rounds;
  int reducerKind;  // 0 SUM, 1 AVG, 2 MC
  SyncStrategy strategy;
  std::uint64_t seed;
  unsigned threads = 1;        // workerThreadsPerHost for the parallel suite
  SyncCodec codec = SyncCodec::kFp32;  // wire codec for the parallel suite
};

std::unique_ptr<Reducer> makeReducer(int kind) {
  switch (kind) {
    case 0: return std::make_unique<SumReducer>();
    case 1: return std::make_unique<AvgReducer>();
    default: return std::make_unique<core::ModelCombinerReducer>();
  }
}

/// Deterministic per-(round, host, node, label) update decision + delta.
struct UpdatePlan {
  explicit UpdatePlan(const FuzzConfig& cfg) : cfg_(cfg) {}

  bool touches(unsigned round, unsigned host, std::uint32_t node, int label) const {
    return util::hash64(key(round, host, node, label)) % 100 < 30;  // 30% dirty
  }

  void delta(unsigned round, unsigned host, std::uint32_t node, int label,
             std::vector<float>& out) const {
    util::Rng rng(util::hash64(key(round, host, node, label) ^ 0xdeadULL));
    out.resize(cfg_.dim);
    for (auto& v : out) v = rng.uniformFloat(-0.5f, 0.5f);
  }

 private:
  std::uint64_t key(unsigned round, unsigned host, std::uint32_t node, int label) const {
    return cfg_.seed ^ (static_cast<std::uint64_t>(round) << 40) ^
           (static_cast<std::uint64_t>(host) << 32) ^ (static_cast<std::uint64_t>(node) << 2) ^
           static_cast<std::uint64_t>(label);
  }
  FuzzConfig cfg_;
};

/// Sequential oracle: canonical values evolve exactly as the distributed
/// protocol specifies (deltas folded in host order per node per label).
std::vector<float> runOracle(const FuzzConfig& cfg, const Reducer& reducer) {
  const UpdatePlan plan(cfg);
  const std::size_t total =
      static_cast<std::size_t>(cfg.nodes) * cfg.dim * graph::kNumLabels;
  // Canonical start: zero everywhere (both labels), matching the fuzz model
  // graphs below which skip randomizeEmbeddings.
  std::vector<float> canonical(total, 0.0f);
  const auto rowAt = [&](int label, std::uint32_t node) -> std::span<float> {
    return {canonical.data() +
                (static_cast<std::size_t>(label) * cfg.nodes + node) * cfg.dim,
            cfg.dim};
  };

  std::vector<float> acc(cfg.dim), d(cfg.dim), eff(cfg.dim);
  for (unsigned round = 0; round < cfg.rounds; ++round) {
    for (int label = 0; label < graph::kNumLabels; ++label) {
      for (std::uint32_t node = 0; node < cfg.nodes; ++node) {
        unsigned contributions = 0;
        const auto row = rowAt(label, node);
        for (unsigned host = 0; host < cfg.hosts; ++host) {
          if (!plan.touches(round, host, node, label)) continue;
          plan.delta(round, host, node, label, d);
          // Hosts ship (baseline + d) - baseline, the float round trip of d
          // against the (replicated, hence identical) canonical row.
          for (std::uint32_t k = 0; k < cfg.dim; ++k) eff[k] = (row[k] + d[k]) - row[k];
          if (contributions == 0) {
            util::copyInto(eff, acc);
          } else {
            reducer.accumulate(acc, eff);
          }
          ++contributions;
        }
        if (contributions == 0) continue;
        reducer.finalize(acc, contributions);
        util::add(acc, row);
      }
    }
  }
  return canonical;
}

/// Run the engine over the config's update plan; updates are issued from the
/// host thread (deterministic), so any thread-count dependence can only come
/// from the sync path itself.
struct EngineRun {
  std::vector<std::unique_ptr<ModelGraph>> replicas;
  std::uint64_t totalBytes = 0;
};

EngineRun runEngine(const FuzzConfig& cfg, const Reducer& reducer, unsigned threads,
                    SyncOptions sopts) {
  const UpdatePlan plan(cfg);
  EngineRun run;
  run.replicas.resize(cfg.hosts);
  for (auto& r : run.replicas) r = std::make_unique<ModelGraph>(cfg.nodes, cfg.dim);
  const graph::BlockedPartition partition(cfg.nodes, cfg.hosts);
  sim::ClusterOptions copts;
  copts.numHosts = cfg.hosts;
  copts.workerThreadsPerHost = threads;
  const auto report = sim::runCluster(copts, [&](sim::HostContext& ctx) {
    ModelGraph& model = *run.replicas[ctx.id()];
    SyncEngine engine(ctx, model, partition, reducer, cfg.strategy, sopts);
    std::vector<float> d;
    for (unsigned round = 0; round < cfg.rounds; ++round) {
      for (int label = 0; label < graph::kNumLabels; ++label) {
        for (std::uint32_t node = 0; node < cfg.nodes; ++node) {
          if (!plan.touches(round, ctx.id(), node, label)) continue;
          plan.delta(round, ctx.id(), node, label, d);
          util::add(d, model.mutableRow(static_cast<Label>(label), node));
          model.markTouched(static_cast<Label>(label), node);
        }
      }
      engine.sync();
    }
  });
  run.totalBytes = report.totalBytes();
  return run;
}

class SyncFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(SyncFuzz, ReplicasMatchOracle) {
  const FuzzConfig cfg = GetParam();
  const UpdatePlan plan(cfg);
  const auto reducer = makeReducer(cfg.reducerKind);

  std::vector<std::unique_ptr<ModelGraph>> replicas(cfg.hosts);
  for (auto& r : replicas) r = std::make_unique<ModelGraph>(cfg.nodes, cfg.dim);

  const graph::BlockedPartition partition(cfg.nodes, cfg.hosts);
  sim::ClusterOptions copts;
  copts.numHosts = cfg.hosts;
  sim::runCluster(copts, [&](sim::HostContext& ctx) {
    ModelGraph& model = *replicas[ctx.id()];
    SyncEngine engine(ctx, model, partition, *reducer, cfg.strategy);
    std::vector<float> d;
    for (unsigned round = 0; round < cfg.rounds; ++round) {
      for (int label = 0; label < graph::kNumLabels; ++label) {
        for (std::uint32_t node = 0; node < cfg.nodes; ++node) {
          if (!plan.touches(round, ctx.id(), node, label)) continue;
          plan.delta(round, ctx.id(), node, label, d);
          util::add(d, model.mutableRow(static_cast<Label>(label), node));
          model.markTouched(static_cast<Label>(label), node);
        }
      }
      engine.sync();
    }
  });

  const auto oracle = runOracle(cfg, *reducer);
  // Under Naive/Opt every replica must equal the oracle; under the
  // parameterless Pull sync (will-access = everything) the same holds.
  for (unsigned host = 0; host < cfg.hosts; ++host) {
    for (int label = 0; label < graph::kNumLabels; ++label) {
      for (std::uint32_t node = 0; node < cfg.nodes; ++node) {
        const auto got = replicas[host]->row(static_cast<Label>(label), node);
        const float* want =
            oracle.data() + (static_cast<std::size_t>(label) * cfg.nodes + node) * cfg.dim;
        for (std::uint32_t k = 0; k < cfg.dim; ++k) {
          ASSERT_EQ(got[k], want[k]) << "host " << host << " label " << label << " node "
                                     << node << " dim " << k;
        }
      }
    }
  }
}

std::vector<FuzzConfig> fuzzConfigs() {
  std::vector<FuzzConfig> out;
  std::uint64_t seed = 1000;
  for (const unsigned hosts : {1u, 2u, 3u, 5u}) {
    for (const int reducer : {0, 1, 2}) {
      for (const auto strategy :
           {SyncStrategy::kRepModelNaive, SyncStrategy::kRepModelOpt,
            SyncStrategy::kPullModel}) {
        out.push_back(FuzzConfig{hosts, 17, 3, 4, reducer, strategy, seed++});
      }
    }
  }
  // A couple of stranger shapes.
  out.push_back(FuzzConfig{4, 1, 8, 3, 0, SyncStrategy::kRepModelOpt, 77});
  out.push_back(FuzzConfig{6, 64, 1, 2, 2, SyncStrategy::kRepModelOpt, 78});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Patterns, SyncFuzz, ::testing::ValuesIn(fuzzConfigs()));

class SyncFuzzParallel : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(SyncFuzzParallel, ParallelMatchesSerialReference) {
  const FuzzConfig cfg = GetParam();
  const auto reducer = makeReducer(cfg.reducerKind);

  SyncOptions serialOpts;
  serialOpts.serial = true;
  serialOpts.codec = cfg.codec;
  const EngineRun serial = runEngine(cfg, *reducer, 1, serialOpts);

  SyncOptions parallelOpts;
  parallelOpts.codec = cfg.codec;
  const EngineRun parallel = runEngine(cfg, *reducer, cfg.threads, parallelOpts);

  EXPECT_EQ(serial.totalBytes, parallel.totalBytes);
  for (unsigned host = 0; host < cfg.hosts; ++host) {
    for (int label = 0; label < graph::kNumLabels; ++label) {
      for (std::uint32_t node = 0; node < cfg.nodes; ++node) {
        const auto got = parallel.replicas[host]->row(static_cast<Label>(label), node);
        const auto want = serial.replicas[host]->row(static_cast<Label>(label), node);
        for (std::uint32_t k = 0; k < cfg.dim; ++k) {
          ASSERT_EQ(got[k], want[k])
              << "host " << host << " label " << label << " node " << node << " dim " << k
              << " threads " << cfg.threads << " codec "
              << syncCodecName(cfg.codec);
        }
      }
    }
  }
}

std::vector<FuzzConfig> parallelConfigs() {
  std::vector<FuzzConfig> out;
  std::uint64_t seed = 9000;
  // Full codec grid: every codec (fp32 exact, fp16/int8 lossy + error
  // feedback) must make the parallel engine bit- and byte-identical to the
  // serial reference at every host/thread/strategy shape. Each cell runs two
  // model shapes: 33 nodes × dim 5, and 6 nodes × dim 9, where at H=8 some
  // hosts own no rows and every worker's row slice is empty or tiny.
  struct Shape {
    std::uint32_t nodes;
    std::uint32_t dim;
  };
  for (const auto codec : {SyncCodec::kFp32, SyncCodec::kFp16, SyncCodec::kInt8}) {
    for (const unsigned hosts : {1u, 2u, 4u, 8u}) {
      for (const unsigned threads : {1u, 2u, 4u}) {
        for (const auto strategy :
             {SyncStrategy::kRepModelNaive, SyncStrategy::kRepModelOpt,
              SyncStrategy::kPullModel}) {
          for (const Shape shape : {Shape{33, 5}, Shape{6, 9}}) {
            out.push_back(FuzzConfig{hosts, shape.nodes, shape.dim, 3, 2, strategy, seed++,
                                     threads, codec});
          }
        }
      }
    }
  }
  // Extra seeds off the main grid, including the SUM reducer (kind 0) at
  // H=4/T=2, which the grid above does not run.
  for (const auto codec : {SyncCodec::kFp32, SyncCodec::kFp16, SyncCodec::kInt8}) {
    for (const auto strategy :
         {SyncStrategy::kRepModelNaive, SyncStrategy::kRepModelOpt, SyncStrategy::kPullModel}) {
      out.push_back(FuzzConfig{2, 33, 5, 3, 2, strategy, seed++, 4, codec});
      out.push_back(FuzzConfig{4, 33, 5, 3, 0, strategy, seed++, 2, codec});
      out.push_back(FuzzConfig{8, 33, 5, 3, 2, strategy, seed++, 4, codec});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, SyncFuzzParallel, ::testing::ValuesIn(parallelConfigs()));

}  // namespace
}  // namespace gw2v::comm
