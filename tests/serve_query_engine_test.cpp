// End-to-end SPMD tests of the sharded query engine on the simulated
// cluster: scatter-gather top-k must be identical (ids, order, scores) to
// the single-host eval::EmbeddingView, the rank-0 LRU must short-circuit
// repeats, and a snapshot published mid-run must be picked up by later
// batches without disturbing earlier answers.

#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "comm/serialize.h"
#include "comm/transport.h"
#include "eval/embedding_view.h"
#include "graph/model_graph.h"
#include "sim/cluster.h"
#include "text/vocabulary.h"

namespace gw2v::serve {
namespace {

constexpr std::uint32_t kVocab = 60;
constexpr std::uint32_t kDim = 12;

text::Vocabulary makeVocab(std::uint32_t n) {
  text::Vocabulary v;
  for (std::uint32_t i = 0; i < n; ++i) v.addCount("w" + std::to_string(i), 1000 - i);
  v.finalize(1);
  return v;
}

graph::ModelGraph makeModel(std::uint64_t seed) {
  graph::ModelGraph model(kVocab, kDim);
  model.randomizeEmbeddings(seed);
  return model;
}

/// Runs `client` against a QueryEngine front-end on an H-host simulated
/// cluster; every rank participates in the scoring rounds.
void runServe(unsigned numHosts, const SnapshotStore& store, ServeOptions opts,
              const std::function<void(QueryEngine&)>& client) {
  sim::ClusterOptions copts;
  copts.numHosts = numHosts;
  sim::runCluster(copts, [&](sim::HostContext& ctx) {
    comm::SimTransport transport(ctx.network());
    QueryEngine engine(transport, ctx.id(), store, opts);
    if (ctx.id() == 0) {
      std::thread clientThread([&] {
        client(engine);
        engine.shutdown();
      });
      engine.run();
      clientThread.join();
    } else {
      engine.run();
    }
  });
}

TEST(ServeQueryEngine, ShardedResultsMatchSingleHostReference) {
  const graph::ModelGraph model = makeModel(17);
  const text::Vocabulary vocab = makeVocab(kVocab);
  const eval::EmbeddingView view(model, vocab);

  for (const unsigned numHosts : {1u, 2u, 4u}) {
    SnapshotStore store(8);
    store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));
    ServeOptions opts;
    opts.cacheCapacity = 0;  // exercise the collective path on every query
    runServe(numHosts, store, opts, [&](QueryEngine& engine) {
      for (const unsigned k : {1u, 10u, 100u}) {
        for (text::WordId w = 0; w < kVocab; w += 13) {
          const QueryResult got = engine.queryWord(w, k);
          const auto want = view.nearestTo(w, k);
          ASSERT_EQ(got.neighbors.size(), want.size())
              << "H=" << numHosts << " k=" << k << " w=" << w;
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got.neighbors[i].id, want[i].word)
                << "H=" << numHosts << " k=" << k << " w=" << w << " pos=" << i;
            ASSERT_EQ(got.neighbors[i].score, want[i].similarity);
          }
          EXPECT_EQ(got.version, 1u);
          EXPECT_FALSE(got.cacheHit);
        }
      }
      // Arbitrary-vector queries with an unsorted exclude list.
      std::vector<float> raw(kDim);
      for (std::uint32_t d = 0; d < kDim; ++d) raw[d] = static_cast<float>(d) - 5.5f;
      const std::vector<text::WordId> exclude = {41, 2, 7, 2};
      const QueryResult got = engine.query(raw, 9, exclude);
      const auto want = view.nearest(raw, 9, exclude);
      ASSERT_EQ(got.neighbors.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.neighbors[i].id, want[i].word);
        EXPECT_EQ(got.neighbors[i].score, want[i].similarity);
      }
    });
  }
}

TEST(ServeQueryEngine, CacheShortCircuitsRepeatsAndCountsHits) {
  const graph::ModelGraph model = makeModel(23);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  ServeOptions opts;
  opts.cacheCapacity = 64;
  runServe(2, store, opts, [&](QueryEngine& engine) {
    const QueryResult miss = engine.queryWord(5, 10);
    EXPECT_FALSE(miss.cacheHit);
    const QueryResult hit = engine.queryWord(5, 10);
    EXPECT_TRUE(hit.cacheHit);
    ASSERT_EQ(hit.neighbors.size(), miss.neighbors.size());
    for (std::size_t i = 0; i < miss.neighbors.size(); ++i) {
      EXPECT_EQ(hit.neighbors[i].id, miss.neighbors[i].id);
      EXPECT_EQ(hit.neighbors[i].score, miss.neighbors[i].score);
    }
    // Different k is a different key.
    EXPECT_FALSE(engine.queryWord(5, 11).cacheHit);
    const auto& m = engine.metrics();
    EXPECT_EQ(m.cacheHits.load(), 1u);
    EXPECT_EQ(m.cacheMisses.load(), 2u);
    EXPECT_EQ(m.queries.load(), 3u);
    // The cache hit never became a collective round.
    EXPECT_EQ(m.batchedQueries.load(), 2u);
    EXPECT_DOUBLE_EQ(m.cacheHitRate(), 1.0 / 3.0);
  });
}

TEST(ServeQueryEngine, HotSwapMidRunServesNewVersionAndMissesCache) {
  const graph::ModelGraph model1 = makeModel(31);
  const graph::ModelGraph model2 = makeModel(77);
  const text::Vocabulary vocab = makeVocab(kVocab);
  const eval::EmbeddingView view1(model1, vocab);
  const eval::EmbeddingView view2(model2, vocab);

  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model1, &vocab, 1));

  ServeOptions opts;
  opts.cacheCapacity = 64;
  runServe(4, store, opts, [&](QueryEngine& engine) {
    const QueryResult before = engine.queryWord(3, 10);
    EXPECT_EQ(before.version, 1u);
    ASSERT_FALSE(before.neighbors.empty());
    EXPECT_EQ(before.neighbors[0].id, view1.nearestTo(3, 10)[0].word);

    store.publish(std::make_shared<const EmbeddingSnapshot>(model2, &vocab, 2));

    // Same query again: the version is part of the cache key, so this must
    // miss and be answered from the new snapshot.
    const QueryResult after = engine.queryWord(3, 10);
    EXPECT_FALSE(after.cacheHit);
    EXPECT_EQ(after.version, 2u);
    const auto want = view2.nearestTo(3, 10);
    ASSERT_EQ(after.neighbors.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(after.neighbors[i].id, want[i].word);
      EXPECT_EQ(after.neighbors[i].score, want[i].similarity);
    }
    EXPECT_GE(engine.metrics().snapshotSwaps.load(), 1u);
  });
  EXPECT_EQ(store.currentVersion(), 2u);
}

TEST(ServeQueryEngine, EdgeCases) {
  const graph::ModelGraph model = makeModel(13);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  runServe(2, store, {}, [&](QueryEngine& engine) {
    // Unknown word id: empty result, no round, no exception.
    const QueryResult unknown = engine.queryWord(kVocab + 100, 5);
    EXPECT_TRUE(unknown.neighbors.empty());
    EXPECT_EQ(unknown.version, 1u);
    // k larger than the vocabulary: everything except the excluded self.
    EXPECT_EQ(engine.queryWord(0, 10 * kVocab).neighbors.size(), kVocab - 1);
    // Wrong query dimensionality surfaces as invalid_argument.
    EXPECT_THROW(engine.query(std::vector<float>(kDim + 3, 1.0f), 5), std::invalid_argument);
  });
}

TEST(ServeQueryEngine, RejectsUnknownQueryMode) {
  const graph::ModelGraph model = makeModel(19);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  // Front end: a mode outside {kExact, kAnn} is the caller's error, not an
  // exact scan.
  runServe(2, store, {}, [&](QueryEngine& engine) {
    QueryOptions bad;
    bad.mode = static_cast<QueryMode>(7);
    EXPECT_THROW(engine.query(std::vector<float>(kDim, 1.0f), 5, {}, bad),
                 std::invalid_argument);
    EXPECT_THROW(engine.queryWord(0, 5, bad), std::invalid_argument);
  });

  // Wire: rank 0 hand-packs one batch whose mode word is 257. The worker must
  // reject it rather than truncate it into the uint8_t enum (257 -> kAnn).
  // Rank 0 then plays the rest of a well-formed round, so a worker that
  // accepts the batch finishes cleanly and the missing throw is what fails.
  struct WireHeader {  // QueryEngine::BatchHeader's layout
    std::uint32_t stop = 0;
    std::uint32_t count = 0;
    std::uint32_t dim = 0;
    std::uint32_t payloadBytes = 0;
    std::uint64_t version = 0;
  };
  sim::ClusterOptions copts;
  copts.numHosts = 2;
  try {
    sim::runCluster(copts, [&](sim::HostContext& ctx) {
      comm::SimTransport transport(ctx.network());
      if (ctx.id() == 1) {
        QueryEngine(transport, 1, store, {}).run();
        return;
      }
      comm::Collectives coll(transport, 0, comm::TagSpace::kServe);
      comm::ByteWriter w;
      w.putSpan<float>(std::vector<float>(kDim, 1.0f));
      for (const std::uint32_t word : {5u, 257u, 8u, 0u, 0u}) w.put<std::uint32_t>(word);
      std::vector<std::uint8_t> payload = w.take();
      WireHeader h;
      h.count = 1;
      h.dim = kDim;
      h.payloadBytes = static_cast<std::uint32_t>(payload.size());
      h.version = 1;
      coll.broadcast(std::span<WireHeader>(&h, 1), 0);
      coll.broadcast(std::span<std::uint8_t>(payload), 0);
      coll.gatherv({}, 0);
      WireHeader stop;
      stop.stop = 1;
      coll.broadcast(std::span<WireHeader>(&stop, 1), 0);
    });
    ADD_FAILURE() << "worker accepted query mode 257";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown query mode"), std::string::npos) << e.what();
  }
}

TEST(ServeQueryEngine, BatchingAmortizesRoundsAcrossConcurrentClients) {
  const graph::ModelGraph model = makeModel(47);
  const text::Vocabulary vocab = makeVocab(kVocab);
  SnapshotStore store(8);
  store.publish(std::make_shared<const EmbeddingSnapshot>(model, &vocab, 1));

  ServeOptions opts;
  opts.cacheCapacity = 0;
  opts.maxBatch = 8;
  opts.batchWindowMicros = 3000;
  constexpr unsigned kClients = 4;
  constexpr unsigned kPerClient = 6;
  runServe(2, store, opts, [&](QueryEngine& engine) {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (unsigned i = 0; i < kPerClient; ++i) {
          const auto res = engine.queryWord((c * kPerClient + i) % kVocab, 5);
          ASSERT_EQ(res.neighbors.size(), 5u);
        }
      });
    }
    for (auto& t : clients) t.join();
    const auto& m = engine.metrics();
    EXPECT_EQ(m.queries.load(), kClients * kPerClient);
    EXPECT_EQ(m.batchedQueries.load(), kClients * kPerClient);
    // The window must have coalesced at least some requests (strictly fewer
    // rounds than queries would be flaky-free only with generous windows, so
    // just assert the accounting is consistent).
    EXPECT_GE(m.batches.load(), 1u);
    EXPECT_LE(m.batches.load(), m.batchedQueries.load());
    EXPECT_GT(m.batchOccupancy(opts.maxBatch), 0.0);
    EXPECT_GT(m.latency.count(), 0u);
  });
}

TEST(ServeQueryEngine, RunWithoutPublishedSnapshotThrows) {
  SnapshotStore store(8);
  sim::ClusterOptions copts;
  copts.numHosts = 1;
  EXPECT_THROW(sim::runCluster(copts,
                               [&](sim::HostContext& ctx) {
                                 comm::SimTransport transport(ctx.network());
                                 QueryEngine engine(transport, ctx.id(), store, {});
                                 engine.shutdown();
                                 engine.run();
                               }),
               std::runtime_error);
}

TEST(ServeQueryEngine, ConstructorValidatesOptions) {
  SnapshotStore small(1);
  sim::ClusterOptions copts;
  copts.numHosts = 2;
  EXPECT_THROW(sim::runCluster(copts,
                               [&](sim::HostContext& ctx) {
                                 comm::SimTransport transport(ctx.network());
                                 QueryEngine engine(transport, ctx.id(), small, {});
                               }),
               std::invalid_argument);
}

}  // namespace
}  // namespace gw2v::serve
