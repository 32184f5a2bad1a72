// graph_sync — the sync-bound workload. node2vec walks (p 0.5, q 2, length
// 40, one walk per node) over a planted-community graph, streamed through
// RandomWalkCorpus and text::streamSource into 4 hosts x 1 thread with
// RepModel-Opt, 96 sync rounds per epoch, the int8 wire codec with error
// feedback and the per-pair SGNS step (batch 1). Many rounds over a
// vocabulary every round touches make pack/exchange/fold/apply a large share
// of training wall time, while text_bsp's batched kernel is bypassed.
//
// The walk producers (one per shard) are extra threads, but they block on
// full rings almost all the time: walks are generated far faster than they
// are trained on, so the timed phase still keeps 4 threads busy.

#include <optional>

#include "core/trainer.h"
#include "eval/embedding_view.h"
#include "eval/link_prediction.h"
#include "graph/random_walks.h"
#include "graph/synthetic.h"
#include "harness.h"
#include "text/streaming.h"
#include "util/rng.h"

using namespace gw2v;

namespace perfbench {

namespace {
constexpr unsigned kHosts = 4;
constexpr unsigned kCommunities = 512;
constexpr unsigned kNodesPerCommunity = 32;
constexpr unsigned kSyncRounds = 96;
// Random embeddings score 0.5.
constexpr double kQualityFloor = 0.75;

struct GraphInputs {
  graph::CommunityGraph community;
  eval::EdgeSplit split;
  std::optional<graph::CSRGraph> train;
  std::optional<graph::NodeVocabulary> nodes;
  // References train and nodes; the walker's alias tables are built here.
  std::optional<graph::RandomWalkCorpus> walks;
};
}  // namespace

Result runGraphSync(const Args& a, Tracer& t) {
  Result r;
  TrainingOutcome o;
  o.hosts = kHosts;
  const std::uint64_t graphSeed = mixSeed(a.seed, 0x6a4f);
  graph::WalkOptions wopts;
  wopts.walksPerNode = 1;
  wopts.walkLength = 40;
  wopts.p = 0.5f;
  wopts.q = 2.0f;
  wopts.seed = mixSeed(a.seed, 0x3a1c);
  wopts.chunkTokens = 4096;
  GraphInputs in;
  SetupSampler setup(r, t, [&](Metrics& parts, bool first) {
    GraphInputs scratch;
    GraphInputs& g = first ? in : scratch;
    timedPart(t, parts, "graph.build", "graph.build_s", [&] {
      graph::CommunityGraphSpec spec;
      spec.communities = kCommunities;
      spec.nodesPerCommunity = kNodesPerCommunity;
      spec.intraEdgesPerNode = 6;
      spec.interEdgesPerNode = 1;
      spec.seed = graphSeed;
      g.community = graph::makeCommunityGraph(spec);
      std::vector<graph::Edge> undirected;
      for (const auto& e : g.community.edges)
        if (e.src < e.dst) undirected.push_back(e);
      g.split = eval::splitEdges(undirected, 0.1, graphSeed);
      g.walks.reset();
      g.train.emplace(g.community.numNodes, graph::symmetrize(g.split.train));
      g.nodes.emplace(graph::degreeVocabulary(*g.train));
      g.walks.emplace(*g.train, *g.nodes, wopts, kHosts);
    });
    std::uint64_t h = g.nodes->vocab.size();
    for (const auto& e : g.split.held)
      h = util::hash64(h ^ (std::uint64_t{e.src} << 32 | e.dst));
    return h;
  });
  setup.sample();

  text::StreamingCorpus::Options sopts;
  sopts.chunkTokens = wopts.chunkTokens;
  sopts.ringChunks = 4;

  core::TrainOptions opts;
  opts.sgns = workloadSgns();
  opts.sgns.subsample = 0;  // node "words" are never downsampled
  opts.sgns.negatives = 5;
  // One walk per node and one epoch give each node ~40 occurrences; at the
  // text default (0.025) held-out link AUC stays near chance (0.53).
  opts.sgns.alpha = 0.05f;
  opts.sgns.batchSize = 1;
  opts.epochs = 1;
  opts.numHosts = kHosts;
  opts.workerThreadsPerHost = 1;
  opts.syncRoundsPerEpoch = kSyncRounds;
  opts.strategy = comm::SyncStrategy::kRepModelOpt;
  opts.reduction = core::Reduction::kModelCombiner;
  opts.trackLoss = false;
  opts.seed = mixSeed(a.seed, 0x5eed);
  opts.sync.codec = comm::SyncCodec::kInt8;
  opts.sync.errorFeedback = true;
  const core::GraphWord2Vec trainer(in.nodes->vocab, opts);

  const std::uint64_t tokensPerEpoch = in.walks->totalTokensPerEpoch();
  std::fprintf(stderr, "graph_sync: %u nodes, %llu walk tokens/epoch, %u sync rounds\n",
               in.community.numNodes, static_cast<unsigned long long>(tokensPerEpoch),
               kSyncRounds);

  std::optional<graph::ModelGraph> firstModel;
  const auto reps = timedTrainingReps(a, t, setup, [&] {
    TimedSource walkTimer(*in.walks, t, "graph.walk_chunk");
    core::TrainResult res;
    double ingestWait = 0.0;
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(t, "core.train");
      const Tracer::Ambient ambient(t, span.id());
      const auto stream = text::streamSource(walkTimer, sopts);
      TimedSource source(*stream, t, "text.next_chunk");
      res = trainer.train(source, epochSpans(t, span.id()));
      ingestWait = source.maxPullSeconds();
    }  // joins the producers, so walkTimer's totals are final
    TrainRep rep = repOf(res.cluster, res.model, secondsSince(t0),
                         res.cluster.simulatedSeconds(), tokensPerEpoch * opts.epochs,
                         res.totalExamples);
    rep.layers["text.ingest_wait_s"] = ingestWait;
    rep.layers["graph.walk_tokens_per_s"] = walkTimer.tokensPerPullSecond();
    if (!firstModel) firstModel = std::move(res.model);
    return rep;
  });
  o.setup = setup.stats();

  {
    Tracer::Scope span(t, "eval");
    const auto t0 = Clock::now();
    const eval::EmbeddingView view(*firstModel, in.nodes->vocab);
    o.quality = eval::linkAuc(view, *in.nodes, *in.train, in.split.held, graphSeed);
    o.evalSeconds = secondsSince(t0);
  }
  o.qualityFloor = kQualityFloor;
  o.qualityName = "held-out link AUC";
  summarizeTraining(r, a, t, reps, o);
  return r;
}

}  // namespace perfbench
