// ps_async — the asynchronous parameter server on a text corpus: 1 server
// and 3 workers (4 ranks, one thread each), SSP staleness 2, the int8 wire
// codec with push and reply error feedback. It runs the ps client and
// server, their row cache, the SSP clocks and the point-to-point transport,
// all of which the BSP workloads bypass.

#include <optional>

#include "harness.h"
#include "ps/trainer.h"

using namespace gw2v;

namespace perfbench {

namespace {
constexpr unsigned kRanks = 4;
constexpr unsigned kServers = 1;
constexpr unsigned kEpochs = 3;
constexpr unsigned kRoundsPerEpoch = 4;
// Chance is about 1/|V| (< 0.1%); measured accuracy is 0.33-0.47.
constexpr double kQualityFloor = 0.15;

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}
}  // namespace

Result runPsAsync(const Args& a, Tracer& t) {
  Result r;
  TextInputs in;
  TrainingOutcome o;
  o.hosts = kRanks;
  SetupSampler setup(r, t, [&](Metrics& parts, bool first) {
    TextInputs scratch;
    return buildTextInputs(t, parts, 1.0, mixSeed(a.seed, 0x95a5), first ? in : scratch);
  });
  setup.sample();

  ps::PsTrainOptions opts;
  opts.sgns = workloadSgns();
  opts.epochs = kEpochs;
  opts.roundsPerEpoch = kRoundsPerEpoch;
  opts.numHosts = kRanks;
  opts.numServers = kServers;
  opts.staleness = 2;
  opts.reduction = core::Reduction::kModelCombiner;
  opts.codec = comm::SyncCodec::kInt8;
  opts.pushErrorFeedback = true;
  opts.replyErrorFeedback = true;
  opts.trackLoss = false;
  opts.seed = mixSeed(a.seed, 0x5eed);
  std::fprintf(stderr, "ps_async: vocab %u, %zu tokens x %u epochs, %u rounds/epoch\n",
               in.vocab.size(), in.corpus.size(), kEpochs, opts.roundsPerEpoch);

  std::optional<graph::ModelGraph> firstModel;
  const auto reps = timedTrainingReps(a, t, setup, [&] {
    ps::PsResult res;
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(t, "ps.train");
      res = ps::trainAsyncPs(in.vocab, in.corpus, opts);
    }
    TrainRep rep = repOf(res.cluster, res.model, secondsSince(t0), res.modelledSeconds,
                         static_cast<std::uint64_t>(in.corpus.size()) * kEpochs,
                         res.totalExamples);
    const ps::ClientStats& c = res.client;
    const ps::ServerStats& s = res.server;
    rep.layers["ps.client.rows_requested"] = static_cast<double>(c.rowsRequested);
    rep.layers["ps.client.cache_claim_ratio"] = ratio(c.cacheClaims, c.rowsRequested);
    rep.layers["ps.client.values_fresh"] = static_cast<double>(c.valuesFresh);
    rep.layers["ps.client.chunks_pushed"] = static_cast<double>(c.chunksPushed);
    rep.layers["ps.server.folded_contributions"] = static_cast<double>(s.foldedContributions);
    rep.layers["ps.server.parked_get_ratio"] = ratio(s.parkedGets, s.servedGets);
    rep.layers["ps.server.cached_value_ratio"] =
        ratio(s.cachedValues, s.cachedValues + s.freshValues);
    rep.layers["ps.modelled_s"] = res.modelledSeconds;
    if (!firstModel) firstModel = std::move(res.model);
    return rep;
  });
  o.setup = setup.stats();

  {
    Tracer::Scope span(t, "eval");
    const auto t0 = Clock::now();
    o.quality = analogyAccuracy(in, *firstModel);
    o.evalSeconds = secondsSince(t0);
  }
  o.qualityFloor = kQualityFloor;
  o.qualityName = "analogy accuracy";
  summarizeTraining(r, a, t, reps, o);
  return r;
}

}  // namespace perfbench
