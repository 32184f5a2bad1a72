// text_bsp — the kernel-bound workload. GraphWord2Vec SGNS on the synthetic
// `1-billion` catalog corpus: 4 hosts x 1 thread, RepModel-Opt, model
// combiner, fp32 wire, default sync rounds, the shared-negative batched step
// (batch 16). Host compute dominates training wall time and sync takes a
// small share, so a faster SGNS kernel shows here.

#include <optional>

#include "core/trainer.h"
#include "eval/analogy.h"
#include "eval/embedding_view.h"
#include "harness.h"
#include "synth/catalog.h"
#include "synth/generator.h"
#include "text/corpus.h"
#include "text/tokenizer.h"
#include "util/rng.h"

using namespace gw2v;

namespace perfbench {

namespace {
constexpr unsigned kHosts = 4;
constexpr unsigned kEpochs = 6;
// Analogy questions per relation category (14 categories).
constexpr unsigned kQuestionsPerCategory = 240;
// Chance is about 1/|V| (< 0.1%); measured accuracy is 0.68-0.81.
constexpr double kQualityFloor = 0.2;
}  // namespace

std::uint64_t buildTextInputs(Tracer& t, Metrics& parts, double scale, std::uint64_t corpusSeed,
                              TextInputs& out) {
  synth::DatasetInfo info = synth::datasetByName("1-billion", scale);
  info.spec.seed = corpusSeed;
  const synth::CorpusGenerator gen(info.spec);
  std::string body;
  timedPart(t, parts, "synth.generate", "synth.generate_s", [&] {
    body = gen.generateText();
    out.suite = gen.analogySuite(kQuestionsPerCategory);
  });
  timedPart(t, parts, "text.vocab", "text.vocab_s", [&] {
    out.vocab = text::Vocabulary();
    text::forEachToken(body, [&](std::string_view tok) { out.vocab.addToken(tok); });
    out.vocab.finalize(/*minCount=*/5);
  });
  timedPart(t, parts, "text.encode", "text.encode_s",
            [&] { out.corpus = text::encode(body, out.vocab); });
  std::uint64_t h = out.vocab.size();
  for (const text::WordId w : out.corpus) h = util::hash64(h ^ w);
  return h;
}

double analogyAccuracy(const TextInputs& in, const graph::ModelGraph& model) {
  const eval::AnalogyTask task(in.suite, in.vocab);
  const eval::EmbeddingView view(model, in.vocab);
  return task.evaluate(view).total / 100.0;  // the report is in percent
}

core::SgnsParams workloadSgns() {
  // The repository benches' hyper-parameters (bench/common.h benchSgns):
  // window 5, 15 negatives, alpha 0.025, dim 32, subsample 1e-3.
  core::SgnsParams p;
  p.dim = 32;
  p.window = 5;
  p.negatives = 15;
  p.subsample = 1e-3;
  p.alpha = 0.025f;
  return p;
}

Result runTextBsp(const Args& a, Tracer& t) {
  Result r;
  TextInputs in;
  TrainingOutcome o;
  o.hosts = kHosts;
  SetupSampler setup(r, t, [&](Metrics& parts, bool first) {
    TextInputs scratch;
    return buildTextInputs(t, parts, 1.0, mixSeed(a.seed, 0x7e47), first ? in : scratch);
  });
  setup.sample();

  core::TrainOptions opts;
  opts.sgns = workloadSgns();
  opts.sgns.batchSize = 16;
  opts.epochs = kEpochs;
  opts.numHosts = kHosts;
  opts.workerThreadsPerHost = 1;
  opts.strategy = comm::SyncStrategy::kRepModelOpt;
  opts.reduction = core::Reduction::kModelCombiner;
  opts.trackLoss = false;
  opts.seed = mixSeed(a.seed, 0x5eed);
  opts.sync.codec = comm::SyncCodec::kFp32;
  const core::GraphWord2Vec trainer(in.vocab, opts);
  text::SpanCorpusSource base(in.corpus, kHosts);
  std::fprintf(stderr, "text_bsp: vocab %u, %zu tokens x %u epochs, %u sync rounds/epoch\n",
               in.vocab.size(), in.corpus.size(), kEpochs,
               trainer.options().syncRoundsPerEpoch);

  std::optional<graph::ModelGraph> firstModel;
  const auto reps = timedTrainingReps(a, t, setup, [&] {
    TimedSource source(base, t, "text.next_chunk");
    core::TrainResult res;
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(t, "core.train");
      const Tracer::Ambient ambient(t, span.id());
      res = trainer.train(source, epochSpans(t, span.id()));
    }
    TrainRep rep = repOf(res.cluster, res.model, secondsSince(t0),
                         res.cluster.simulatedSeconds(),
                         static_cast<std::uint64_t>(in.corpus.size()) * kEpochs,
                         res.totalExamples);
    rep.layers["text.ingest_wait_s"] = source.maxPullSeconds();
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
