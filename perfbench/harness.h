#pragma once

// Shared scaffolding for the perfbench workloads: command-line arguments,
// the metric catalogue, the result envelope (correct / attempted / failed /
// metrics), timing and statistics helpers, the in-memory span tracer, and
// the repetition loop the three training workloads share.
//
// Every workload follows one shape:
//   1. set-up, timed as a whole and repeated over the run (setup_s is the
//      median), each repetition checked to rebuild identical inputs;
//   2. a timed phase of --seconds seconds that keeps exactly kBusyThreads
//      threads busy (README.md says why four, and never more);
//   3. output checks (quality floor, exact repeat of deterministic outputs),
//      each failure counted into `failed`, never dropped.
// With --trace 1 the timed phase alternates untraced and traced repetitions:
// the untraced ones give the end-to-end figures printed beside the per-layer
// table, the traced ones give spans, and the gap between their throughputs
// is the tracing overhead.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/sgns.h"
#include "core/trainer.h"
#include "graph/model_graph.h"
#include "sim/cluster.h"
#include "synth/generator.h"
#include "text/corpus_source.h"
#include "text/vocabulary.h"

namespace perfbench {

/// Threads every timed phase keeps busy: one per core of the 4-core target.
inline constexpr unsigned kBusyThreads = 4;

/// Set-up is repeated at least this many times; setup_s is the median.
inline constexpr unsigned kSetupMinReps = 6;

/// Training workloads interleave set-up repetitions with training runs until
/// set-up has taken this share of the time spent training (see SetupSampler).
inline constexpr double kSetupShare = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;  // Chrome trace-event JSON destination (trace runs)
};

/// Metric name -> value. Units come from the catalogue below.
using Metrics = std::map<std::string, double>;

struct MetricDef {
  std::string name;
  const char* unit;
};
/// Reported by every workload in untraced runs (BENCHMARK.json end_to_end).
const std::vector<MetricDef>& endToEndMetrics();
/// Reported by every workload in traced runs (BENCHMARK.json per_layer);
/// layers a workload bypasses read 0.
const std::vector<MetricDef>& perLayerMetrics();

/// What a workload hands back to main().
struct Result {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check

  /// Record one checked operation; a false `ok` counts as failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double median(std::vector<double> v);

/// Nearest-rank quantile q in (0, 1] of a non-empty sample.
double quantile(std::vector<double> v, double q);

/// Restart the kernel's peak-RSS watermark (VmHWM) of this process, so the
/// next peakRssMb() covers only what runs from here on.
void resetPeakRss();

/// Peak resident set (VmHWM) since the last resetPeakRss(), in MB.
double peakRssMb();

/// System-wide CPU time counters from /proc/stat (jiffies).
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes readCpuTimes();

/// Share of CPU time between two readings that the hypervisor stole from
/// this machine: a measure of outside interference, not of the program.
double stealShare(const CpuTimes& before, const CpuTimes& after);

/// Hash of every row of both labels' tables over the float bit patterns:
/// equal for bit-identical models.
std::uint64_t modelChecksum(const gw2v::graph::ModelGraph& model);

/// Deterministic input seed for one input of a workload, derived from --seed.
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

// ---------------------------------------------------------------------------
// Tracing. Spans live in memory and are written once, at exit, as Chrome
// trace-event JSON (chrome://tracing, Perfetto). A span's parent is the
// innermost open span on the same thread, else the "ambient" span the main
// thread set for work it fans out to other threads (hosts, producers,
// clients).

struct Span {
  const char* name = "";  // a string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t tid = 0;
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
};

class Tracer {
 public:
  Tracer();

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void setEnabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// RAII span; a no-op while the tracer is disabled.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const noexcept { return id_; }

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    double start_ = 0.0;
  };

  /// Makes `id` the parent of spans opened on threads with no open span;
  /// restores the previous ambient span on destruction.
  class Ambient {
   public:
    Ambient(Tracer& t, std::uint64_t id);
    ~Ambient();
    Ambient(const Ambient&) = delete;
    Ambient& operator=(const Ambient&) = delete;

   private:
    Tracer& tracer_;
    std::uint64_t prev_;
  };

  /// Record a finished interval measured elsewhere (epoch boundaries).
  void record(const char* name, double start, double end, std::uint64_t parent);

  double now() const { return secondsSince(origin_); }

  /// Self time per span name: duration minus the part of the span's
  /// interval its children cover (union of child intervals, any thread).
  std::map<std::string, double> selfSeconds() const;

  /// Write every span as Chrome trace-event JSON; false on I/O failure.
  bool writeChromeTrace(const std::string& path) const;

 private:
  std::uint64_t parentForThisThread() const;

  Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> nextId_{1};
  std::atomic<std::uint64_t> ambient_{0};
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// Adds "self.<span>_s" for every span name in the catalogue: self seconds
/// per set-up repetition for set-up spans, per traced repetition for
/// timed-phase spans. A span name this workload never opens reads 0.
void addSelfTimes(Metrics& m, const Tracer& t, unsigned setupReps, unsigned tracedReps);

struct SetupStats {
  double seconds = 0.0;  // median repetition
  unsigned reps = 0;
  Metrics parts;         // median of every part
};

/// Repeated, timed set-up. The first repetition builds the inputs the timed
/// phase uses; later ones rebuild them into scratch objects and must yield
/// the same digest (a failed check otherwise). The host's speed drifts
/// within seconds, so the repetitions are spread over the run rather than
/// taken in one block: training workloads run some after every training
/// run, serve_ann runs the rest after its session.
class SetupSampler {
 public:
  /// Builds the inputs once (into the live objects when `first`, else into
  /// scratch ones), fills the part timings it measured (catalogue names
  /// such as "synth.generate_s") and returns a digest of what it built.
  using Once = std::function<std::uint64_t(Metrics& parts, bool first)>;

  SetupSampler(Result& r, Tracer& t, Once once);

  /// Runs one repetition.
  void sample();
  /// Runs repetitions until they have taken `seconds` in total.
  void sampleUntil(double seconds);
  /// Runs repetitions until there are at least kSetupMinReps.
  void topUp();

  /// Median repetition and part timings; prints their spread on stderr.
  SetupStats stats() const;

 private:
  Result& r_;
  Tracer& t_;
  Once once_;
  std::vector<double> totals_;
  std::map<std::string, std::vector<double>> parts_;
  std::uint64_t firstDigest_ = 0;
  double spent_ = 0.0;
};

/// Times `f` as one set-up part: span `span`, seconds into parts[metric].
template <class F>
void timedPart(Tracer& t, Metrics& parts, const char* span, const char* metric, F&& f) {
  Tracer::Scope s(t, span);
  const auto t0 = Clock::now();
  f();
  parts[metric] = secondsSince(t0);
}

/// CorpusSource decorator timing each shard's nextChunk from the caller's
/// side (a span per call while tracing). Materialized shards are forwarded
/// as such, so the trainer keeps its zero-copy path and never pulls. Each
/// shard is pulled by one thread; read the totals only after that thread
/// has finished with the source.
class TimedSource final : public gw2v::text::CorpusSource {
 public:
  TimedSource(gw2v::text::CorpusSource& inner, Tracer& t, const char* spanName);

  unsigned numShards() const noexcept override { return inner_.numShards(); }
  gw2v::text::CorpusShard& shard(unsigned s) override { return shards_[s]; }
  std::uint64_t bufferedBytesPeak() const noexcept override {
    return inner_.bufferedBytesPeak();
  }

  /// Largest per-shard total of seconds spent inside nextChunk.
  double maxPullSeconds() const;
  /// Tokens pulled per second spent inside nextChunk, over all shards.
  double tokensPerPullSecond() const;

 private:
  class Shard final : public gw2v::text::CorpusShard {
   public:
    Shard(gw2v::text::CorpusShard& inner, Tracer& t, const char* span)
        : inner_(&inner), tracer_(&t), span_(span) {}
    std::uint64_t tokensPerEpoch() const noexcept override { return inner_->tokensPerEpoch(); }
    void beginEpoch(unsigned epoch) override { inner_->beginEpoch(epoch); }
    std::span<const gw2v::text::WordId> nextChunk() override;
    std::optional<std::span<const gw2v::text::WordId>> materializedEpoch() const override {
      return inner_->materializedEpoch();
    }

    double seconds = 0.0;
    std::uint64_t tokens = 0;

   private:
    gw2v::text::CorpusShard* inner_;
    Tracer* tracer_;
    const char* span_;
  };

  gw2v::text::CorpusSource& inner_;
  std::vector<Shard> shards_;
};

/// Per-layer figures every ClusterReport carries: host compute and its
/// straggler ratio, sync phase maxima and their share of `wallSeconds`,
/// messages, collective rounds and modelled communication.
Metrics clusterLayers(const gw2v::sim::ClusterReport& c, double wallSeconds);

// ---------------------------------------------------------------------------
// Training workloads: one repetition is one whole training run.

struct TrainRep {
  bool traced = false;
  double wallSeconds = 0.0;
  double simSeconds = 0.0;  // modelled cluster seconds
  std::uint64_t tokens = 0;
  std::uint64_t checksum = 0;
  std::uint64_t wireBytes = 0;
  double peakRssMb = 0.0;   // peak RSS of this repetition
  double stealShare = 0.0;  // host steal during this repetition
  Metrics layers;  // per-layer counters/timers of this repetition
};

/// EpochObserver recording each epoch (previous boundary to this one, as seen
/// by host 0) as a "core.epoch" span under `trainSpan`.
gw2v::core::EpochObserver epochSpans(Tracer& t, std::uint64_t trainSpan);

/// The repetition record of one training run: timings, model checksum, wire
/// bytes and the cluster's per-layer figures.
TrainRep repOf(const gw2v::sim::ClusterReport& cluster, const gw2v::graph::ModelGraph& model,
               double wallSeconds, double simSeconds, std::uint64_t tokens,
               std::uint64_t examples);

/// Runs `once` until training has taken `a.seconds`, and at least twice so
/// the checksum repeat is always checked. After each training run, set-up
/// repetitions run until set-up has taken kSetupShare of the training time;
/// they are not part of any run's timing. In trace runs even repetitions
/// run untraced and odd ones traced (the tracer is switched around the
/// call, inside an open "rep" span).
std::vector<TrainRep> timedTrainingReps(const Args& a, Tracer& t, SetupSampler& setup,
                                        const std::function<TrainRep()>& once);

struct TrainingOutcome {
  SetupStats setup;
  double quality = 0.0;
  double qualityFloor = 0.0;
  const char* qualityName = "";
  double evalSeconds = 0.0;
  unsigned hosts = 0;
};

/// Checks the repetitions (exact checksum and wire repeat, quality floor)
/// and fills r.metrics: the end-to-end set from untraced repetitions, or in
/// trace runs the per-layer set from traced ones, printing the per-layer
/// table next to the untraced end-to-end figures.
void summarizeTraining(Result& r, const Args& a, const Tracer& t,
                       const std::vector<TrainRep>& reps, const TrainingOutcome& o);

/// stderr table of per-layer metrics beside the end-to-end figures.
void printTraceTable(const Metrics& endToEnd, const Metrics& perLayer, double overhead);

// ---------------------------------------------------------------------------
// Text inputs shared by text_bsp and ps_async.

struct TextInputs {
  gw2v::text::Vocabulary vocab;
  std::vector<gw2v::text::WordId> corpus;
  std::vector<gw2v::synth::AnalogyCategory> suite;
};

/// Set-up of the text workloads: generate the synthetic `1-billion` catalog
/// corpus at `scale` with `corpusSeed`, build its vocabulary, encode it.
/// Times the parts as synth.generate_s / text.vocab_s / text.encode_s and
/// returns a digest of the encoded corpus.
std::uint64_t buildTextInputs(Tracer& t, Metrics& parts, double scale, std::uint64_t corpusSeed,
                              TextInputs& out);

/// Analogy accuracy of `model` on the corpus's planted analogy suite.
double analogyAccuracy(const TextInputs& in, const gw2v::graph::ModelGraph& model);

/// SGNS hyper-parameters of the repository benches (bench/common.h).
gw2v::core::SgnsParams workloadSgns();

// Workload entry points (one translation unit each).
Result runTextBsp(const Args& a, Tracer& t);
Result runGraphSync(const Args& a, Tracer& t);
Result runPsAsync(const Args& a, Tracer& t);
Result runServeAnn(const Args& a, Tracer& t);

}  // namespace perfbench
