#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/rng.h"

namespace perfbench {

const std::vector<MetricDef>& endToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"throughput_per_core", "1/s"},
      {"sim_throughput_per_core", "1/s"},
      {"wire_mb", "MB"},
      {"quality", "ratio"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

namespace {

// Span names, grouped by what one occurrence of the group means: set-up
// spans are divided by the set-up repetitions, timed-phase spans by the
// traced repetitions, evaluation happens once.
enum class SpanGroup { kSetup, kRep, kOnce };
struct SpanDef {
  const char* name;
  SpanGroup group;
};
const std::vector<SpanDef>& spanDefs() {
  static const std::vector<SpanDef> defs = {
      {"setup", SpanGroup::kSetup},
      {"synth.generate", SpanGroup::kSetup},
      {"text.vocab", SpanGroup::kSetup},
      {"text.encode", SpanGroup::kSetup},
      {"graph.build", SpanGroup::kSetup},
      {"serve.ann_build", SpanGroup::kSetup},
      {"rep", SpanGroup::kRep},
      {"core.train", SpanGroup::kRep},
      {"core.epoch", SpanGroup::kRep},
      {"text.next_chunk", SpanGroup::kRep},
      {"graph.walk_chunk", SpanGroup::kRep},
      {"ps.train", SpanGroup::kRep},
      {"serve.query", SpanGroup::kRep},
      {"serve.republish", SpanGroup::kRep},
      {"serve.from_model", SpanGroup::kRep},
      {"serve.store_publish", SpanGroup::kRep},
      {"eval", SpanGroup::kOnce},
  };
  return defs;
}

std::string selfName(const char* span) { return std::string("self.") + span + "_s"; }

}  // namespace

const std::vector<MetricDef>& perLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"core.compute_s", "s"},
        {"core.examples", "count"},
        {"core.straggler_ratio", "ratio"},
        {"text.ingest_wait_s", "s"},
        {"graph.walk_tokens_per_s", "1/s"},
        {"synth.generate_s", "s"},
        {"text.vocab_s", "s"},
        {"text.encode_s", "s"},
        {"graph.build_s", "s"},
        {"comm.sync.pack_s", "s"},
        {"comm.sync.exchange_s", "s"},
        {"comm.sync.fold_s", "s"},
        {"comm.sync.apply_s", "s"},
        {"comm.sync.share", "ratio"},
        {"comm.messages", "count"},
        {"comm.collective_rounds", "count"},
        {"sim.modelled_comm_s", "s"},
        {"ps.client.rows_requested", "count"},
        {"ps.client.cache_claim_ratio", "ratio"},
        {"ps.client.values_fresh", "count"},
        {"ps.client.chunks_pushed", "count"},
        {"ps.server.folded_contributions", "count"},
        {"ps.server.parked_get_ratio", "ratio"},
        {"ps.server.cached_value_ratio", "ratio"},
        {"ps.modelled_s", "s"},
        {"serve.latency_p50_ms", "ms"},
        {"serve.latency_p99_ms", "ms"},
        {"serve.session_peak_rss_mb", "MB"},
        {"serve.ann_centroid_us_per_query", "us"},
        {"serve.ann_score_us_per_query", "us"},
        {"serve.exact_scan_us_per_query", "us"},
        {"serve.merge_us_per_query", "us"},
        {"serve.ann_candidate_ratio", "ratio"},
        {"serve.cache_hit_rate", "ratio"},
        {"serve.batch_occupancy", "ratio"},
        {"serve.rounds_per_query", "ratio"},
        {"serve.bytes_per_query", "B"},
        {"serve.snapshot_swaps", "count"},
        {"serve.ann_fallbacks", "count"},
        {"serve.publish_ms", "ms"},
        {"serve.ann_build_s", "s"},
        {"eval.s", "s"},
        {"trace.overhead_ratio", "ratio"},
        {"host.steal_ratio", "ratio"},
    };
    for (const auto& s : spanDefs()) d.push_back({selfName(s.name), "s"});
    return d;
  }();
  return defs;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void resetPeakRss() {
  // "5" resets the peak RSS watermark (Documentation/filesystems/proc.rst).
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peakRssMb() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

CpuTimes readCpuTimes() {
  CpuTimes t;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    // cpu user nice system idle iowait irq softirq steal ...
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (const auto x : v) t.total += x;
      t.steal = v[7];
    }
    std::fclose(f);
  }
  return t;
}

double stealShare(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0 : static_cast<double>(after.steal - before.steal) / total;
}

std::uint64_t modelChecksum(const gw2v::graph::ModelGraph& model) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int l = 0; l < gw2v::graph::kNumLabels; ++l) {
    for (std::uint32_t n = 0; n < model.numNodes(); ++n) {
      for (const float x : model.row(static_cast<gw2v::graph::Label>(l), n)) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &x, sizeof bits);
        h = gw2v::util::hash64(h ^ bits);
      }
    }
  }
  return h;
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  return gw2v::util::hash64(gw2v::util::hash64(seed) ^ salt);
}

// ---------------------------------------------------------------------------
// Tracer

namespace {
thread_local std::vector<std::uint64_t> tlsOpen;  // open span ids, this thread

std::uint64_t threadKey() {
  return static_cast<std::uint64_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
}
}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t Tracer::parentForThisThread() const {
  return tlsOpen.empty() ? ambient_.load(std::memory_order_relaxed) : tlsOpen.back();
}

Tracer::Scope::Scope(Tracer& t, const char* name) : tracer_(&t), name_(name) {
  if (!t.enabled()) return;
  id_ = t.nextId_.fetch_add(1, std::memory_order_relaxed);
  parent_ = t.parentForThisThread();
  start_ = t.now();
  tlsOpen.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (id_ == 0) return;
  Span s;
  s.name = name_;
  s.id = id_;
  s.parent = parent_;
  s.tid = threadKey();
  s.start = start_;
  s.end = tracer_->now();
  tlsOpen.pop_back();
  const std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(std::move(s));
}

Tracer::Ambient::Ambient(Tracer& t, std::uint64_t id)
    : tracer_(t), prev_(t.ambient_.exchange(id, std::memory_order_relaxed)) {}

Tracer::Ambient::~Ambient() { tracer_.ambient_.store(prev_, std::memory_order_relaxed); }

void Tracer::record(const char* name, double start, double end, std::uint64_t parent) {
  if (!enabled()) return;
  Span s;
  s.name = name;
  s.id = nextId_.fetch_add(1, std::memory_order_relaxed);
  s.parent = parent;
  s.tid = threadKey();
  s.start = start;
  s.end = end;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::selfSeconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double curLo = 0.0, curHi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (lo > curHi) {
          if (curHi > curLo) covered += curHi - curLo;
          curLo = lo;
          curHi = hi;
        } else {
          curHi = std::max(curHi, hi);
        }
      }
      if (curHi > curLo) covered += curHi - curLo;
    }
    out[s.name] += std::max(0.0, (s.end - s.start) - covered);
  }
  return out;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, unsigned> tids;  // thread keys -> small ids
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const unsigned tid = tids.emplace(s.tid, static_cast<unsigned>(tids.size())).first->second;
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu}}%s\n",
                 s.name, tid, s.start * 1e6, (s.end - s.start) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void addSelfTimes(Metrics& m, const Tracer& t, unsigned setupReps, unsigned tracedReps) {
  const auto self = t.selfSeconds();
  for (const auto& def : spanDefs()) {
    const auto it = self.find(def.name);
    const double total = it == self.end() ? 0.0 : it->second;
    double per = 1.0;
    if (def.group == SpanGroup::kSetup) per = std::max(1u, setupReps);
    if (def.group == SpanGroup::kRep) per = std::max(1u, tracedReps);
    m[selfName(def.name)] = total / per;
  }
}

SetupSampler::SetupSampler(Result& r, Tracer& t, Once once)
    : r_(r), t_(t), once_(std::move(once)) {}

void SetupSampler::sample() {
  Metrics p;
  const bool first = totals_.empty();
  const auto t0 = Clock::now();
  std::uint64_t digest = 0;
  {
    Tracer::Scope span(t_, "setup");
    digest = once_(p, first);
  }
  totals_.push_back(secondsSince(t0));
  spent_ += totals_.back();
  for (const auto& [name, v] : p) parts_[name].push_back(v);
  if (first) firstDigest_ = digest;
  r_.check(digest == firstDigest_, "set-up repetition rebuilt different inputs");
}

void SetupSampler::sampleUntil(double seconds) {
  while (spent_ < seconds) sample();
}

void SetupSampler::topUp() {
  while (totals_.size() < kSetupMinReps) sample();
}

SetupStats SetupSampler::stats() const {
  SetupStats out;
  out.seconds = median(totals_);
  out.reps = static_cast<unsigned>(totals_.size());
  for (const auto& [name, v] : parts_) out.parts[name] = median(v);
  std::fprintf(stderr, "set-up: %u repetitions, median %.4f s, quartiles %.4f / %.4f s\n",
               out.reps, out.seconds, quantile(totals_, 0.25), quantile(totals_, 0.75));
  return out;
}

// ---------------------------------------------------------------------------
// Layer sources

TimedSource::TimedSource(gw2v::text::CorpusSource& inner, Tracer& t, const char* spanName)
    : inner_(inner) {
  shards_.reserve(inner.numShards());
  for (unsigned s = 0; s < inner.numShards(); ++s)
    shards_.emplace_back(inner.shard(s), t, spanName);
}

std::span<const gw2v::text::WordId> TimedSource::Shard::nextChunk() {
  Tracer::Scope span(*tracer_, span_);
  const auto t0 = Clock::now();
  const auto chunk = inner_->nextChunk();
  seconds += secondsSince(t0);
  tokens += chunk.size();
  return chunk;
}

double TimedSource::maxPullSeconds() const {
  double worst = 0.0;
  for (const Shard& s : shards_) worst = std::max(worst, s.seconds);
  return worst;
}

double TimedSource::tokensPerPullSecond() const {
  double secs = 0.0;
  std::uint64_t tokens = 0;
  for (const Shard& s : shards_) {
    secs += s.seconds;
    tokens += s.tokens;
  }
  return secs > 0.0 ? static_cast<double>(tokens) / secs : 0.0;
}

Metrics clusterLayers(const gw2v::sim::ClusterReport& c, double wallSeconds) {
  Metrics m;
  double sumCompute = 0.0;
  std::uint64_t messages = 0, rounds = 0;
  for (const auto& h : c.hosts) {
    sumCompute += h.computeSeconds;
    messages += h.comm.messagesSent;
    rounds = std::max(rounds, h.comm.collectiveRounds);
  }
  const double maxCompute = c.maxComputeSeconds();
  const double meanCompute = c.hosts.empty() ? 0.0 : sumCompute / c.hosts.size();
  const auto sync = c.maxSyncPhaseSeconds();
  m["core.compute_s"] = maxCompute;
  m["core.straggler_ratio"] = meanCompute > 0.0 ? maxCompute / meanCompute : 0.0;
  m["comm.sync.pack_s"] = sync.pack;
  m["comm.sync.exchange_s"] = sync.exchange;
  m["comm.sync.fold_s"] = sync.fold;
  m["comm.sync.apply_s"] = sync.apply;
  m["comm.sync.share"] = wallSeconds > 0.0 ? sync.total() / wallSeconds : 0.0;
  m["comm.messages"] = static_cast<double>(messages);
  m["comm.collective_rounds"] = static_cast<double>(rounds);
  m["sim.modelled_comm_s"] = c.maxModelledCommSeconds();
  return m;
}

// ---------------------------------------------------------------------------
// Training repetitions

gw2v::core::EpochObserver epochSpans(Tracer& t, std::uint64_t trainSpan) {
  return [&t, trainSpan, start = t.now()](const gw2v::core::EpochStats&,
                                          const gw2v::graph::ModelGraph&) mutable {
    const double now = t.now();
    t.record("core.epoch", start, now, trainSpan);
    start = now;
  };
}

TrainRep repOf(const gw2v::sim::ClusterReport& cluster, const gw2v::graph::ModelGraph& model,
               double wallSeconds, double simSeconds, std::uint64_t tokens,
               std::uint64_t examples) {
  TrainRep rep;
  rep.wallSeconds = wallSeconds;
  rep.simSeconds = simSeconds;
  rep.tokens = tokens;
  rep.checksum = modelChecksum(model);
  rep.wireBytes = cluster.totalBytes();
  rep.layers = clusterLayers(cluster, wallSeconds);
  rep.layers["core.examples"] = static_cast<double>(examples);
  return rep;
}

std::vector<TrainRep> timedTrainingReps(const Args& a, Tracer& t, SetupSampler& setup,
                                        const std::function<TrainRep()>& once) {
  std::vector<TrainRep> reps;
  double training = 0.0;
  while (reps.size() < 2 || training < a.seconds) {
    const bool traced = a.trace && reps.size() % 2 == 1;
    t.setEnabled(traced);
    TrainRep rep;
    resetPeakRss();
    const CpuTimes cpu0 = readCpuTimes();
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(t, "rep");
      rep = once();
    }
    training += secondsSince(t0);
    rep.stealShare = stealShare(cpu0, readCpuTimes());
    rep.peakRssMb = peakRssMb();
    t.setEnabled(a.trace);
    rep.traced = traced;
    reps.push_back(std::move(rep));
    setup.sampleUntil(kSetupShare * training);
  }
  setup.topUp();
  return reps;
}

namespace {

Metrics endToEndOf(const std::vector<const TrainRep*>& reps, const TrainingOutcome& o) {
  std::vector<double> thr, sim;
  for (const TrainRep* r : reps) {
    const double tokens = static_cast<double>(r->tokens);
    thr.push_back(tokens / r->wallSeconds / kBusyThreads);
    sim.push_back(tokens / r->simSeconds / o.hosts);
  }
  Metrics m;
  m["setup_s"] = o.setup.seconds;
  m["throughput_per_core"] = median(thr);
  m["sim_throughput_per_core"] = median(sim);
  m["wire_mb"] = static_cast<double>(reps.front()->wireBytes) / 1e6;
  m["quality"] = o.quality;
  // The first run trains in a fresh process, as a user who trains once per
  // process does. Later runs inherit the arenas glibc kept from earlier
  // ones, and their peaks differ from process to process (README.md).
  m["peak_rss_mb"] = reps.front()->peakRssMb;
  return m;
}

}  // namespace

void summarizeTraining(Result& r, const Args& a, const Tracer& t,
                       const std::vector<TrainRep>& reps, const TrainingOutcome& o) {
  for (std::size_t i = 1; i < reps.size(); ++i) {
    r.check(reps[i].checksum == reps[0].checksum,
            "training repetition " + std::to_string(i) + " produced a different model");
    r.check(reps[i].wireBytes == reps[0].wireBytes,
            "training repetition " + std::to_string(i) + " moved a different byte count");
  }
  char line[160];
  std::snprintf(line, sizeof line, "%s %.4f below the floor %.4f", o.qualityName, o.quality,
                o.qualityFloor);
  r.check(o.quality >= o.qualityFloor, line);

  std::vector<const TrainRep*> untraced, traced;
  for (const TrainRep& rep : reps) (rep.traced ? traced : untraced).push_back(&rep);
  const Metrics e2e = endToEndOf(untraced, o);
  std::fprintf(stderr, "training runs: %zu untraced, %zu traced; model checksum %016llx\n"
               "run walls (s):", untraced.size(), traced.size(),
               static_cast<unsigned long long>(reps[0].checksum));
  std::vector<double> steal;
  for (const TrainRep& rep : reps) {
    std::fprintf(stderr, " %.3f%s", rep.wallSeconds, rep.traced ? "t" : "");
    steal.push_back(rep.stealShare);
  }
  std::fprintf(stderr, "\npeak RSS per run (MB):");
  for (const TrainRep& rep : reps) std::fprintf(stderr, " %.1f", rep.peakRssMb);
  std::fprintf(stderr, "\nhost steal during training runs: median %.1f%%, max %.1f%%\n",
               median(steal) * 100, *std::max_element(steal.begin(), steal.end()) * 100);
  if (!a.trace) {
    r.metrics = e2e;
    return;
  }

  std::map<std::string, std::vector<double>> layers;
  for (const TrainRep* rep : traced) {
    for (const auto& [name, v] : rep->layers) layers[name].push_back(v);
    layers["host.steal_ratio"].push_back(rep->stealShare);
  }
  Metrics m;
  for (const auto& [name, v] : layers) m[name] = median(v);
  for (const auto& [name, v] : o.setup.parts) m[name] = v;
  m["eval.s"] = o.evalSeconds;
  std::vector<double> tracedThr;
  for (const TrainRep* rep : traced)
    tracedThr.push_back(rep->tokens / rep->wallSeconds / kBusyThreads);
  const double overhead = 1.0 - median(tracedThr) / e2e.at("throughput_per_core");
  m["trace.overhead_ratio"] = overhead;
  addSelfTimes(m, t, o.setup.reps, static_cast<unsigned>(traced.size()));
  printTraceTable(e2e, m, overhead);
  r.metrics = std::move(m);
}

void printTraceTable(const Metrics& endToEnd, const Metrics& perLayer, double overhead) {
  std::fprintf(stderr, "%-34s %16s\n", "end-to-end (untraced)", "value");
  for (const auto& def : endToEndMetrics()) {
    const auto it = endToEnd.find(def.name);
    if (it != endToEnd.end())
      std::fprintf(stderr, "  %-32s %16.6g %s\n", def.name.c_str(), it->second, def.unit);
  }
  std::fprintf(stderr, "%-34s %16s\n", "per-layer (traced)", "value");
  for (const auto& def : perLayerMetrics()) {
    const auto it = perLayer.find(def.name);
    if (it != perLayer.end() && it->second != 0.0)
      std::fprintf(stderr, "  %-32s %16.6g %s\n", def.name.c_str(), it->second, def.unit);
  }
  std::fprintf(stderr, "tracing overhead: %.2f%% of untraced throughput\n", overhead * 100.0);
}

}  // namespace perfbench
