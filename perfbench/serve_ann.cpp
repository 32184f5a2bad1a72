// serve_ann — the serving workload, the only one that runs the serve layer.
// A clustered 65,536 x 64 embedding model is published with an IVF index
// (built on a 4-thread pool during set-up) and served by 2 QueryEngine ranks
// to 2 closed-loop clients: each waits for its reply before sending the
// next query. Traffic is Zipf(0.99) over rows, 90% kAnn (nprobe 4) and 10%
// kExact, top-10, with the rank-0 LRU cache on. Client 0 also republishes
// at a fixed cadence: it perturbs 1% of the rows through mutableRow, builds
// an incremental snapshot (serial ANN reassignment) and publishes it — the
// write path beside the reads, which also invalidates the cache.
//
// The batching window is 0: with two closed-loop clients a batch can never
// fill, so a timed window would only add timer slack to every latency.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <thread>

#include "comm/transport.h"
#include "harness.h"
#include "runtime/thread_pool.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/topk.h"
#include "sim/cluster.h"
#include "util/rng.h"

using namespace gw2v;

namespace perfbench {

namespace {
constexpr unsigned kRanks = 2;
constexpr unsigned kClients = 2;
constexpr std::uint32_t kRows = 65536;
constexpr std::uint32_t kDim = 64;
constexpr std::uint32_t kClusters = 256;
constexpr std::uint32_t kLists = 256;
constexpr float kNoise = 0.08f;
constexpr unsigned kTopK = 10;
constexpr unsigned kNprobe = 4;
constexpr double kAnnShare = 0.9;
constexpr double kZipf = 0.99;
constexpr unsigned kRepublishEvery = 500;  // client-0 queries between republishes
constexpr std::uint32_t kPerturbRows = kRows / 100;
constexpr unsigned kVerifyQueries = 512;
// An exact-only engine scores 1.0; nprobe 4 of 256 lists reaches ~0.99.
constexpr double kRecallFloor = 0.9;

/// Inverse-CDF Zipf sampler over row ids (low ids are the hot head).
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double exponent) : cdf_(n) {
    double sum = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }
  std::uint32_t sample(util::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniformDouble());
    return static_cast<std::uint32_t>(it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Rows scattered around random unit centres: tight cosine neighbourhoods
/// the IVF index can exploit, shaped like a converged embedding table.
void makeClusteredModel(graph::ModelGraph& model, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> centers(static_cast<std::size_t>(kClusters) * kDim);
  for (std::uint32_t c = 0; c < kClusters; ++c) {
    float* ctr = centers.data() + static_cast<std::size_t>(c) * kDim;
    double n2 = 0.0;
    for (std::uint32_t d = 0; d < kDim; ++d) {
      ctr[d] = static_cast<float>(rng.normal());
      n2 += static_cast<double>(ctr[d]) * ctr[d];
    }
    const float inv = static_cast<float>(1.0 / std::sqrt(n2));
    for (std::uint32_t d = 0; d < kDim; ++d) ctr[d] *= inv;
  }
  model.init(kRows, kDim);
  for (std::uint32_t w = 0; w < kRows; ++w) {
    const float* ctr = centers.data() + static_cast<std::size_t>(rng.bounded(kClusters)) * kDim;
    auto row = model.mutableRow(graph::Label::kEmbedding, w);
    for (std::uint32_t d = 0; d < kDim; ++d)
      row[d] = ctr[d] + kNoise * static_cast<float>(rng.normal());
  }
}

struct ServeState {
  graph::ModelGraph model;
  std::unique_ptr<serve::SnapshotStore> store;
  std::unique_ptr<ZipfSampler> zipf;
  std::uint64_t version = 1;
};

// The session is cut into windows of this length; each throughput figure
// is the median over windows, so a burst of outside interference moves one
// window rather than the whole figure.
constexpr double kWindowSeconds = 2.0;

/// Per-window figures of one session.
struct Window {
  double throughputPerCore = 0.0;
  double simThroughputPerCore = 0.0;
  double peakRssMb = 0.0;
};

struct Session {
  double wallSeconds = 0.0;
  std::uint64_t queries = 0;
  std::vector<Window> windows;
  std::vector<double> latencyMs;  // every query of the session, at the client
  std::vector<double> publishMs;
  double stealShare = 0.0;
  Metrics layers;
};

serve::AnnBuildOptions annOptions() {
  serve::AnnBuildOptions o;
  o.numLists = kLists;
  return o;
}

/// Perturb 1% of the rows, build the incremental snapshot, publish it.
void republish(ServeState& s, util::Rng& rng, Tracer& t) {
  Tracer::Scope span(t, "serve.republish");
  for (std::uint32_t i = 0; i < kPerturbRows; ++i) {
    auto row = s.model.mutableRow(graph::Label::kEmbedding,
                                  static_cast<std::uint32_t>(rng.bounded(kRows)));
    for (float& x : row) x += 0.02f * static_cast<float>(rng.normal());
  }
  // Stamp the next edits with a new table version, so the incremental build
  // after them renormalizes only the rows edited since this snapshot.
  s.model.clearTouched();
  std::shared_ptr<const serve::EmbeddingSnapshot> next;
  {
    Tracer::Scope build(t, "serve.from_model");
    next = serve::EmbeddingSnapshot::fromModel(s.model, nullptr, ++s.version,
                                               *s.store->current(), annOptions(), nullptr);
  }
  Tracer::Scope pub(t, "serve.store_publish");
  s.store->publish(std::move(next));
}

/// Plain copy of the ServeMetrics counters one session reads.
struct EngineCounters {
  std::uint64_t exactUs = 0, exactQueries = 0, centroidUs = 0, scoreUs = 0, annQueries = 0;
  std::uint64_t mergeUs = 0, batchedQueries = 0, batches = 0, swaps = 0, fallbacks = 0;
  std::uint64_t queries = 0;
  double candidateRatio = 0.0, cacheHitRate = 0.0, occupancy = 0.0;
};

EngineCounters countersOf(const serve::ServeMetrics& m, unsigned maxBatch) {
  EngineCounters c;
  c.exactUs = m.exactScanMicros;
  c.exactQueries = m.exactScanQueries;
  c.centroidUs = m.annCentroidMicros;
  c.scoreUs = m.annScoreMicros;
  c.annQueries = m.annQueries;
  c.mergeUs = m.mergeMicros;
  c.batchedQueries = m.batchedQueries;
  c.batches = m.batches;
  c.swaps = m.snapshotSwaps;
  c.fallbacks = m.annFallbacks;
  c.queries = m.queries;
  c.candidateRatio = m.annCandidateRatio();
  c.cacheHitRate = m.cacheHitRate();
  c.occupancy = m.batchOccupancy(maxBatch);
  return c;
}

/// Engine counters and traffic of every rank at one instant.
struct Mark {
  EngineCounters engine[kRanks];
  sim::CommSnapshot comm[kRanks];
  double peakRssMb = 0.0;  // since the previous mark
};

/// Simulated serving seconds between two marks, by the rule
/// sim::ClusterReport uses for training: the slowest rank's busy time (its
/// scoring stages, plus the merge on rank 0) plus its traffic priced by the
/// default NetworkModel.
double simSecondsBetween(const Mark& a, const Mark& b) {
  const sim::NetworkModel net;
  double worst = 0.0;
  for (unsigned rank = 0; rank < kRanks; ++rank) {
    const EngineCounters& x = a.engine[rank];
    const EngineCounters& y = b.engine[rank];
    std::uint64_t busyUs = (y.exactUs - x.exactUs) + (y.centroidUs - x.centroidUs) +
                           (y.scoreUs - x.scoreUs);
    if (rank == 0) busyUs += y.mergeUs - x.mergeUs;
    const double comm = net.exchangeSeconds(sim::delta(a.comm[rank], b.comm[rank]));
    worst = std::max(worst, static_cast<double>(busyUs) / 1e6 + comm);
  }
  return worst;
}

/// The timed phase: kClients closed-loop clients for `seconds`.
Session serveSession(ServeState& s, Result& r, Tracer& t, double seconds, std::uint64_t seed) {
  Session out;
  serve::ServeOptions sopts;
  sopts.maxBatch = 32;
  sopts.batchWindowMicros = 0;
  sopts.cacheCapacity = 1024;
  const unsigned numWindows = std::max(1u, static_cast<unsigned>(seconds / kWindowSeconds));
  std::atomic<serve::QueryEngine*> engines[kRanks] = {};
  std::vector<Mark> marks(numWindows + 1);
  // Per client: (completion seconds since the session start, latency ms).
  std::vector<std::vector<std::pair<double, double>>> done(kClients);
  std::atomic<std::uint64_t> badReplies{0};

  sim::ClusterOptions copts;
  copts.numHosts = kRanks;
  const CpuTimes cpu0 = readCpuTimes();
  const sim::ClusterReport cluster = sim::runCluster(copts, [&](sim::HostContext& ctx) {
    comm::SimTransport transport(ctx.network());
    serve::QueryEngine engine(transport, ctx.id(), *s.store, sopts);
    engines[ctx.id()].store(&engine);
    if (ctx.id() != 0) {
      engine.run();
      return;
    }
    std::thread frontEnd([&] {
      // Every rank's engine lives until the stop broadcast of shutdown().
      for (unsigned rank = 0; rank < kRanks; ++rank)
        while (engines[rank].load() == nullptr) std::this_thread::yield();
      const auto mark = [&](Mark& m) {
        m.peakRssMb = peakRssMb();
        resetPeakRss();
        for (unsigned rank = 0; rank < kRanks; ++rank) {
          m.engine[rank] = countersOf(engines[rank].load()->metrics(), sopts.maxBatch);
          m.comm[rank] = sim::snapshot(ctx.network().statsFor(rank));
        }
      };
      mark(marks[0]);
      const auto t0 = Clock::now();
      const auto deadline = t0 + std::chrono::duration<double>(seconds);
      std::vector<std::thread> clients;
      for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          util::Rng rng(mixSeed(seed, 0xc11e + c));
          util::Rng edits(mixSeed(seed, 0xed17));  // client 0 republishes
          std::uint64_t sent = 0;
          while (Clock::now() < deadline) {
            serve::QueryOptions qo;
            if (rng.uniformDouble() < kAnnShare) {
              qo.mode = serve::QueryMode::kAnn;
              qo.nprobe = kNprobe;
            }
            const std::uint32_t w = s.zipf->sample(rng);
            const auto q0 = Clock::now();
            serve::QueryResult res;
            {
              Tracer::Scope span(t, "serve.query");
              res = engine.queryWord(w, kTopK, qo);
            }
            const auto q1 = Clock::now();
            done[c].emplace_back(std::chrono::duration<double>(q1 - t0).count(),
                                 std::chrono::duration<double, std::milli>(q1 - q0).count());
            if (res.neighbors.size() != kTopK) badReplies.fetch_add(1);
            if (c == 0 && ++sent % kRepublishEvery == 0) {
              const auto p0 = Clock::now();
              republish(s, edits, t);
              out.publishMs.push_back(secondsSince(p0) * 1e3);
            }
          }
        });
      }
      for (unsigned w = 1; w <= numWindows; ++w) {
        std::this_thread::sleep_until(t0 + std::chrono::duration<double>(w * kWindowSeconds));
        mark(marks[w]);
      }
      for (auto& th : clients) th.join();
      out.wallSeconds = secondsSince(t0);
      engine.shutdown();
    });
    engine.run();
    frontEnd.join();
  });
  out.stealShare = stealShare(cpu0, readCpuTimes());

  std::vector<double> windowQueries(numWindows, 0.0);
  for (const auto& client : done) {
    out.queries += client.size();
    for (const auto& [at, ms] : client) {
      out.latencyMs.push_back(ms);
      const auto w = static_cast<unsigned>(at / kWindowSeconds);
      if (w < numWindows) windowQueries[w] += 1.0;
    }
  }
  for (unsigned w = 0; w < numWindows; ++w) {
    const double n = windowQueries[w];
    if (n == 0.0) continue;
    Window win;
    win.throughputPerCore = n / kWindowSeconds / kBusyThreads;
    win.simThroughputPerCore = n / simSecondsBetween(marks[w], marks[w + 1]) / kRanks;
    win.peakRssMb = marks[w + 1].peakRssMb;
    out.windows.push_back(win);
  }
  r.attempted += out.queries;
  r.failed += badReplies.load();
  if (badReplies.load() > 0) r.failures.push_back("queries answered with fewer than k rows");
  r.check(!out.windows.empty(), "serving session completed no query window");

  const Mark& last = marks[numWindows];
  double modelledComm = 0.0;
  std::uint64_t centroidUs = 0, scoreUs = 0, exactUs = 0;
  const sim::NetworkModel net;
  for (unsigned rank = 0; rank < kRanks; ++rank) {
    const EngineCounters& c = last.engine[rank];
    const auto traffic = sim::delta(marks[0].comm[rank], last.comm[rank]);
    modelledComm = std::max(modelledComm, net.exchangeSeconds(traffic));
    centroidUs += c.centroidUs;
    scoreUs += c.scoreUs;
    exactUs += c.exactUs;
  }
  const auto per = [](double num, std::uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  const EngineCounters& c0 = last.engine[0];
  Metrics& l = out.layers;
  l = clusterLayers(cluster, out.wallSeconds);
  l["sim.modelled_comm_s"] = modelledComm;
  l["serve.ann_centroid_us_per_query"] = per(centroidUs, c0.annQueries);
  l["serve.ann_score_us_per_query"] = per(scoreUs, c0.annQueries);
  l["serve.exact_scan_us_per_query"] = per(exactUs, c0.exactQueries);
  l["serve.merge_us_per_query"] = per(c0.mergeUs, c0.batchedQueries);
  l["serve.ann_candidate_ratio"] = c0.candidateRatio;
  l["serve.cache_hit_rate"] = c0.cacheHitRate;
  l["serve.batch_occupancy"] = c0.occupancy;
  l["serve.rounds_per_query"] = per(c0.batches, c0.queries);
  l["serve.bytes_per_query"] = per(cluster.totalBytes(), out.queries);
  l["serve.snapshot_swaps"] = static_cast<double>(c0.swaps);
  l["serve.ann_fallbacks"] = static_cast<double>(c0.fallbacks);
  l["serve.publish_ms"] = out.publishMs.empty() ? 0.0 : median(out.publishMs);
  l["host.steal_ratio"] = out.stealShare;
  return out;
}

/// Untimed output check on the published snapshot: a fixed query set goes
/// through the engine one query at a time (cache off), exact answers must
/// equal the single-host scan bit for bit, and ANN recall@10 is measured
/// against them. Returns recall; `wireBytes` receives the traffic, which is
/// deterministic because every batch holds exactly one query.
double verify(ServeState& s, Result& r, std::uint64_t seed, std::uint64_t& wireBytes) {
  const auto snap = s.store->current();
  util::Rng rng(mixSeed(seed, 0x7e51));
  std::vector<std::uint32_t> words(kVerifyQueries);
  for (auto& w : words) w = static_cast<std::uint32_t>(rng.bounded(kRows));

  std::uint64_t hits = 0, wanted = 0, mismatched = 0;
  serve::ServeOptions sopts;
  sopts.cacheCapacity = 0;
  sopts.batchWindowMicros = 0;
  sim::ClusterOptions copts;
  copts.numHosts = kRanks;
  const sim::ClusterReport cluster = sim::runCluster(copts, [&](sim::HostContext& ctx) {
    comm::SimTransport transport(ctx.network());
    serve::QueryEngine engine(transport, ctx.id(), *s.store, sopts);
    if (ctx.id() != 0) {
      engine.run();
      return;
    }
    std::thread frontEnd([&] {
      for (const std::uint32_t w : words) {
        const std::vector<text::WordId> exclude = {w};
        // The engine normalizes by-word queries the same way (query_engine.cpp).
        const std::vector<float> vec = serve::normalizedCopy(snap->row(w));
        const serve::TopKQuery q{vec.data(), kTopK, exclude};
        const auto want = serve::topkScore(snap->rows(), snap->rowStride(), snap->vocabSize(),
                                           0, snap->dim(), std::span(&q, 1))[0];
        const auto exact = engine.queryWord(w, kTopK).neighbors;
        serve::QueryOptions qo;
        qo.mode = serve::QueryMode::kAnn;
        qo.nprobe = kNprobe;
        const auto ann = engine.queryWord(w, kTopK, qo).neighbors;
        bool same = exact.size() == want.size();
        for (std::size_t i = 0; same && i < want.size(); ++i)
          same = exact[i].id == want[i].id && exact[i].score == want[i].score;
        mismatched += same ? 0 : 1;
        wanted += want.size();
        for (const auto& c : want)
          hits += std::any_of(ann.begin(), ann.end(),
                              [&](const serve::Candidate& x) { return x.id == c.id; });
      }
      engine.shutdown();
    });
    engine.run();
    frontEnd.join();
  });
  wireBytes = cluster.totalBytes();
  r.attempted += 2 * kVerifyQueries;
  r.failed += mismatched;
  if (mismatched > 0)
    r.failures.push_back("sharded exact answers differ from a single-host scan");
  return wanted == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(wanted);
}

}  // namespace

Result runServeAnn(const Args& a, Tracer& t) {
  Result r;
  ServeState s;
  // Peak RSS of the first set-up, which runs in a fresh process as a server
  // starts: the model, the published snapshot and its index. README.md says
  // why the serving phase's own peak is a per-layer figure only.
  double setupPeakRssMb = 0.0;
  SetupSampler setup(r, t, [&](Metrics& p, bool first) {
    ServeState scratch;
    ServeState& st = first ? s : scratch;
    resetPeakRss();
    timedPart(t, p, "synth.generate", "synth.generate_s", [&] {
      makeClusteredModel(st.model, mixSeed(a.seed, 0xa115));
      st.model.clearTouched();
      st.zipf = std::make_unique<ZipfSampler>(kRows, kZipf);
    });
    timedPart(t, p, "serve.ann_build", "serve.ann_build_s", [&] {
      runtime::ThreadPool pool(kBusyThreads);
      st.store = std::make_unique<serve::SnapshotStore>(kRanks);
      st.store->publish(
          serve::EmbeddingSnapshot::fromModel(st.model, nullptr, st.version, annOptions(),
                                              &pool));
    });
    if (first) setupPeakRssMb = peakRssMb();
    return modelChecksum(st.model);
  });
  setup.sample();

  double evalSeconds = 0.0;
  std::uint64_t wireBytes = 0;
  double recall = 0.0;
  {
    Tracer::Scope span(t, "eval");
    const auto t0 = Clock::now();
    recall = verify(s, r, a.seed, wireBytes);
    evalSeconds = secondsSince(t0);
  }
  char line[96];
  std::snprintf(line, sizeof line, "ANN recall@10 %.4f below the floor %.2f", recall,
                kRecallFloor);
  r.check(recall >= kRecallFloor, line);

  // Untraced session for the end-to-end figures; in trace runs the time is
  // split between an untraced and a traced session.
  const double untracedSeconds = a.trace ? a.seconds / 2 : a.seconds;
  t.setEnabled(false);
  const Session plain = serveSession(s, r, t, untracedSeconds, a.seed);
  Session traced;
  if (a.trace) {
    t.setEnabled(true);
    Tracer::Scope span(t, "rep");
    const Tracer::Ambient ambient(t, span.id());
    traced = serveSession(s, r, t, a.seconds - untracedSeconds, mixSeed(a.seed, 1));
  }

  // The last published snapshot must equal a from-scratch build of the
  // edited model: incremental republishing renormalized every changed row.
  {
    const auto cur = s.store->current();
    const auto full = serve::EmbeddingSnapshot::fromModel(s.model, nullptr, cur->version());
    const bool same = std::memcmp(cur->rows(), full->rows(), cur->matrixBytes()) == 0;
    r.check(same, "incrementally republished snapshot differs from a full rebuild");
  }
  setup.topUp();
  const SetupStats setupStats = setup.stats();
  const double p50Ms = median(plain.latencyMs);
  const double p99Ms = quantile(plain.latencyMs, 0.99);
  std::fprintf(stderr,
               "serve_ann: %llu queries in %.2f s, %zu republishes, recall@10 %.4f, latency "
               "p50 %.4f ms / p99 %.4f ms over %zu queries, host steal %.1f%%\n"
               "per-window peak RSS (MB):",
               static_cast<unsigned long long>(plain.queries), plain.wallSeconds,
               plain.publishMs.size(), recall, p50Ms, p99Ms, plain.latencyMs.size(),
               plain.stealShare * 100);
  for (const Window& w : plain.windows) std::fprintf(stderr, " %.1f", w.peakRssMb);
  std::fprintf(stderr, "\nset-up peak RSS %.1f MB\n", setupPeakRssMb);

  const auto windowMedian = [](const Session& session, double Window::*field) {
    std::vector<double> v;
    for (const Window& w : session.windows) v.push_back(w.*field);
    return median(v);
  };
  Metrics e2e;
  e2e["setup_s"] = setupStats.seconds;
  e2e["throughput_per_core"] = windowMedian(plain, &Window::throughputPerCore);
  e2e["sim_throughput_per_core"] = windowMedian(plain, &Window::simThroughputPerCore);
  e2e["wire_mb"] = static_cast<double>(wireBytes) / 1e6;
  e2e["quality"] = recall;
  e2e["peak_rss_mb"] = setupPeakRssMb;
  if (!a.trace) {
    r.metrics = e2e;
    return r;
  }
  Metrics m = traced.layers;
  // Client latencies come from the untraced session: a span per query would
  // inflate them.
  m["serve.latency_p50_ms"] = p50Ms;
  m["serve.latency_p99_ms"] = p99Ms;
  m["serve.session_peak_rss_mb"] = windowMedian(plain, &Window::peakRssMb);
  for (const auto& [name, v] : setupStats.parts) m[name] = v;
  m["eval.s"] = evalSeconds;
  const double overhead = 1.0 - windowMedian(traced, &Window::throughputPerCore) /
                                    e2e.at("throughput_per_core");
  m["trace.overhead_ratio"] = overhead;
  addSelfTimes(m, t, setupStats.reps, 1);
  printTraceTable(e2e, m, overhead);
  r.metrics = std::move(m);
  return r;
}

}  // namespace perfbench
