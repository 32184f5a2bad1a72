#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/network_model.h"

namespace gw2v::sim {
namespace {

TEST(Cluster, RunsBodyOnEveryHost) {
  ClusterOptions opts;
  opts.numHosts = 5;
  std::atomic<unsigned> mask{0};
  runCluster(opts, [&](HostContext& ctx) {
    EXPECT_EQ(ctx.numHosts(), 5u);
    mask.fetch_or(1u << ctx.id());
  });
  EXPECT_EQ(mask.load(), 0b11111u);
}

TEST(Cluster, RejectsZeroHosts) {
  ClusterOptions opts;
  opts.numHosts = 0;
  EXPECT_THROW(runCluster(opts, [](HostContext&) {}), std::invalid_argument);
}

TEST(Cluster, HostsCanExchangeMessages) {
  ClusterOptions opts;
  opts.numHosts = 2;
  runCluster(opts, [&](HostContext& ctx) {
    if (ctx.id() == 0) {
      ctx.network().send(0, 1, 1, {1, 2});
    } else {
      EXPECT_EQ(ctx.network().recv(1, 0, 1), (std::vector<std::uint8_t>{1, 2}));
    }
  });
}

TEST(Cluster, ReportContainsPerHostTraffic) {
  ClusterOptions opts;
  opts.numHosts = 2;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    if (ctx.id() == 0) ctx.network().send(0, 1, 1, std::vector<std::uint8_t>(100));
    ctx.barrier();
    if (ctx.id() == 1) (void)ctx.network().recv(1, 0, 1);
  });
  ASSERT_EQ(report.hosts.size(), 2u);
  EXPECT_EQ(report.hosts[0].comm.bytesSent, 100 + Network::kHeaderBytes);
  EXPECT_EQ(report.hosts[1].comm.bytesSent, 0u);
  EXPECT_EQ(report.totalBytes(), 100 + Network::kHeaderBytes);
  EXPECT_GT(report.wallSeconds, 0.0);
}

TEST(Cluster, TotalBytesMatchesBytesReceivedOnceEverythingIsDrained) {
  // Every host sends a differently sized payload to every peer. Once all of
  // them are drained, the bytes the report counts as sent are exactly the
  // bytes booked as received, host by host and in total.
  constexpr unsigned kHosts = 4;
  ClusterOptions opts;
  opts.numHosts = kHosts;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    const HostId me = ctx.id();
    for (HostId peer = 0; peer < kHosts; ++peer) {
      if (peer != me) ctx.network().send(me, peer, 7, std::vector<std::uint8_t>(10 * me + peer));
    }
    for (unsigned k = 0; k + 1 < kHosts; ++k) (void)ctx.network().recvAny(me, 7);
  });
  std::uint64_t expectedSent = 0;
  std::uint64_t received = 0;
  for (HostId h = 0; h < kHosts; ++h) {
    std::uint64_t toMe = 0;
    for (HostId src = 0; src < kHosts; ++src) {
      if (src != h) toMe += 10 * src + h + Network::kHeaderBytes;
    }
    EXPECT_EQ(report.hosts[h].comm.bytesReceived, toMe) << "host " << h;
    EXPECT_EQ(report.hosts[h].comm.messagesSent, kHosts - 1) << "host " << h;
    expectedSent += toMe;
    received += report.hosts[h].comm.bytesReceived;
  }
  EXPECT_EQ(report.totalBytes(), expectedSent);
  EXPECT_EQ(report.totalBytes(), received);
}

TEST(Cluster, ComputeTimerAccumulates) {
  ClusterOptions opts;
  opts.numHosts = 1;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    ctx.computeTimer().start();
    volatile double sink = 0;
    for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
    ctx.computeTimer().stop();
  });
  EXPECT_GT(report.hosts[0].computeSeconds, 0.0);
  EXPECT_GT(report.maxComputeSeconds(), 0.0);
}

TEST(Cluster, ModelledCommSecondsFlowThrough) {
  ClusterOptions opts;
  opts.numHosts = 2;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    const HostId peer = 1 - ctx.id();
    ctx.network().send(ctx.id(), peer, 7, std::vector<std::uint8_t>(1000));
    (void)ctx.network().recv(ctx.id(), peer, 7);
    ctx.chargeCommSince({});
    ctx.chargeCommSince(snapshot(ctx.commStats()));  // no traffic since: free
  });
  const std::uint64_t wire = 1000 + Network::kHeaderBytes;
  const double expected = kFabric.exchangeSeconds(CommSnapshot{wire, wire, 1, 0});
  for (const auto& h : report.hosts) EXPECT_DOUBLE_EQ(h.modelledCommSeconds, expected);
  EXPECT_DOUBLE_EQ(report.maxModelledCommSeconds(), expected);
  EXPECT_GE(report.simulatedSeconds(), expected);
}

TEST(Cluster, ChargeCountsBytesSentBeforeTheMark) {
  // Host 0 sends before host 1 takes its mark; host 1 drains the message
  // after. The receive belongs to the window it was drained in.
  ClusterOptions opts;
  opts.numHosts = 2;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    if (ctx.id() == 0) ctx.network().send(0, 1, 3, std::vector<std::uint8_t>(64));
    ctx.barrier();
    if (ctx.id() == 1) {
      const CommSnapshot mark = snapshot(ctx.commStats());
      (void)ctx.network().recv(1, 0, 3);
      ctx.chargeCommSince(mark);
    }
  });
  const std::uint64_t wire = 64 + Network::kHeaderBytes;
  EXPECT_DOUBLE_EQ(report.hosts[1].modelledCommSeconds,
                   kFabric.exchangeSeconds(CommSnapshot{0, wire, 0, 0}));
  EXPECT_EQ(report.hosts[1].comm.bytesReceived, wire);
}

TEST(Cluster, ChargeLeavesUndrainedBytesToTheWindowThatDrainsThem) {
  // A message sitting in the mailbox costs its receiver nothing until it is
  // drained; the window that drains it pays for it exactly once.
  ClusterOptions opts;
  opts.numHosts = 2;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    if (ctx.id() == 0) {
      ctx.network().send(0, 1, 5, std::vector<std::uint8_t>(200));
      ctx.barrier();
      return;
    }
    const CommSnapshot first = snapshot(ctx.commStats());
    ctx.barrier();  // host 0 has sent; nothing drained yet
    ctx.chargeCommSince(first);
    EXPECT_DOUBLE_EQ(ctx.modelledCommSeconds(), 0.0);
    const CommSnapshot second = snapshot(ctx.commStats());
    (void)ctx.network().recv(1, 0, 5);
    ctx.chargeCommSince(second);
  });
  const std::uint64_t wire = 200 + Network::kHeaderBytes;
  EXPECT_DOUBLE_EQ(report.hosts[1].modelledCommSeconds,
                   kFabric.exchangeSeconds(CommSnapshot{0, wire, 0, 0}));
  EXPECT_EQ(report.hosts[0].comm.bytesReceived, 0u);
  EXPECT_EQ(report.hosts[1].comm.bytesReceived, wire);
}

TEST(Cluster, SyncPhaseSecondsReportedPerHostAndMaxedAcrossHosts) {
  ClusterOptions opts;
  opts.numHosts = 3;
  const auto report = runCluster(opts, [&](HostContext& ctx) {
    SyncPhaseSeconds& s = ctx.syncPhases();
    const double h = ctx.id();
    s.pack += 1.0 + h;  // accumulates across rounds
    s.pack += 0.5;
    s.exchange += 3.0 - h;
    s.fold += h == 1 ? 0.25 : 0.0;
    s.apply += 0.125 * (h + 1);
  });
  ASSERT_EQ(report.hosts.size(), 3u);
  EXPECT_DOUBLE_EQ(report.hosts[0].sync.pack, 1.5);
  EXPECT_DOUBLE_EQ(report.hosts[1].sync.fold, 0.25);
  EXPECT_DOUBLE_EQ(report.hosts[2].sync.total(), 3.5 + 1.0 + 0.0 + 0.375);
  const SyncPhaseSeconds worst = report.maxSyncPhaseSeconds();
  EXPECT_DOUBLE_EQ(worst.pack, 3.5);      // host 2
  EXPECT_DOUBLE_EQ(worst.exchange, 3.0);  // host 0
  EXPECT_DOUBLE_EQ(worst.fold, 0.25);     // host 1
  EXPECT_DOUBLE_EQ(worst.apply, 0.375);   // host 2
  EXPECT_DOUBLE_EQ(worst.total(), 7.125);
}

TEST(Cluster, ExceptionPropagatesFromHost) {
  ClusterOptions opts;
  opts.numHosts = 3;
  EXPECT_THROW(runCluster(opts,
                          [](HostContext& ctx) {
                            if (ctx.id() == 1) throw std::runtime_error("host 1 died");
                            // Peers block; abort must wake them.
                            ctx.barrier();
                          }),
               std::runtime_error);
}

TEST(Cluster, ExceptionWhilePeersBlockedInRecv) {
  ClusterOptions opts;
  opts.numHosts = 2;
  EXPECT_THROW(runCluster(opts,
                          [](HostContext& ctx) {
                            if (ctx.id() == 0) throw std::logic_error("boom");
                            (void)ctx.network().recv(1, 0, 99);  // never sent
                          }),
               std::logic_error);
}

TEST(NetworkModel, TransferTimeIsAlphaBeta) {
  NetworkModel m;
  m.latencySeconds = 1e-6;
  m.bandwidthBytesPerSec = 1e9;
  EXPECT_DOUBLE_EQ(m.transferSeconds(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.transferSeconds(1'000'000'000, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.transferSeconds(0, 1000), 1e-3);
  EXPECT_DOUBLE_EQ(m.transferSeconds(500'000'000, 500), 0.5 + 5e-4);
}

TEST(NetworkModel, ExchangeCountsSendPlusRecv) {
  NetworkModel m;
  m.latencySeconds = 0.0;
  m.bandwidthBytesPerSec = 100.0;
  CommSnapshot d{50, 50, 3};
  EXPECT_DOUBLE_EQ(m.exchangeSeconds(d), 1.0);
}

TEST(CommStats, SnapshotDelta) {
  CommStats s;
  s.recordSend(100);
  const auto before = snapshot(s);
  s.recordSend(50);
  s.recordReceive(30);
  const auto d = delta(before, snapshot(s));
  EXPECT_EQ(d.bytesSent, 50u);
  EXPECT_EQ(d.bytesReceived, 30u);
  EXPECT_EQ(d.messagesSent, 1u);
}

TEST(Cluster, WorkerPoolSizeHonored) {
  ClusterOptions opts;
  opts.numHosts = 2;
  opts.workerThreadsPerHost = 3;
  runCluster(opts, [&](HostContext& ctx) { EXPECT_EQ(ctx.pool().numThreads(), 3u); });
}

}  // namespace
}  // namespace gw2v::sim
