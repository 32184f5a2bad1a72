#include "comm/collectives.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/transport.h"
#include "sim/network.h"

namespace gw2v::comm {
namespace {

// Runs `body(rank, collectives)` on one thread per rank over a fresh
// simulated network. The first thrown exception fails the test; the network
// is poisoned so peers unblock instead of deadlocking.
void runRanks(unsigned numRanks, const std::function<void(RankId, Collectives&)>& body) {
  sim::Network net(numRanks);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  std::string firstError;
  std::mutex errMutex;
  for (unsigned h = 0; h < numRanks; ++h) {
    threads.emplace_back([&, h] {
      SimTransport transport(net);
      Collectives coll(transport, h, TagSpace::kTest);
      try {
        body(h, coll);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(errMutex);
        if (!failed.exchange(true)) firstError = e.what();
        net.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed.load()) << firstError;
}

double seqReference(std::size_t i, unsigned numRanks) {
  // Rank h contributes h * 100 + i to slot i.
  double acc = static_cast<double>(i);  // rank 0
  for (unsigned h = 1; h < numRanks; ++h) acc += h * 100.0 + static_cast<double>(i);
  return acc;
}

unsigned ceilLog2(unsigned v) {
  unsigned r = 0;
  while ((1u << r) < v) ++r;
  return r;
}

constexpr unsigned kHostCounts[] = {1, 2, 3, 4, 7, 8};

// allReduceSum picks its algorithm from the payload size alone: the ring at
// n >= 2H, the tree below. These sizes land on both sides of that rule at
// every H, right at the boundary, and odd sizes do not divide evenly by H.
std::vector<std::size_t> payloadSizes(unsigned H) { return {1, 2 * H - 1, 2 * H, 17, 129}; }

TEST(Collectives, AllReduceMatchesSequentialReference) {
  for (const unsigned H : kHostCounts) {
    for (const std::size_t n : payloadSizes(H)) {
      runRanks(H, [&](RankId me, Collectives& coll) {
        std::vector<double> v(n);
        for (std::size_t i = 0; i < n; ++i) v[i] = me * 100.0 + static_cast<double>(i);
        coll.allReduceSum(v);
        for (std::size_t i = 0; i < n; ++i) {
          // Sum of <= 8 exactly-representable doubles: exact in any
          // association order.
          ASSERT_DOUBLE_EQ(v[i], seqReference(i, H))
              << "H=" << H << " n=" << n << " rank=" << me << " i=" << i;
        }
      });
    }
  }
}

TEST(Collectives, AllReduceSumSizeRuleSelectsTreeOrRing) {
  // Below 2H elements the sum runs as a tree reduce + tree broadcast:
  // 2·ceil(log2 H) rounds on every rank and 2(H−1) messages in total. From
  // 2H up it runs as the ring: 2(H−1) rounds and 2(H−1) messages per rank.
  for (const unsigned H : {4u, 8u}) {
    for (const std::size_t n : {2 * H - 1, 2 * H}) {
      const bool ring = n >= 2 * H;
      sim::Network net(H);
      std::vector<std::thread> threads;
      for (unsigned h = 0; h < H; ++h) {
        threads.emplace_back([&, h] {
          SimTransport transport(net);
          Collectives coll(transport, h, TagSpace::kTest);
          std::vector<double> v(n, 1.0);
          coll.allReduceSum(v);
        });
      }
      for (auto& t : threads) t.join();
      std::uint64_t messages = 0;
      for (unsigned h = 0; h < H; ++h) {
        const sim::CommStats& st = net.statsFor(h);
        EXPECT_EQ(st.collectiveRounds(), ring ? 2u * (H - 1) : 2u * ceilLog2(H))
            << "H=" << H << " n=" << n << " rank " << h;
        if (ring) {
          EXPECT_EQ(st.messagesSent(), 2u * (H - 1)) << "H=" << H << " rank " << h;
        }
        messages += st.messagesSent();
      }
      if (!ring) {
        EXPECT_EQ(messages, 2u * (H - 1)) << "H=" << H;
      }
    }
  }
}

TEST(Collectives, BroadcastFromEveryRoot) {
  for (const unsigned H : kHostCounts) {
    for (unsigned root = 0; root < H; ++root) {
      runRanks(H, [&](RankId me, Collectives& coll) {
        std::vector<std::uint32_t> v(17, me == root ? root * 7 + 1 : 0u);
        coll.broadcast(std::span<std::uint32_t>(v), root);
        for (const auto x : v) ASSERT_EQ(x, root * 7 + 1) << "root=" << root << " me=" << me;
      });
    }
  }
}

TEST(Collectives, GathervCollectsPerSourcePayloads) {
  for (const unsigned H : kHostCounts) {
    const unsigned root = H / 2;
    runRanks(H, [&](RankId me, Collectives& coll) {
      // Variable-size payload: rank h contributes h+1 bytes of value h.
      std::vector<std::uint8_t> mine(me + 1, static_cast<std::uint8_t>(me));
      const auto out = coll.gatherv(std::move(mine), root);
      if (me == root) {
        ASSERT_EQ(out.size(), H);
        for (unsigned src = 0; src < H; ++src) {
          ASSERT_EQ(out[src].size(), src + 1);
          for (const auto b : out[src]) ASSERT_EQ(b, src);
        }
      } else {
        ASSERT_TRUE(out.empty());
      }
    });
  }
}

TEST(Collectives, AllGathervDeliversEveryBlockEverywhere) {
  for (const unsigned H : kHostCounts) {
    runRanks(H, [&](RankId me, Collectives& coll) {
      std::vector<std::uint8_t> mine(2 * me + 1, static_cast<std::uint8_t>(me * 3));
      const auto out = coll.allGatherv(std::move(mine));
      ASSERT_EQ(out.size(), H);
      for (unsigned src = 0; src < H; ++src) {
        ASSERT_EQ(out[src].size(), 2 * src + 1) << "H=" << H << " me=" << me;
        for (const auto b : out[src]) ASSERT_EQ(b, src * 3);
      }
    });
  }
}

TEST(Collectives, AllToAllvExchangesPersonalizedPayloads) {
  for (const unsigned H : kHostCounts) {
    runRanks(H, [&](RankId me, Collectives& coll) {
      std::vector<std::vector<std::uint8_t>> toPeer(H);
      for (unsigned p = 0; p < H; ++p) {
        // me -> p carries me*16+p, repeated (p+1) times.
        toPeer[p].assign(p + 1, static_cast<std::uint8_t>(me * 16 + p));
      }
      std::vector<std::vector<std::uint8_t>> from(H);
      coll.allToAllv(toPeer, from);
      ASSERT_TRUE(from[me].empty());
      for (unsigned src = 0; src < H; ++src) {
        if (src == me) continue;
        ASSERT_EQ(from[src].size(), me + 1);
        for (const auto b : from[src]) ASSERT_EQ(b, src * 16 + me);
      }
    });
  }
}

TEST(Collectives, AllToAllvRecyclesCallerSlotsAcrossCalls) {
  // The sync engines keep both slot vectors alive across rounds: each call
  // must overwrite the peer slots with this round's payloads, leave the self
  // slot alone, and draw exactly one tag.
  constexpr unsigned H = 4;
  runRanks(H, [&](RankId me, Collectives& coll) {
    std::vector<std::vector<std::uint8_t>> toPeer(H), from(H);
    from[me] = {0xEE};
    for (unsigned round = 0; round < 3; ++round) {
      for (unsigned p = 0; p < H; ++p) {
        toPeer[p].assign(1 + (p + round) % 3, static_cast<std::uint8_t>(me * 16 + round));
      }
      coll.allToAllv(toPeer, from);
      ASSERT_EQ(coll.opsIssued(), round + 1u);
      ASSERT_EQ(from[me], std::vector<std::uint8_t>{0xEE});
      for (unsigned src = 0; src < H; ++src) {
        if (src == me) continue;
        ASSERT_EQ(from[src].size(), 1 + (me + round) % 3) << "round " << round;
        for (const auto b : from[src]) ASSERT_EQ(b, src * 16 + round);
      }
    }
  });
}

TEST(Collectives, AllToAllvSendsOneMessagePerPeerInOneRound) {
  // The personalized exchange costs each rank H-1 messages (payload plus one
  // header each) and H-1 recorded collective rounds — the accounting the
  // sync engines' modelled exchange time is built on.
  constexpr unsigned H = 5;
  sim::Network net(H);
  std::vector<std::thread> threads;
  for (unsigned h = 0; h < H; ++h) {
    threads.emplace_back([&, h] {
      SimTransport transport(net);
      Collectives coll(transport, h, TagSpace::kTest);
      std::vector<std::vector<std::uint8_t>> toPeer(H), from(H);
      for (unsigned p = 0; p < H; ++p) toPeer[p].assign(3 * p + 1, 7);
      coll.allToAllv(toPeer, from);
    });
  }
  for (auto& t : threads) t.join();
  for (unsigned h = 0; h < H; ++h) {
    std::uint64_t payload = 0;
    for (unsigned p = 0; p < H; ++p) {
      if (p != h) payload += 3 * p + 1;
    }
    EXPECT_EQ(net.statsFor(h).bytesSent(), payload + (H - 1) * sim::Network::kHeaderBytes)
        << "rank " << h;
    EXPECT_EQ(net.statsFor(h).collectiveRounds(), H - 1) << "rank " << h;
  }
}

TEST(Collectives, AllToAllvRejectsWrongSlotCount) {
  runRanks(2, [](RankId me, Collectives& coll) {
    if (me == 0) {
      std::vector<std::vector<std::uint8_t>> three(3), two(2);
      EXPECT_THROW(coll.allToAllv(three, two), std::invalid_argument);
      EXPECT_THROW(coll.allToAllv(two, three), std::invalid_argument);
    }
    coll.barrier();
  });
}

TEST(Collectives, BackToBackOperationsDoNotMix) {
  // A rank that races ahead into the next collective must not steal messages
  // from the previous one: tags advance per operation. Rounds alternate
  // between a tree-sized and a ring-sized sum.
  runRanks(4, [](RankId me, Collectives& coll) {
    for (int round = 0; round < 25; ++round) {
      std::vector<double> v(round % 2 == 0 ? 2 : 8, 0.0);
      v[0] = static_cast<double>(me);
      v[1] = static_cast<double>(round);
      coll.allReduceSum(v);
      ASSERT_DOUBLE_EQ(v[0], 0.0 + 1.0 + 2.0 + 3.0);
      ASSERT_DOUBLE_EQ(v[1], 4.0 * round);
      std::vector<std::uint8_t> blob(1 + (me + round) % 3, static_cast<std::uint8_t>(me));
      const auto all = coll.allGatherv(std::move(blob));
      for (unsigned src = 0; src < 4; ++src) {
        ASSERT_EQ(all[src].size(), 1 + (src + round) % 3);
      }
    }
  });
}

TEST(Collectives, RingAllReduceStaysWithinBandwidthOptimalBound) {
  // The point of the ring: per-rank traffic ~= 2 n (H-1)/H elements, however
  // many ranks share the sum. Check the measured per-rank bytes.
  const unsigned H = 8;
  const std::size_t n = 4096;
  sim::Network net(H);
  std::vector<std::thread> threads;
  for (unsigned h = 0; h < H; ++h) {
    threads.emplace_back([&, h] {
      SimTransport transport(net);
      Collectives coll(transport, h, TagSpace::kTest);
      std::vector<double> v(n, 1.0);
      coll.allReduceSum(v);
    });
  }
  for (auto& t : threads) t.join();
  const double idealBytes = 2.0 * static_cast<double>(n) * sizeof(double) * (H - 1) / H;
  const std::uint64_t headerBytes = 2 * (H - 1) * sim::Network::kHeaderBytes;
  for (unsigned h = 0; h < H; ++h) {
    const std::uint64_t sent = net.statsFor(h).bytesSent();
    // Uneven chunking adds at most one element per step.
    EXPECT_LE(sent, static_cast<std::uint64_t>(idealBytes) + headerBytes +
                        2 * (H - 1) * sizeof(double))
        << "rank " << h;
    EXPECT_GE(sent, static_cast<std::uint64_t>(idealBytes * 0.9)) << "rank " << h;
    EXPECT_EQ(net.statsFor(h).collectiveRounds(), 2u * (H - 1));
  }
}

TEST(Collectives, TreeRoundsAreLogarithmic) {
  const unsigned H = 8;
  sim::Network net(H);
  std::vector<std::thread> threads;
  for (unsigned h = 0; h < H; ++h) {
    threads.emplace_back([&, h] {
      SimTransport transport(net);
      Collectives coll(transport, h, TagSpace::kTest);
      std::vector<double> v{1.0};
      coll.broadcast(std::span<double>(v), 0);
    });
  }
  for (auto& t : threads) t.join();
  for (unsigned h = 0; h < H; ++h) {
    EXPECT_EQ(net.statsFor(h).collectiveRounds(), 3u);  // ceil(log2 8)
  }
}

TEST(Collectives, SingleRankEverythingIsANoop) {
  runRanks(1, [](RankId, Collectives& coll) {
    std::vector<double> v{5.0};
    coll.allReduceSum(v);
    ASSERT_DOUBLE_EQ(v[0], 5.0);
    coll.broadcast(std::span<double>(v), 0);
    const auto g = coll.gatherv({1, 2, 3}, 0);
    ASSERT_EQ(g.size(), 1u);
    ASSERT_EQ(g[0].size(), 3u);
    const auto ag = coll.allGatherv({9});
    ASSERT_EQ(ag.size(), 1u);
    std::vector<std::vector<std::uint8_t>> toPeer{{7}}, from(1);
    coll.allToAllv(toPeer, from);
    ASSERT_TRUE(from[0].empty());
  });
}

TEST(Collectives, AbortMidCollectivePropagatesToAllRanks) {
  // Rank 2 dies before joining the collective; everyone blocked inside it
  // must observe NetworkAborted instead of deadlocking.
  // n = 7 runs the tree at H = 4, n = 64 the ring.
  for (const std::size_t n : {7u, 64u}) {
    constexpr unsigned H = 4;
    sim::Network net(H);
    std::atomic<int> aborted{0};
    std::vector<std::thread> threads;
    for (unsigned h = 0; h < H; ++h) {
      threads.emplace_back([&, h] {
        SimTransport transport(net);
        Collectives coll(transport, h, TagSpace::kTest);
        if (h == 2) {
          // Simulated fault: poison the fabric without participating.
          net.abort();
          return;
        }
        std::vector<double> v(n, static_cast<double>(h));
        try {
          coll.allReduceSum(v);
          // A rank may squeak through if it finished before the poison hit;
          // with rank 2 never sending, at least one peer of 2 cannot.
        } catch (const sim::NetworkAborted&) {
          aborted.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_GE(aborted.load(), 1) << "n=" << n;
    EXPECT_TRUE(net.aborted());
  }
}

TEST(Collectives, OpsIssuedAdvancesUniformly) {
  runRanks(3, [](RankId, Collectives& coll) {
    ASSERT_EQ(coll.opsIssued(), 0u);
    std::vector<double> v{1.0};
    coll.allReduceSum(v);  // tree-sized: a reduce and a broadcast
    ASSERT_EQ(coll.opsIssued(), 2u);
    std::vector<double> w(6, 1.0);
    coll.allReduceSum(w);  // ring-sized: one operation
    coll.allGatherv({1});
    ASSERT_EQ(coll.opsIssued(), 4u);
  });
}

TEST(SimTransport, SendElemsRecvElemsRoundTripTypedPayloads) {
  // The typed conveniences copy elements through the byte payload unchanged
  // and book the same header + payload bytes as a raw send; an empty span is
  // a header-only message that decodes to an empty vector.
  sim::Network net(2);
  SimTransport transport(net);
  const std::vector<float> data{1.5f, -2.5f, 3.25f};
  transport.sendElems<float>(0, 1, 4, data);
  transport.sendElems<std::uint64_t>(0, 1, 5, std::span<const std::uint64_t>{});
  EXPECT_EQ(transport.statsFor(0).bytesSent(),
            data.size() * sizeof(float) + 2 * sim::Network::kHeaderBytes);
  EXPECT_EQ(transport.statsFor(0).messagesSent(), 2u);
  EXPECT_EQ(transport.recvElems<float>(1, 0, 4), data);
  EXPECT_TRUE(transport.recvElems<std::uint64_t>(1, 0, 5).empty());
  EXPECT_EQ(transport.statsFor(1).bytesReceived(), transport.statsFor(0).bytesSent());
}

}  // namespace
}  // namespace gw2v::comm
