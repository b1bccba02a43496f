// Live tenant reconfiguration (epoch-aligned repartition/resize of
// resident sessions): the acceptance gate for the zero-downtime shard
// remap. A resident PageRank tenant is resized 4→8 and 8→2 while four
// writer threads stream mutations and readers take epoch-consistent
// reads — with ZERO failed queries, every pre-admitted ticket resolved,
// and the post-remap warm fixpoint equal to a cold recompute at the new
// width to 1e-8. Runs under the CI TSan job via the service/ prefix.
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algos/incremental_pagerank.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "service/service_host.h"
#include "service/serving_cc.h"
#include "service/serving_pagerank.h"

namespace sfdf {
namespace {

constexpr int kWriters = 4;
constexpr int kPairsPerWriter = 10;
constexpr int kOpsPerPair = 15;  // odd insert/remove count: final = present
constexpr int64_t kVertices = kWriters * kPairsPerWriter;

Graph Ring(int64_t n) {
  GraphBuilder builder(n);
  for (int64_t v = 0; v < n; ++v) builder.AddEdge(v, (v + 1) % n);
  return builder.Build();
}

/// Writer w's pair j: a directed chord inside w's own vertex region, so
/// the final adjacency is deterministic regardless of interleaving.
std::pair<int64_t, int64_t> PairOf(int writer, int j) {
  int64_t u = writer * kPairsPerWriter + j;
  int64_t v = writer * kPairsPerWriter + (j + 3) % kPairsPerWriter;
  return {u, v};
}

TEST(ReconfigureTest, ResizeResidentTenantUnderConcurrentWriters) {
  Graph graph = Ring(kVertices);
  ServingPageRankOptions options;
  // Tight epsilon so warm drift (O(epsilon) stranded per round) stays far
  // inside the 1e-8 gate tolerance over the few hundred rounds below.
  options.epsilon = 1e-12;
  options.parallelism = 4;
  options.max_batch = 32;
  options.max_linger = std::chrono::milliseconds(1);
  auto started = ServingPageRank::Start(graph, options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ServingPageRank& serving = **started;
  ASSERT_EQ(serving.service()->parallelism(), 4);

  std::atomic<bool> done{false};
  std::vector<uint64_t> last_ticket(kWriters, 0);

  // Sync points so both resizes happen mid-workload: writers check in
  // after each op sweep; the main thread reconfigures between phases.
  std::atomic<int> ops_done{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int op = 0; op < kOpsPerPair; ++op) {
        for (int j = 0; j < kPairsPerWriter; ++j) {
          auto [u, v] = PairOf(w, j);
          GraphMutation m = (op % 2 == 0) ? GraphMutation::EdgeInsert(u, v)
                                          : GraphMutation::EdgeRemove(u, v);
          uint64_t ticket = serving.Mutate({m});
          ASSERT_GT(ticket, 0u);
          last_ticket[w] = ticket;
        }
        if (op % 4 == 0) {
          ASSERT_TRUE(serving.Await(last_ticket[w]).ok());
        }
        ops_done.fetch_add(1, std::memory_order_release);
      }
    });
  }

  // Readers: ZERO failed queries across both remaps — every point read
  // and snapshot answers from a committed (even, monotone) epoch.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      int64_t vid = r;
      while (!done.load(std::memory_order_acquire)) {
        uint64_t epoch = 0;
        auto rank = serving.Rank(vid % kVertices, &epoch);
        ASSERT_TRUE(rank.ok()) << rank.status().ToString();
        ASSERT_TRUE(std::isfinite(*rank));
        ASSERT_GT(*rank, 0.0);
        ASSERT_EQ(epoch % 2, 0u) << "read overlapped a round or remap";
        ASSERT_GE(epoch, last_epoch) << "epoch went backwards";
        last_epoch = epoch;
        ++vid;
        if (vid % 64 == 0) {
          auto snapshot = serving.Ranks();
          ASSERT_EQ(snapshot.epoch % 2, 0u);
          ASSERT_GE(snapshot.epoch, last_epoch);
          last_epoch = snapshot.epoch;
          ASSERT_EQ(snapshot.ranks.size(), static_cast<size_t>(kVertices));
        }
      }
    });
  }

  // Resize 4→8 once the workload is demonstrably in flight, and 8→2 while
  // it still runs — both remaps race live admission and live readers.
  while (ops_done.load(std::memory_order_acquire) < kWriters) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(serving.service()->Reconfigure(8).ok());
  EXPECT_EQ(serving.service()->parallelism(), 8);
  while (ops_done.load(std::memory_order_acquire) < 5 * kWriters) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(serving.service()->Reconfigure(2).ok());
  EXPECT_EQ(serving.service()->parallelism(), 2);

  for (std::thread& thread : writers) thread.join();
  // Every pre-admitted ticket resolves OK — batches enqueued before a
  // remap replay after it with their tickets preserved.
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_TRUE(serving.Await(last_ticket[w]).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : readers) thread.join();

  ServiceStats stats = serving.stats();
  EXPECT_EQ(stats.reconfigs, 2u);
  EXPECT_GT(stats.reconfig_ms_last, 0.0);
  EXPECT_EQ(stats.mutations_rejected, 0u);
  EXPECT_EQ(stats.mutations_applied,
            static_cast<uint64_t>(kWriters * kPairsPerWriter * kOpsPerPair));

  // Post-remap warm fixpoint == cold recompute at the new width, to 1e-8.
  DynamicGraph shadow(Ring(kVertices));
  for (int w = 0; w < kWriters; ++w) {
    for (int j = 0; j < kPairsPerWriter; ++j) {
      auto [u, v] = PairOf(w, j);
      shadow.AddEdge(u, v);
    }
  }
  IncrementalPageRankOptions cold_options;
  cold_options.epsilon = 1e-12;
  cold_options.parallelism = 2;  // the post-remap width
  auto cold = RunIncrementalPageRank(shadow.Freeze(), cold_options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto served = serving.Ranks();
  ASSERT_EQ(served.ranks.size(), cold->ranks.size());
  for (size_t i = 0; i < served.ranks.size(); ++i) {
    EXPECT_EQ(served.ranks[i].first, cold->ranks[i].first);
    EXPECT_NEAR(served.ranks[i].second, cold->ranks[i].second, 1e-8)
        << "vertex " << served.ranks[i].first;
  }
  EXPECT_TRUE(serving.Stop().ok());
}

TEST(ReconfigureTest, PreAdmittedBatchesReplayAfterTheRemap) {
  // Batches sitting in the admission queue when a Reconfigure lands are
  // replayed after the remap under the new width, tickets intact. A long
  // linger window keeps them pending while the remap overtakes them.
  ServingPageRankOptions options;
  options.epsilon = 1e-12;
  options.parallelism = 3;
  options.max_batch = 64;
  options.max_linger = std::chrono::milliseconds(50);
  auto started = ServingPageRank::Start(Ring(12), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ServingPageRank& serving = **started;

  std::vector<uint64_t> tickets;
  for (int64_t v = 0; v < 8; ++v) {
    uint64_t ticket =
        serving.Mutate({GraphMutation::EdgeInsert(v, (v + 5) % 12)});
    ASSERT_GT(ticket, 0u);
    tickets.push_back(ticket);
  }
  // The reconfiguration request jumps the queue (it runs at the committed
  // boundary BEFORE pending batches), so these tickets resolve against the
  // already-resized session.
  ASSERT_TRUE(serving.service()->Reconfigure(5).ok());
  EXPECT_EQ(serving.service()->parallelism(), 5);
  for (uint64_t ticket : tickets) {
    EXPECT_TRUE(serving.Await(ticket).ok()) << "ticket " << ticket;
  }
  // The replayed batches' effects are served: every chord raised its
  // target's rank above the plain-ring fixpoint value it would have alone.
  for (int64_t v = 0; v < 8; ++v) {
    auto rank = serving.Rank((v + 5) % 12);
    ASSERT_TRUE(rank.ok());
    EXPECT_GT(*rank, 0.0);
  }
  ServiceStats stats = serving.stats();
  EXPECT_EQ(stats.reconfigs, 1u);
  EXPECT_EQ(stats.mutations_applied, 8u);
  EXPECT_TRUE(serving.Stop().ok());
}

TEST(ReconfigureTest, ReconfigureCutsTheAdmissionLingerShort) {
  // A Reconfigure that lands while a batch lingers runs ahead of it: the
  // call returns with the batch still pending instead of waiting out the
  // linger window behind it.
  ServingPageRankOptions options;
  options.epsilon = 1e-12;
  options.parallelism = 3;
  options.max_batch = 64;
  options.max_linger = std::chrono::seconds(5);
  auto started = ServingPageRank::Start(Ring(12), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ServingPageRank& serving = **started;

  std::vector<uint64_t> tickets;
  for (int64_t v = 0; v < 4; ++v) {
    tickets.push_back(
        serving.Mutate({GraphMutation::EdgeInsert(v, (v + 5) % 12)}));
    ASSERT_GT(tickets.back(), 0u);
  }
  // Let the admission thread pick the batch up and enter its linger. (Were
  // it slower, it would see the request first and still remap first.)
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(serving.service()->Reconfigure(5).ok());
  ServiceStats stats = serving.stats();
  EXPECT_EQ(stats.reconfigs, 1u);
  EXPECT_EQ(stats.rounds, 0u) << "the pending batch ran before the remap";
  EXPECT_EQ(stats.mutations_applied, 0u);

  // Stop ends the linger; the batch commits at the new width.
  EXPECT_TRUE(serving.Stop().ok());
  EXPECT_EQ(serving.service()->parallelism(), 5);
  for (uint64_t ticket : tickets) {
    EXPECT_TRUE(serving.Await(ticket).ok()) << "ticket " << ticket;
  }
  EXPECT_EQ(serving.stats().mutations_applied, 4u);
}

TEST(ReconfigureTest, StructuralRejectionLeavesTheServiceLive) {
  ServingPageRankOptions options;
  options.parallelism = 2;
  auto started = ServingPageRank::Start(Ring(8), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ServingPageRank& serving = **started;

  Status bad = serving.service()->Reconfigure(-3);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(serving.service()->parallelism(), 2);
  EXPECT_EQ(serving.stats().reconfigs, 0u);

  // The rejection is per-call, not fatal: the tenant keeps serving and
  // keeps accepting both mutations and later (valid) reconfigurations.
  EXPECT_TRUE(serving.Apply({GraphMutation::EdgeInsert(0, 4)}).ok());
  EXPECT_TRUE(serving.service()->Reconfigure(4).ok());
  EXPECT_EQ(serving.service()->parallelism(), 4);
  EXPECT_TRUE(serving.Apply({GraphMutation::EdgeInsert(1, 5)}).ok());
  EXPECT_TRUE(serving.Stop().ok());
}

TEST(ReconfigureTest, HostMovesTenantAcrossEnginePools) {
  ServiceHost host(ServiceHost::Options{.workers = 2});
  ServingCc::Options cc_options;
  cc_options.num_vertices = 8;
  auto cc = ServingCc::StartOn(&host, "cc", cc_options);
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();

  // Unknown names are rejected before anything quiesces.
  EXPECT_EQ(host.ReconfigureService("ghost", 0).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(host.ReconfigureService("cc", 0, "ghost-pool").code(),
            StatusCode::kNotFound);
  // Pool names must be new and not shadow the built-in pool.
  EXPECT_FALSE(host.AddEnginePool("primary", 1).ok());
  auto pool = host.AddEnginePool("isolation", 3);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EXPECT_FALSE(host.AddEnginePool("isolation", 1).ok());

  // Move the tenant onto the isolation pool and keep mutating: rounds now
  // schedule on the 3-worker pool, and the tenant still converges.
  ASSERT_TRUE(host.ReconfigureService("cc", 0, "isolation").ok());
  EXPECT_EQ((*cc)->service().stats().engine_workers, 3);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*cc)->service().Apply({GraphMutation::EdgeInsert(i, i + 1)}).ok());
  }
  EXPECT_EQ((*cc)->Labels(),
            (std::map<int64_t, int64_t>{
                {0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 5},
                {6, 6}, {7, 7}}));

  // And back to the built-in pool, with a width change in the same call.
  ASSERT_TRUE(host.ReconfigureService("cc", 3, "primary").ok());
  EXPECT_EQ((*cc)->service().parallelism(), 3);
  EXPECT_EQ((*cc)->service().stats().engine_workers, 2);
  ASSERT_TRUE(
      (*cc)->service().Apply({GraphMutation::EdgeInsert(5, 6)}).ok());
  EXPECT_EQ((*cc)->Labels(),
            (std::map<int64_t, int64_t>{
                {0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 5},
                {6, 5}, {7, 7}}));
  EXPECT_EQ((*cc)->service().stats().reconfigs, 2u);
  EXPECT_TRUE(host.StopAll().ok());
}

TEST(ReconfigureTest, SnapshotPagesConcatenateToTheFullSnapshot) {
  ServingPageRankOptions options;
  options.parallelism = 3;
  auto started = ServingPageRank::Start(Ring(50), options);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ServingPageRank& serving = **started;
  IterationService* service = serving.service();

  const IterationService::SnapshotResult full = service->Snapshot();
  ASSERT_EQ(full.records.size(), 50u);

  // Page with a size that does not divide any partition evenly; the pages
  // must concatenate to EXACTLY the unpaged snapshot, order included.
  std::vector<Record> paged;
  uint64_t cursor = 0;
  int pages = 0;
  do {
    const IterationService::SnapshotPageResult page =
        service->SnapshotPage(cursor, 7);
    EXPECT_EQ(page.epoch, full.epoch);
    EXPECT_LE(page.records.size(), 7u);
    paged.insert(paged.end(), page.records.begin(), page.records.end());
    cursor = page.next_cursor;
    ++pages;
    ASSERT_LT(pages, 100) << "cursor failed to make progress";
  } while (cursor != 0);
  EXPECT_GE(pages, 8);  // 50 records in ≤7-record pages
  ASSERT_EQ(paged.size(), full.records.size());
  for (size_t i = 0; i < paged.size(); ++i) {
    EXPECT_EQ(paged[i].GetInt(0), full.records[i].GetInt(0)) << i;
    EXPECT_EQ(paged[i].GetDouble(1), full.records[i].GetDouble(1)) << i;
  }

  // The default page size swallows a small tenant in one page.
  const IterationService::SnapshotPageResult one = service->SnapshotPage(0);
  EXPECT_EQ(one.records.size(), 50u);
  EXPECT_EQ(one.next_cursor, 0u);

  // A remap advances the epoch, telling pagers their cursor died with the
  // old placement; restarting from 0 sees the same record multiset.
  ASSERT_TRUE(service->Reconfigure(5).ok());
  const IterationService::SnapshotPageResult fresh = service->SnapshotPage(0);
  EXPECT_GT(fresh.epoch, full.epoch);
  EXPECT_EQ(fresh.records.size(), 50u);
  EXPECT_TRUE(serving.Stop().ok());
}

}  // namespace
}  // namespace sfdf
