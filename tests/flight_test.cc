// Tests for the observability flight recorder (seqlock ring and the span
// trees retained on its records), the latency attribution report, and the
// SLO burn-rate tracker (DESIGN.md §11).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/flight.h"
#include "src/obs/slo.h"

namespace asobs {
namespace {

// Every field encodes `stamp`, so a snapshot record whose fields disagree
// was torn — the exact failure the seqlock must make impossible.
FlightRecord StampedRecord(int64_t stamp) {
  FlightRecord record;
  record.shard = 0;
  record.outcome = FlightOutcome::kOk;
  record.start_nanos = stamp;
  record.end_nanos = stamp;
  record.total_nanos = stamp;
  record.queue_wait_nanos = stamp;
  record.lease_nanos = stamp;
  record.module_load_nanos = stamp;
  record.exec_nanos = stamp;
  record.net_nanos = stamp;
  record.reset_nanos = stamp;
  record.stages = 2;
  record.stage_nanos[0] = stamp;
  record.stage_nanos[1] = stamp;
  return record;
}

bool AllFieldsAgree(const FlightRecord& record) {
  const int64_t stamp = record.total_nanos;
  return record.start_nanos == stamp && record.end_nanos == stamp &&
         record.queue_wait_nanos == stamp && record.lease_nanos == stamp &&
         record.module_load_nanos == stamp && record.exec_nanos == stamp &&
         record.net_nanos == stamp && record.reset_nanos == stamp &&
         record.stages == 2 && record.stage_nanos[0] == stamp &&
         record.stage_nanos[1] == stamp;
}

TEST(FlightRecorderTest, RecordSnapshotRoundTrip) {
  FlightRecorder recorder(8);
  EXPECT_TRUE(recorder.enabled());
  const uint32_t id = recorder.InternWorkflow("wfa");
  EXPECT_EQ(recorder.InternWorkflow("wfa"), id) << "interning is idempotent";

  FlightRecord record = StampedRecord(42);
  record.outcome = FlightOutcome::kTimeout;
  record.start = FlightStart::kClone;
  EXPECT_EQ(recorder.Record(id, record), 1u) << "ids count from 1";
  EXPECT_EQ(recorder.Record(id, record), 2u);

  const std::vector<FlightRecord> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].id + snapshot[1].id, 3u);
  EXPECT_EQ(snapshot[0].ToJson()["id"].as_int(),
            static_cast<int64_t>(snapshot[0].id));
  EXPECT_EQ(snapshot[0].workflow, "wfa");
  EXPECT_EQ(snapshot[0].outcome, FlightOutcome::kTimeout);
  EXPECT_EQ(snapshot[0].start, FlightStart::kClone);
  EXPECT_EQ(snapshot[0].ToJson()["start"].as_string(), "clone");
  EXPECT_TRUE(AllFieldsAgree(snapshot[0]));
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(FlightRecorderTest, WraparoundKeepsTheNewestRecords) {
  FlightRecorder recorder(4);
  const uint32_t id = recorder.InternWorkflow("wrap");
  for (int64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(recorder.Record(id, StampedRecord(i)));
  }
  const std::vector<FlightRecord> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u) << "the ring holds exactly `capacity`";
  // Snapshot is sorted by end_nanos: the four newest, oldest first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snapshot[i].end_nanos, static_cast<int64_t>(7 + i));
    EXPECT_TRUE(AllFieldsAgree(snapshot[i]));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
}

TEST(FlightRecorderTest, WorkflowAndSinceFiltersSelectRecords) {
  FlightRecorder recorder(16);
  const uint32_t a = recorder.InternWorkflow("alpha");
  const uint32_t b = recorder.InternWorkflow("beta");
  for (int64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(recorder.Record(i % 2 == 0 ? a : b, StampedRecord(i * 100)));
  }
  EXPECT_EQ(recorder.Snapshot("alpha").size(), 2u);
  EXPECT_EQ(recorder.Snapshot("beta").size(), 2u);
  EXPECT_EQ(recorder.Snapshot("gamma").size(), 0u);
  // since = cursor semantics: strictly newer records only.
  EXPECT_EQ(recorder.Snapshot("", 200).size(), 2u);
  EXPECT_EQ(recorder.Snapshot("alpha", 200).size(), 1u);
  EXPECT_EQ(recorder.Snapshot("", 400).size(), 0u);
}

TEST(FlightRecorderTest, ZeroCapacityDisablesRecording) {
  FlightRecorder recorder(0);
  EXPECT_FALSE(recorder.enabled());
  EXPECT_EQ(recorder.Record(1, StampedRecord(7)), 0u);
  auto tree = std::make_shared<const Trace>("off");
  const std::weak_ptr<const Trace> held = tree;
  EXPECT_EQ(recorder.Record(1, StampedRecord(8), std::move(tree)), 0u);
  EXPECT_TRUE(held.expired()) << "a disabled recorder keeps no trees";
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_TRUE(recorder.Traces().empty());
  EXPECT_EQ(recorder.recorded(), 0u);
}

// How many of `trees` are alive: once the test has dropped its own
// references, the ones the recorder holds.
size_t Alive(const std::vector<std::weak_ptr<const Trace>>& trees) {
  size_t alive = 0;
  for (const auto& tree : trees) {
    alive += tree.expired() ? 0 : 1;
  }
  return alive;
}

TEST(FlightRecorderTest, RetainedTreesAreBoundedAndFoundByTheirRecordsId) {
  for (const size_t capacity : {size_t{4}, size_t{64}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    FlightRecorder recorder(capacity);
    const uint32_t id = recorder.InternWorkflow("kept");
    std::vector<std::weak_ptr<const Trace>> trees;
    std::vector<const Trace*> by_id(1);  // by_id[record id]
    for (int64_t i = 1; i <= 200; ++i) {
      auto tree = std::make_shared<const Trace>("kept");
      trees.push_back(tree);
      by_id.push_back(tree.get());
      ASSERT_EQ(recorder.Record(id, StampedRecord(i), std::move(tree)),
                static_cast<uint64_t>(i));
    }
    const size_t bound = std::min<size_t>(8, capacity);
    EXPECT_EQ(Alive(trees), bound) << "the recorder holds min(8, capacity)";
    const std::vector<FlightRecorder::RetainedTrace> served =
        recorder.Traces("kept");
    ASSERT_EQ(served.size(), bound);
    for (size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].id, 200 - bound + 1 + i) << "oldest first";
      EXPECT_EQ(served[i].trace.get(), by_id[served[i].id])
          << "a tree is found by its own record's id";
    }
    EXPECT_TRUE(recorder.Traces("other").empty());
  }
}

TEST(FlightRecorderTest, TreeOfAnOverwrittenRecordIsNotServed) {
  FlightRecorder recorder(32);
  const uint32_t id = recorder.InternWorkflow("gone");
  auto tree = std::make_shared<const Trace>("gone");
  const std::weak_ptr<const Trace> held = tree;
  ASSERT_EQ(recorder.Record(id, StampedRecord(1), std::move(tree)), 1u);
  ASSERT_EQ(recorder.Traces().size(), 1u);
  // 32 untraced records lap the ring: record 1 is overwritten while its
  // tree still sits in the tree ring.
  for (int64_t i = 2; i <= 33; ++i) {
    ASSERT_NE(recorder.Record(id, StampedRecord(i)), 0u);
  }
  EXPECT_FALSE(held.expired());
  EXPECT_TRUE(recorder.Traces().empty())
      << "a tree must not outlive its record";
}

// Writers attaching trees while a reader scrapes records and trees: run
// under TSan and ASan by scripts/ci.sh (label obs). Every tree is named
// after its record's stamp, so a settled recorder proves the pairing.
TEST(FlightRecorderTest, ConcurrentWritersAttachingTreesStayPaired) {
  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 2000;
  FlightRecorder recorder(64);
  const uint32_t id = recorder.InternWorkflow("storm");
  std::vector<std::weak_ptr<const Trace>> trees(kWriters * kRecordsPerWriter);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::thread reader([&] {
    // Reads every served tree (one freed while served is what ASan would
    // report), at least once after the writers are done.
    do {
      for (const auto& tree : recorder.Traces("storm")) {
        served.fetch_add(tree.trace->workflow().empty() ? 0 : 1,
                         std::memory_order_relaxed);
      }
    } while (!stop.load(std::memory_order_relaxed));
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 1; i <= kRecordsPerWriter; ++i) {
        const int64_t stamp = w * kRecordsPerWriter + i;
        auto tree = std::make_shared<const Trace>(std::to_string(stamp));
        trees[stamp - 1] = tree;
        recorder.Record(id, StampedRecord(stamp), std::move(tree));
      }
    });
  }
  for (auto& writer : writers) {
    writer.join();
  }
  stop = true;
  reader.join();

  EXPECT_GT(served.load(), 0u) << "the reader must have seen trees";
  EXPECT_LE(Alive(trees), 8u);
  std::map<uint64_t, int64_t> stamps;  // record id -> stamp
  for (const FlightRecord& record : recorder.Snapshot()) {
    stamps[record.id] = record.total_nanos;
  }
  const std::vector<FlightRecorder::RetainedTrace> settled =
      recorder.Traces();
  EXPECT_FALSE(settled.empty());
  for (const auto& [tree_id, tree] : settled) {
    ASSERT_EQ(stamps.count(tree_id), 1u);
    EXPECT_EQ(tree->workflow(), std::to_string(stamps[tree_id]))
        << "tree " << tree_id << " is attached to another record";
  }
}

// The acceptance race: concurrent writers wrapping a small ring while a
// reader scrapes. Every record a snapshot returns must be internally
// consistent (no torn reads), and every write must be accounted as either
// recorded or dropped. Run under TSan by scripts/ci.sh (label obs).
TEST(FlightRecorderTest, ConcurrentWritersAndScrapingReaderNeverTear) {
  constexpr size_t kCapacity = 32;
  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 4000;
  FlightRecorder recorder(kCapacity);
  const uint32_t id = recorder.InternWorkflow("storm");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> scraped{0};
  const auto scrape = [&] {
    for (const FlightRecord& record : recorder.Snapshot()) {
      scraped.fetch_add(1, std::memory_order_relaxed);
      if (!AllFieldsAgree(record)) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      scrape();
    }
    // One quiescent scrape: while the writers hammer a 32-slot ring every
    // in-flight read attempt may legitimately fail the seqlock check, but a
    // settled ring must yield the full capacity.
    scrape();
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 1; i <= kRecordsPerWriter; ++i) {
        recorder.Record(id, StampedRecord(w * kRecordsPerWriter + i));
      }
    });
  }
  for (auto& writer : writers) {
    writer.join();
  }
  stop = true;
  reader.join();

  EXPECT_EQ(torn.load(), 0u) << "snapshot returned a torn record";
  EXPECT_GT(scraped.load(), 0u) << "the reader must have observed records";
  EXPECT_EQ(recorder.recorded() + recorder.dropped(),
            static_cast<uint64_t>(kWriters) * kRecordsPerWriter)
      << "every write is either recorded or counted as dropped";

  // The dust has settled: a final snapshot sees one full, consistent ring.
  const std::vector<FlightRecord> final_snapshot = recorder.Snapshot();
  EXPECT_EQ(final_snapshot.size(), kCapacity);
  for (const FlightRecord& record : final_snapshot) {
    EXPECT_TRUE(AllFieldsAgree(record));
  }
}

// ------------------------------------------------------ latency attribution

TEST(FlightReportTest, LatencyAttributionNamesTheTailOwner) {
  std::vector<FlightRecord> records;
  // 40 fast, exec-dominated invocations...
  for (int i = 0; i < 40; ++i) {
    FlightRecord record;
    record.total_nanos = 1'000;
    record.exec_nanos = 900;
    record.end_nanos = i;
    records.push_back(record);
  }
  // ...and two outliers that spent their lives in the admission queue.
  for (int i = 0; i < 2; ++i) {
    FlightRecord record;
    record.total_nanos = 100'000;
    record.queue_wait_nanos = 90'000;
    record.exec_nanos = 5'000;
    record.end_nanos = 100 + i;
    records.push_back(record);
  }

  const asbase::Json doc = LatencyAttributionJson(records);
  EXPECT_EQ(doc["count"].as_int(), 42);
  EXPECT_EQ(doc["tail_owner"].as_string(), "queue_wait")
      << doc.Dump(2);
  EXPECT_GT(doc["total"]["p99_nanos"].as_int(),
            doc["total"]["p50_nanos"].as_int());
  EXPECT_GT(doc["phases"]["queue_wait"]["tail_share"].as_double(), 0.5);
}

TEST(FlightReportTest, ReportJsonCarriesPhasesAndStages) {
  FlightRecord record = StampedRecord(5);
  record.workflow = "r";
  const asbase::Json doc = FlightReportJson({record});
  EXPECT_EQ(doc["count"].as_int(), 1);
  const asbase::Json& first = doc["records"].array()[0];
  EXPECT_EQ(first["workflow"].as_string(), "r");
  EXPECT_EQ(first["phases"]["exec_nanos"].as_int(), 5);
  EXPECT_EQ(first["stage_nanos"].array().size(), 2u);
}

// ----------------------------------------------------------- SLO tracker

constexpr int64_t kMs = 1'000'000;

TEST(SloTrackerTest, FastBurnTriggersOnceAndCoolsDown) {
  SloOptions options;
  options.objective = 0.99;  // budget 1%
  options.fast_window_ms = 1'000;
  options.slow_window_ms = 10'000;
  options.fast_burn_threshold = 14.0;
  options.slow_burn_threshold = 1e9;  // isolate the fast-burn trigger
  options.timeout_burst = 0;
  options.trigger_cooldown_ms = 5'000;
  SloTracker tracker(options);

  int64_t now = 1'000'000'000;
  // Healthy traffic: no trigger, burn 0.
  for (int i = 0; i < 10; ++i) {
    const auto verdict = tracker.Record(true, false, now += kMs);
    EXPECT_FALSE(verdict.trigger);
    EXPECT_EQ(verdict.fast_burn, 0.0);
  }
  // Half the window goes bad: burn = 0.5 / 0.01 = 50 >= 14 — one trigger,
  // then the cooldown suppresses the rest of the incident.
  int triggers = 0;
  for (int i = 0; i < 10; ++i) {
    const auto verdict = tracker.Record(false, false, now += kMs);
    if (verdict.trigger) {
      ++triggers;
      EXPECT_STREQ(verdict.reason, "fast_burn");
      EXPECT_GE(verdict.fast_burn, 14.0);
    }
  }
  EXPECT_EQ(triggers, 1) << "cooldown must cap one black box per incident";

  // Past the cooldown a fresh burst triggers again.
  now += 6'000 * kMs;
  const auto again = tracker.Record(false, false, now);
  EXPECT_TRUE(again.trigger);
}

TEST(SloTrackerTest, TimeoutBurstTriggersRegardlessOfBurn) {
  SloOptions options;
  options.objective = 0.5;  // huge budget: fractional burn stays low
  options.fast_window_ms = 1'000;
  options.fast_burn_threshold = 1e9;
  options.slow_burn_threshold = 1e9;
  options.timeout_burst = 3;
  SloTracker tracker(options);

  int64_t now = 1'000'000'000;
  // A sea of good traffic, then three timeouts inside the fast window.
  for (int i = 0; i < 100; ++i) {
    tracker.Record(true, false, now += kMs);
  }
  EXPECT_FALSE(tracker.Record(false, true, now += kMs).trigger);
  EXPECT_FALSE(tracker.Record(false, true, now += kMs).trigger);
  const auto verdict = tracker.Record(false, true, now += kMs);
  EXPECT_TRUE(verdict.trigger);
  EXPECT_STREQ(verdict.reason, "timeout_burst");
}

TEST(SloTrackerTest, ZeroBudgetTreatsAnyFailureAsInfiniteBurn) {
  SloOptions options;
  options.objective = 1.0;  // no budget at all
  SloTracker tracker(options);
  int64_t now = 1'000'000'000;
  EXPECT_EQ(tracker.Record(true, false, now += kMs).fast_burn, 0.0);
  EXPECT_GE(tracker.Record(false, false, now += kMs).fast_burn, 1e9);
}

TEST(SloTrackerTest, BurnRateWindowsSeeDifferentHistory) {
  SloOptions options;
  options.objective = 0.9;  // budget 10%
  options.fast_window_ms = 1'000;
  options.slow_window_ms = 60'000;
  SloTracker tracker(options);
  int64_t now = 1'000'000'000;
  // Ten bad events, then 5 seconds of silence: outside the fast window,
  // still inside the slow one.
  for (int i = 0; i < 10; ++i) {
    tracker.Record(false, false, now += kMs);
  }
  now += 5'000 * kMs;
  EXPECT_EQ(tracker.BurnRate(1'000, now), 0.0);
  EXPECT_GT(tracker.BurnRate(60'000, now), 0.0);
}

}  // namespace
}  // namespace asobs
