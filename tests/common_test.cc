// Unit + property tests for the as_common substrate.

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>

#include "src/common/clock.h"
#include "src/common/env.h"
#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/common/queue.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/thread_pool.h"

namespace asbase {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("no such slot 'Conference'");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such slot 'Conference'");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  std::set<ErrorCode> codes = {
      InvalidArgument("").code(),    NotFound("").code(),
      AlreadyExists("").code(),      PermissionDenied("").code(),
      ResourceExhausted("").code(),  FailedPrecondition("").code(),
      OutOfRange("").code(),         Unimplemented("").code(),
      Unavailable("").code(),        DataLoss("").code(),
      Internal("").code(),
  };
  EXPECT_EQ(codes.size(), 11u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = OutOfRange("past eof");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> QuarterOf(int x) {
  AS_ASSIGN_OR_RETURN(int half, HalfOf(x));
  AS_ASSIGN_OR_RETURN(int quarter, HalfOf(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(QuarterOf(8).value(), 2);
  EXPECT_EQ(QuarterOf(6).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(QuarterOf(7).status().code(), ErrorCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Json

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_EQ(Json::Parse("true")->as_bool(), true);
  EXPECT_EQ(Json::Parse("false")->as_bool(true), false);
  EXPECT_EQ(Json::Parse("42")->as_int(), 42);
  EXPECT_EQ(Json::Parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::Parse("3.5")->as_double(), 3.5);
  EXPECT_DOUBLE_EQ(Json::Parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonTest, ParsesNested) {
  auto doc = Json::Parse(R"({
    "name": "ParallelSorting",
    "functions": [
      {"name": "split", "instances": 3},
      {"name": "merge", "instances": 1}
    ],
    "input_bytes": 1048576
  })");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)["name"].as_string(), "ParallelSorting");
  EXPECT_EQ((*doc)["functions"][0]["instances"].as_int(), 3);
  EXPECT_EQ((*doc)["functions"][1]["name"].as_string(), "merge");
  EXPECT_EQ((*doc)["input_bytes"].as_int(), 1048576);
  EXPECT_TRUE((*doc)["missing"]["chain"].is_null());
  EXPECT_EQ((*doc)["missing"].as_int(9), 9);
}

TEST(JsonTest, StringEscapes) {
  auto doc = Json::Parse(R"("a\"b\\c\ndAe")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->as_string(), "a\"b\\c\ndAe");
}

TEST(JsonTest, UnicodeEscapeToUtf8) {
  auto doc = Json::Parse(R"("é中")");  // é, 中
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->as_string(), "\xC3\xA9\xE4\xB8\xAD");
}

// The string parser copies plain runs in bulk and decodes escapes one by
// one, so every escape is checked at every offset of a plain run: first,
// last, and between.
TEST(JsonTest, EveryEscapeDecodesAtEveryPosition) {
  const std::vector<std::pair<std::string, std::string>> escapes = {
      {R"(\")", "\""},     {R"(\\)", "\\"},     {R"(\/)", "/"},
      {R"(\b)", "\b"},     {R"(\f)", "\f"},     {R"(\n)", "\n"},
      {R"(\r)", "\r"},     {R"(\t)", "\t"},     {R"(\u0041)", "A"},
      {R"(\u00e9)", "\xC3\xA9"},                {R"(\u4E2D)", "\xE4\xB8\xAD"},
      {R"(\u0000)", std::string(1, '\0')},
  };
  const std::string plain = "abc\x7F\xC3\xA9xyz";  // DEL and UTF-8 pass as-is
  for (const auto& [escape, decoded] : escapes) {
    for (size_t at = 0; at <= plain.size(); ++at) {
      const std::string text =
          "\"" + plain.substr(0, at) + escape + plain.substr(at) + "\"";
      auto doc = Json::Parse(text);
      ASSERT_TRUE(doc.ok()) << text;
      EXPECT_EQ(doc->as_string(),
                plain.substr(0, at) + decoded + plain.substr(at))
          << text;
    }
  }
  auto adjacent = Json::Parse(R"("\n\t\\\"\u0041")");
  ASSERT_TRUE(adjacent.ok());
  EXPECT_EQ(adjacent->as_string(), "\n\t\\\"A");
  auto empty = Json::Parse(R"("")");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->as_string(), "");
}

TEST(JsonTest, RejectsControlCharactersAtEveryPosition) {
  const std::string plain = "abcd";
  for (int c = 0; c < 0x20; ++c) {
    for (size_t at = 0; at <= plain.size(); ++at) {
      const std::string text = "\"" + plain.substr(0, at) +
                               static_cast<char>(c) + plain.substr(at) + "\"";
      EXPECT_FALSE(Json::Parse(text).ok()) << "byte " << c << " at " << at;
    }
  }
}

TEST(JsonTest, StringCutAtEveryPositionIsRejected) {
  const std::string text = R"("ab\n\u00e9cd\"e\\f")";
  ASSERT_TRUE(Json::Parse(text).ok());
  for (size_t cut = 0; cut < text.size(); ++cut) {
    EXPECT_FALSE(Json::Parse(text.substr(0, cut)).ok()) << cut;
  }
}

TEST(JsonTest, RejectsBadEscapes) {
  EXPECT_FALSE(Json::Parse(R"("\x")").ok());
  EXPECT_FALSE(Json::Parse(R"("a\")").ok());
  EXPECT_FALSE(Json::Parse(R"("\u12G4")").ok());
  EXPECT_FALSE(Json::Parse(R"("\u12")").ok());
}

TEST(JsonTest, LongStringInABody) {
  const std::string data(128 * 1024, 'q');
  auto doc = Json::Parse("{\"data\":\"" + data + "\\n\"}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)["data"].as_string(), data + "\n");
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("{'a':1}").ok());
  EXPECT_FALSE(Json::Parse("-").ok());
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, BuilderAndDump) {
  Json doc;
  doc.Set("workflow", "pipe");
  doc.Set("stages", Json(JsonArray{Json("a"), Json("b")}));
  doc.Set("bytes", static_cast<int64_t>(4096));
  EXPECT_EQ(doc.Dump(), R"({"bytes":4096,"stages":["a","b"],"workflow":"pipe"})");
}

// Property: Parse(Dump(doc)) == doc for randomly generated documents.
Json RandomJson(Rng& rng, int depth) {
  int pick = depth >= 4 ? static_cast<int>(rng.Below(4))
                        : static_cast<int>(rng.Below(6));
  switch (pick) {
    case 0:
      return Json(nullptr);
    case 1:
      return Json(rng.OneIn(2));
    case 2:
      return Json(static_cast<int64_t>(rng.Next() >> 8) *
                  (rng.OneIn(2) ? 1 : -1));
    case 3:
      return Json(rng.Word(0, 12) + (rng.OneIn(3) ? "\"\\\n\t" : ""));
    case 4: {
      JsonArray array;
      size_t n = rng.Below(5);
      for (size_t i = 0; i < n; ++i) {
        array.push_back(RandomJson(rng, depth + 1));
      }
      return Json(std::move(array));
    }
    default: {
      JsonObject object;
      size_t n = rng.Below(5);
      for (size_t i = 0; i < n; ++i) {
        object[rng.Word(1, 8)] = RandomJson(rng, depth + 1);
      }
      return Json(std::move(object));
    }
  }
}

class JsonRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripTest, DumpThenParseIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Json doc = RandomJson(rng, 0);
    for (int indent : {0, 2}) {
      auto reparsed = Json::Parse(doc.Dump(indent));
      ASSERT_TRUE(reparsed.ok()) << doc.Dump(indent);
      EXPECT_TRUE(*reparsed == doc) << doc.Dump(indent);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Range(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// ---------------------------------------------------------------- Histogram

TEST(HistogramTest, PercentilesExact) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i * 10);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.Percentile(0.5), 500);
  EXPECT_EQ(h.Percentile(0.99), 990);
  EXPECT_EQ(h.Percentile(1.0), 1000);
  EXPECT_DOUBLE_EQ(h.mean(), 505.0);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a, b;
  a.Record(1);
  b.Record(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max(), 3);
}

TEST(HistogramTest, FormatNanosUnits) {
  EXPECT_EQ(FormatNanos(999), "999ns");
  EXPECT_EQ(FormatNanos(1'300'000), "1.30ms");
  EXPECT_EQ(FormatNanos(2'500'000'000), "2.50s");
}

TEST(HistogramTest, FormatBytesUnits) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(4096), "4KB");
  EXPECT_EQ(FormatBytes(16ull * 1024 * 1024), "16MB");
}

// ---------------------------------------------------------------- Clock

TEST(ClockTest, MonoNanosIsMonotonic) {
  int64_t a = MonoNanos();
  int64_t b = MonoNanos();
  EXPECT_LE(a, b);
}

TEST(ClockTest, SpinForWaitsApproximately) {
  int64_t start = MonoNanos();
  SpinFor(2'000'000);  // 2 ms
  EXPECT_GE(MonoNanos() - start, 2'000'000);
}

TEST(ClockTest, ScopedTimerAccumulates) {
  int64_t total = 0;
  {
    ScopedTimer timer(&total);
    SpinFor(1'000'000);
  }
  EXPECT_GE(total, 1'000'000);
}

// ---------------------------------------------------------------- Queue

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(BlockingQueueTest, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(5);
  q.Close();
  EXPECT_FALSE(q.Push(6));
  EXPECT_EQ(*q.Pop(), 5);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BoundedTryPushRespectsCapacity) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BlockingQueueTest, PopWithTimeoutExpires) {
  BlockingQueue<int> q;
  auto start = MonoNanos();
  EXPECT_FALSE(q.PopWithTimeout(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(MonoNanos() - start, 15'000'000);
}

TEST(BlockingQueueTest, CrossThreadHandoff) {
  BlockingQueue<int> q(4);
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) {
      q.Push(i);
    }
    q.Close();
  });
  int expected = 0;
  while (auto v = q.Pop()) {
    EXPECT_EQ(*v, expected++);
  }
  EXPECT_EQ(expected, 1000);
  producer.join();
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DrainIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] { count.fetch_add(1); });
  pool.Drain();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&] { count.fetch_add(1); });
  pool.Drain();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, PinToCpusAppliesToCurrentAndFutureWorkers) {
  ThreadPool pool(2);
  // CPU 0 always exists; the pin may still fail in restricted sandboxes, so
  // assert the invariant instead of the syscall: either every worker pinned
  // and the cpuset is remembered for future workers, or the pool fell back
  // to no affinity. Never half-pinned.
  const size_t pinned = pool.PinToCpus({0});
  if (pinned == 2) {
    EXPECT_EQ(pool.pinned_cpus(), std::vector<int>{0});
    pool.EnsureAtLeast(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    EXPECT_EQ(pool.pinned_cpus(), std::vector<int>{0});
  } else {
    EXPECT_EQ(pinned, 0u);
    EXPECT_TRUE(pool.pinned_cpus().empty());
  }
  // The pool still works while pinned.
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, PinToCpusInvalidSetFallsBackToNoAffinity) {
  ThreadPool pool(2);
  // No valid CPU in the set (out of range for any machine): the pool must
  // not half-apply — it reports zero pinned and clears the remembered set.
  EXPECT_EQ(pool.PinToCpus({1 << 20}), 0u);
  EXPECT_TRUE(pool.pinned_cpus().empty());
  std::atomic<int> count{0};
  pool.Submit([&] { count.fetch_add(1); });
  pool.Drain();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, OnDemandGrowthStopsAtTheCap) {
  ThreadPool pool(0, 3);
  EXPECT_EQ(pool.num_threads(), 0u);
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(pool.Submit([&] {
      started.fetch_add(1);
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return open; });
      finished.fetch_add(1);
    }));
  }
  EXPECT_EQ(pool.num_threads(), 3u) << "10 blocked tasks, cap 3";
  while (started.load() < 3) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    open = true;
  }
  cv.notify_all();
  pool.Drain();
  EXPECT_EQ(finished.load(), 10);
  EXPECT_EQ(pool.num_threads(), 3u);
}

TEST(ThreadPoolTest, SequentialTasksReuseOneWorker) {
  ThreadPool pool(0, 8);
  std::set<std::thread::id> ran_on;
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(
        pool.Submit([&] { ran_on.insert(std::this_thread::get_id()); }));
    pool.Drain();
  }
  EXPECT_EQ(pool.num_threads(), 1u) << "an idle worker takes the next task";
  EXPECT_EQ(ran_on.size(), 1u);
}

TEST(ThreadPoolTest, TheMostRecentlyIdleWorkerTakesTheNextTask) {
  ThreadPool pool(0, 3);
  // Three tasks that wait for each other: three workers, all busy, then
  // all idle.
  std::atomic<int> started{0};
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(pool.Submit([&] {
      started.fetch_add(1);
      while (started.load() < 3) {
        std::this_thread::yield();
      }
    }));
  }
  pool.Drain();
  std::set<std::thread::id> ran_on;
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(
        pool.Submit([&] { ran_on.insert(std::this_thread::get_id()); }));
    pool.Drain();
  }
  EXPECT_EQ(pool.num_threads(), 3u);
  EXPECT_EQ(ran_on.size(), 1u) << "idle workers wake last-in first-out, so "
                                  "the other two stay asleep";
}

TEST(ThreadPoolTest, SetMaxThreadsMovesTheCap) {
  ThreadPool pool(0, 1);
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  auto blocker = [&] {
    while (!release) {
      std::this_thread::yield();
    }
    done.fetch_add(1);
  };
  EXPECT_TRUE(pool.Submit(blocker));
  EXPECT_TRUE(pool.Submit(blocker));
  EXPECT_EQ(pool.num_threads(), 1u);
  pool.SetMaxThreads(2);
  EXPECT_TRUE(pool.Submit(blocker));
  EXPECT_EQ(pool.num_threads(), 2u) << "a raised cap spawns on the next Submit";
  release = true;
  pool.Drain();
  EXPECT_EQ(done.load(), 3);
}

TEST(ThreadPoolTest, DrainAndDestructionWithZeroWorkers) {
  {
    ThreadPool pool(0, 4);
    pool.Drain();  // nothing submitted: returns at once
    EXPECT_EQ(pool.num_threads(), 0u);
  }
  {
    // No on-demand growth: tasks wait for EnsureAtLeast (the stage-worker
    // pools' contract).
    ThreadPool pool(0);
    std::atomic<int> count{0};
    EXPECT_TRUE(pool.Submit([&] { count.fetch_add(1); }));
    EXPECT_EQ(pool.num_threads(), 0u);
    EXPECT_EQ(pool.EnsureAtLeast(1), 1u);
    pool.Drain();
    EXPECT_EQ(count.load(), 1);
  }
}

TEST(ThreadPoolTest, OnDemandWorkerGetsTheCreatorsCpuMask) {
  cpu_set_t creator;
  ASSERT_EQ(sched_getaffinity(0, sizeof(creator), &creator), 0);
  if (CPU_COUNT(&creator) < 2) {
    GTEST_SKIP() << "needs two CPUs to tell a pinned mask from the creator's";
  }
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &creator)) {
    ++first_cpu;
  }
  ThreadPool pool(0, 2);
  cpu_set_t seen;
  CPU_ZERO(&seen);
  // Submit from a thread pinned to one CPU, as a shard's warmer is: the
  // worker it spawns must not inherit that pin.
  std::thread pinned([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first_cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    EXPECT_TRUE(pool.Submit(
        [&] { sched_getaffinity(0, sizeof(seen), &seen); }));
  });
  pinned.join();
  pool.Drain();
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_TRUE(CPU_EQUAL(&seen, &creator))
      << "worker mask has " << CPU_COUNT(&seen) << " CPUs, creator's "
      << CPU_COUNT(&creator);
}

// ---------------------------------------------------------------- SimCostModel

TEST(SimCostModelTest, ScalingApplies) {
  SimCostModel model;
  model.scale = 0.5;
  EXPECT_EQ(model.Scaled(1000), 500);
  model.scale = 1.0;
  EXPECT_EQ(model.Scaled(1000), 1000);
}

// ------------------------------------------------------------------- Env

TEST(EnvTest, EnvInt64ReadsANonNegativeLeadingNumber) {
  const char* name = "ASBASE_TEST_ENV_INT64";
  ::unsetenv(name);
  EXPECT_EQ(EnvInt64(name, 7), 7);
  const std::pair<const char*, int64_t> cases[] = {
      {"", 7}, {"42", 42}, {"0", 0}, {"12ms", 12}, {"-3", 7}, {"abc", 7}};
  for (const auto& [value, expected] : cases) {
    ::setenv(name, value, 1);
    EXPECT_EQ(EnvInt64(name, 7), expected) << "'" << value << "'";
  }
  ::unsetenv(name);
}

TEST(EnvTest, EnvFlagIsOffOnlyForZero) {
  const char* name = "ASBASE_TEST_ENV_FLAG";
  ::unsetenv(name);
  EXPECT_TRUE(EnvFlag(name, true));
  EXPECT_FALSE(EnvFlag(name, false));
  const std::pair<const char*, bool> cases[] = {
      {"0", false}, {"1", true}, {"yes", true}, {"00", true}, {"false", true}};
  for (const auto& [value, expected] : cases) {
    ::setenv(name, value, 1);
    EXPECT_EQ(EnvFlag(name, !expected), expected) << "'" << value << "'";
  }
  ::setenv(name, "", 1);
  EXPECT_TRUE(EnvFlag(name, true)) << "empty reads as unset";
  EXPECT_FALSE(EnvFlag(name, false)) << "empty reads as unset";
  ::unsetenv(name);
}

TEST(EnvTest, EnvStringFallsBackWhenUnsetOrEmpty) {
  const char* name = "ASBASE_TEST_ENV_STRING";
  ::unsetenv(name);
  EXPECT_STREQ(EnvString(name, "."), ".");
  ::setenv(name, "", 1);
  EXPECT_STREQ(EnvString(name, "."), ".");
  ::setenv(name, "/var/tmp", 1);
  EXPECT_STREQ(EnvString(name, "."), "/var/tmp");
  ::unsetenv(name);
}

}  // namespace
}  // namespace asbase
