// Data-plane benchmark (DESIGN.md "Event-driven data plane", EXPERIMENTS.md
// "dataplane"):
//
//   1. stage dispatch           — warm multi-stage invocation latency and
//      closed-loop RPS on the per-WFD worker pool (the caller runs one
//      instance per stage, the pool the rest), plus the thread-spawn count
//      over the measured window (zero on a reused WFD is the whole point).
//   2. idle poller CPU          — poll-loop iterations of idle netstacks
//      over a fixed window, against the ~1 iteration/ms/stack the old
//      tick-based poller burned.
//
// `--quick` shrinks both sections to a smoke test (compile-and-run checked
// by ctest, label `dataplane`). Emits BENCH_dataplane.json.

#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/netstack/channel.h"
#include "src/netstack/stack.h"
#include "src/obs/metrics.h"

namespace asbench {
namespace {

using alloy::FunctionContext;
using alloy::FunctionRegistry;
using alloy::FunctionSpec;
using alloy::StageSpec;
using alloy::WorkflowSpec;

alloy::WfdOptions BenchWfd() {
  alloy::WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

int64_t RunOnce(alloy::Orchestrator& orchestrator, const WorkflowSpec& spec) {
  const int64_t start = asbase::MonoNanos();
  auto stats = orchestrator.Run(spec, asbase::Json());
  if (!stats.ok()) {
    std::fprintf(stderr, "workflow failed: %s\n",
                 stats.status().ToString().c_str());
    return 0;
  }
  return asbase::MonoNanos() - start;
}

// One-way TCP transfer over a fresh stack pair; returns Gbit/s as seen by
// the receiver. `zerocopy` selects SendZeroCopy/RecvZeroCopy (pinned gather
// TX, pool-owned reference RX) vs the copying Send/Recv path.
double OneWayGbps(bool zerocopy, size_t payload_bytes, size_t total_bytes) {
  asnet::VirtualSwitch fabric;
  auto server_port = fabric.Attach(asnet::MakeAddr(10, 7, 0, 1));
  auto client_port = fabric.Attach(asnet::MakeAddr(10, 7, 0, 2));
  asnet::NetStack server(server_port), client(client_port);

  auto listener = server.Listen(7100);
  if (!listener.ok()) {
    return 0;
  }
  int64_t rx_nanos = 0;
  std::thread sink([&] {
    auto connection = (*listener)->Accept(std::chrono::seconds(60));
    if (!connection.ok()) {
      return;
    }
    std::vector<uint8_t> buffer(256 * 1024);
    size_t total = 0;
    asbase::ScopedTimer timer(&rx_nanos);
    while (total < total_bytes) {
      if (zerocopy) {
        auto chunk = (*connection)->RecvZeroCopy();
        if (!chunk.ok() || chunk->bytes.empty()) {
          break;
        }
        total += chunk->bytes.size();
      } else {
        auto n = (*connection)->Recv(buffer);
        if (!n.ok() || *n == 0) {
          break;
        }
        total += *n;
      }
    }
  });

  {
    auto connection =
        client.Connect(server.addr(), 7100, std::chrono::seconds(30));
    if (!connection.ok()) {
      sink.join();
      return 0;
    }
    auto chunk = std::make_shared<std::vector<uint8_t>>(payload_bytes, 0xA5);
    for (size_t done = 0; done < total_bytes; done += payload_bytes) {
      auto sent = zerocopy ? (*connection)->SendZeroCopy(*chunk, chunk)
                           : (*connection)->Send(*chunk);
      if (!sent.ok()) {
        break;
      }
    }
    (*connection)->Close();
  }
  sink.join();
  if (rx_nanos <= 0) {
    return 0;
  }
  return static_cast<double>(total_bytes) * 8 / 1e9 /
         (static_cast<double>(rx_nanos) / 1e9);
}

int Main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const int warm_iters = quick ? 5 : 50;
  const int64_t idle_window_ms = quick ? 150 : 500;

  PrintHeader("dataplane",
              "event-driven data plane: worker-pool dispatch + sleeping poller");

  FunctionRegistry::Global().Register(
      "bench.dp-noop", [](FunctionContext& ctx) -> asbase::Status {
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
  // 4 stages × 4 instances of a no-op function: with no user work, stage
  // dispatch (pool submit, worker wake-up, drain) dominates the run.
  WorkflowSpec spec;
  spec.name = "dp";
  for (int stage = 0; stage < 4; ++stage) {
    spec.stages.push_back(StageSpec{{FunctionSpec{"bench.dp-noop", 4}}});
  }

  asbase::Json doc;
  doc.Set("bench", "dataplane");
  doc.Set("scale", asbase::SimCostModel::Global().scale);
  asbase::Json series{asbase::JsonObject{}};

  // ---------------- section 1: warm stage dispatch on the worker pool
  {
    asobs::Counter& spawns = asobs::Registry::Global().GetCounter(
        "alloy_orch_thread_spawns_total");
    auto wfd = alloy::Wfd::Create(BenchWfd());
    if (!wfd.ok()) {
      std::fprintf(stderr, "WFD create failed: %s\n",
                   wfd.status().ToString().c_str());
      return 1;
    }
    alloy::Orchestrator orchestrator(wfd->get());
    // Warm-up run spawns the workers once; every measured iteration below
    // reuses them.
    RunOnce(orchestrator, spec);
    const uint64_t spawns_before = spawns.value();
    asbase::Histogram hist;
    for (int i = 0; i < warm_iters; ++i) {
      hist.Record(RunOnce(orchestrator, spec));
    }
    const uint64_t warm_spawns = spawns.value() - spawns_before;
    const double rps = hist.mean() > 0 ? 1e9 / hist.mean() : 0.0;

    std::printf("\nwarm 4-stage x4-instance invocation (%d iterations)\n",
                warm_iters);
    std::printf("  %10s %10s %10s %8s\n", "p50", "p99", "RPS", "spawns");
    std::printf("  %10s %10s %10.0f %8llu\n", Ms(hist.Percentile(0.5)).c_str(),
                Ms(hist.Percentile(0.99)).c_str(), rps,
                static_cast<unsigned long long>(warm_spawns));

    series.Set("dispatch_pool", hist.ToJson());
    doc.Set("pool_p50_nanos", hist.Percentile(0.5));
    doc.Set("pool_rps", rps);
    doc.Set("pool_warm_spawns", static_cast<int64_t>(warm_spawns));
  }

  // ---------------- section 2: idle poller CPU
  {
    asobs::Counter& iterations = asobs::Registry::Global().GetCounter(
        "alloy_net_poll_iterations_total");
    asnet::VirtualSwitch fabric;
    std::vector<std::unique_ptr<asnet::NetStack>> stacks;
    constexpr int kStacks = 4;
    for (int i = 0; i < kStacks; ++i) {
      stacks.push_back(std::make_unique<asnet::NetStack>(
          fabric.Attach(asnet::MakeAddr(10, 0, 0, static_cast<uint8_t>(i + 1)))));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t before = iterations.value();
    std::this_thread::sleep_for(std::chrono::milliseconds(idle_window_ms));
    const uint64_t idle_iterations = iterations.value() - before;
    // The old poller ticked every 1 ms regardless of traffic.
    const uint64_t tick_model_iterations =
        static_cast<uint64_t>(kStacks) * static_cast<uint64_t>(idle_window_ms);

    std::printf("\nidle poller: %d stacks over %lld ms\n", kStacks,
                static_cast<long long>(idle_window_ms));
    std::printf("  1ms-tick model:   %8llu iterations\n",
                static_cast<unsigned long long>(tick_model_iterations));
    std::printf("  event-driven:     %8llu iterations\n",
                static_cast<unsigned long long>(idle_iterations));

    doc.Set("idle_stacks", static_cast<int64_t>(kStacks));
    doc.Set("idle_window_ms", idle_window_ms);
    doc.Set("idle_poll_iterations", static_cast<int64_t>(idle_iterations));
    doc.Set("idle_tick_model_iterations",
            static_cast<int64_t>(tick_model_iterations));
  }

  // ---------------- section 3: zero-copy payload-size sweep
  {
    // Copying Send/Recv vs pinned SendZeroCopy / pool-owned RecvZeroCopy,
    // one fresh stack pair per point. The path= byte counters prove which
    // path carried the traffic: the zerocopy run must move its bytes under
    // path="zerocopy" with zero growth under path="copy" (no payload memcpy
    // on the TX hot path).
    asobs::Counter& tx_zerocopy_bytes = asobs::Registry::Global().GetCounter(
        "alloy_net_tx_bytes_total", {{"path", "zerocopy"}});
    asobs::Counter& tx_copy_bytes = asobs::Registry::Global().GetCounter(
        "alloy_net_tx_bytes_total", {{"path", "copy"}});

    const std::vector<size_t> sizes =
        quick ? std::vector<size_t>{4 * 1024, 64 * 1024, 256 * 1024}
              : std::vector<size_t>{4 * 1024, 16 * 1024, 64 * 1024,
                                    256 * 1024, 1024 * 1024, 4 * 1024 * 1024};

    std::printf("\nzero-copy payload sweep (one-way TCP, Gbit/s)\n");
    std::printf("  %-12s %10s %10s %8s\n", "payload", "copy", "zerocopy",
                "speedup");

    asbase::Json sweep{asbase::JsonArray{}};
    double speedup_256k = 0;
    uint64_t zc_path_delta = 0, copy_path_delta = 0;
    for (size_t payload : sizes) {
      const size_t total =
          std::max<size_t>(payload * (quick ? 4 : 8),
                           quick ? (2u << 20) : (16u << 20));
      const double copy_gbps = OneWayGbps(false, payload, total);
      const uint64_t zc_before = tx_zerocopy_bytes.value();
      const uint64_t copy_before = tx_copy_bytes.value();
      const double zerocopy_gbps = OneWayGbps(true, payload, total);
      const double speedup =
          copy_gbps > 0 ? zerocopy_gbps / copy_gbps : 0.0;
      if (payload == 256 * 1024) {
        speedup_256k = speedup;
        zc_path_delta = tx_zerocopy_bytes.value() - zc_before;
        copy_path_delta = tx_copy_bytes.value() - copy_before;
      }

      std::printf("  %-12s %10.3f %10.3f %7.2fx\n",
                  (payload >= 1024 * 1024
                       ? std::to_string(payload / (1024 * 1024)) + " MiB"
                       : std::to_string(payload / 1024) + " KiB")
                      .c_str(),
                  copy_gbps, zerocopy_gbps, speedup);

      asbase::Json row{asbase::JsonObject{}};
      row.Set("payload_bytes", static_cast<int64_t>(payload));
      row.Set("total_bytes", static_cast<int64_t>(total));
      row.Set("copy_gbps", copy_gbps);
      row.Set("zerocopy_gbps", zerocopy_gbps);
      row.Set("zerocopy_speedup", speedup);
      sweep.Append(std::move(row));
    }
    std::printf("  256 KiB zerocopy path counters: zerocopy+=%llu copy+=%llu\n",
                static_cast<unsigned long long>(zc_path_delta),
                static_cast<unsigned long long>(copy_path_delta));

    doc.Set("zerocopy_sweep", std::move(sweep));
    doc.Set("zerocopy_speedup_256k", speedup_256k);
    doc.Set("zerocopy_256k_tx_zerocopy_bytes_delta",
            static_cast<int64_t>(zc_path_delta));
    doc.Set("zerocopy_256k_tx_copy_bytes_delta",
            static_cast<int64_t>(copy_path_delta));
  }

  doc.Set("series", std::move(series));
  const std::string text = doc.Dump(2);
  if (FILE* f = std::fopen("BENCH_dataplane.json", "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nresults written to BENCH_dataplane.json\n");
  }
  return 0;
}

}  // namespace
}  // namespace asbench

int main(int argc, char** argv) { return asbench::Main(argc, argv); }
