// Figure 10: cold start latency of the no-ops function across platforms.
//
// Real measurements: AlloyStack (AS), AS-load-all, AS-C, AS-Py (VM runtime
// init through the LibOS), Faastlane-T (thread spawn), Wasmer-T-equivalent
// module instantiation. Modeled sandboxes (this machine cannot boot them):
// Wasmer process, Virtines, Unikraft, gVisor, Kata, Faasm-Py worker.
//
// A second section (DESIGN.md §14, `--quick` runs only this part) measures
// snapshot-fork clone boot against a full boot for an IO+heap workflow,
// proves the visor actually clones via the alloy_visor_snapshot_* counter
// deltas, and sweeps per-idle-clone resident bytes at increasing density.
// Emits BENCH_snapshot.json.

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "src/baselines/sim_profiles.h"

namespace {

using namespace asbench;

// AlloyStack no-ops cold start: WFD instantiation + the time until the user
// no-op begins to run (no modules needed under on-demand loading).
int64_t AlloyColdStart(bool on_demand) {
  alloy::FunctionRegistry::Global().Register(
      "fig10.noop", [](alloy::FunctionContext&) { return asbase::OkStatus(); });
  return MedianNanos([&]() -> int64_t {
    alloy::WfdOptions options;
    options.on_demand = on_demand;
    options.heap_bytes = 16u << 20;
    options.disk_blocks = 16 * 1024;
    auto wfd = alloy::Wfd::Create(options);
    if (!wfd.ok()) {
      return 0;
    }
    alloy::WorkflowSpec spec;
    spec.name = "noop";
    spec.stages.push_back(
        alloy::StageSpec{{alloy::FunctionSpec{"fig10.noop", 1}}});
    alloy::Orchestrator orchestrator(wfd->get());
    const int64_t start = asbase::MonoNanos();
    auto stats = orchestrator.Run(spec, asbase::Json());
    if (!stats.ok()) {
      return 0;
    }
    return (*wfd)->creation_nanos() + (*wfd)->libos().TotalLoadNanos() +
           (asbase::MonoNanos() - start) - stats->total_nanos +
           stats->total_nanos;  // = boot + dispatch-to-noop-return
  });
}

// AS-C / AS-Py: the WASM path adds VM construction (+ stdlib load for Py).
int64_t AlloyVmColdStart(bool python) {
  auto workflow = aswl::BuildVmWorkflow(aswl::VmApp::kPipe, 1);
  if (!workflow.ok()) {
    return 0;
  }
  // A no-op guest: the pipe sender with 0 bytes.
  aswl::VmWorkflowSpec noop;
  noop.name = "fig10-noop";
  noop.stages.push_back(workflow->stages[0]);
  alloy::WorkflowSpec spec = aswl::RegisterAlloyVmWorkflow(noop, python);
  return MedianNanos([&]() -> int64_t {
    AlloyRunConfig config;
    config.wfd.heap_bytes = 16u << 20;
    config.wfd.disk_blocks = 16 * 1024;
    config.params.Set("bytes", 0);
    config.params.Set("seed", 1);
    config.python_stdlib = python;
    auto outcome = RunAlloyOnce(spec, config);
    return outcome.end_to_end;
  });
}

int64_t ThreadSpawn() {
  // Faastlane-T: function-as-thread in a warm process.
  return MedianNanos([] {
    const int64_t start = asbase::MonoNanos();
    std::thread noop([] {});
    noop.join();
    return asbase::MonoNanos() - start;
  });
}

// ------------------------------------------------ snapshot-fork clone boot

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

alloy::WfdOptions SnapWfd() {
  alloy::WfdOptions options;
  options.heap_bytes = 8u << 20;
  options.disk_blocks = 16 * 1024;
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

uint64_t SnapCounter(const std::string& name, const std::string& workflow) {
  return asobs::Registry::Global()
      .GetCounter(name, {{"workflow", workflow}})
      .value();
}

void RegisterSnapshotFunctions() {
  // IO + heap workflow: a full boot pays the mm, fdtab, and fatfs module
  // loads (the dlmopen-dominated part of cold start); a clone pays none.
  alloy::FunctionRegistry::Global().Register(
      "fig10.touch", [](alloy::FunctionContext& ctx) -> asbase::Status {
        AS_ASSIGN_OR_RETURN(alloy::RawBuffer buffer,
                            ctx.as().AllocBuffer("snap", 4096, 1));
        std::memset(buffer.bytes.data(), 0x42, buffer.bytes.size());
        AS_ASSIGN_OR_RETURN(alloy::RawBuffer taken,
                            ctx.as().AcquireBuffer("snap", 1));
        AS_RETURN_IF_ERROR(ctx.as().FreeBuffer(taken));
        AS_RETURN_IF_ERROR(ctx.as().WriteWholeFile(
            "/snap.bin", Bytes(std::string(4096, 'x'))));
        AS_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                            ctx.as().ReadWholeFile("/snap.bin"));
        ctx.SetResult(std::to_string(data.size()));
        return asbase::OkStatus();
      });
  // Same modules, but the instances rendezvous so two invocations are
  // provably in flight at once (forces a deterministic pool miss → clone).
  alloy::FunctionRegistry::Global().Register(
      "fig10.touch-block", [](alloy::FunctionContext& ctx) -> asbase::Status {
        AS_RETURN_IF_ERROR(ctx.as().WriteWholeFile(
            "/snap.bin", Bytes(std::string(4096, 'x'))));
        auto* gate = reinterpret_cast<std::atomic<int>*>(
            static_cast<uintptr_t>(ctx.params()["gate"].as_int()));
        gate->fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (gate->load() < 2 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        ctx.SetResult("ok");
        return asbase::OkStatus();
      });
}

alloy::WorkflowSpec SnapSpec(const std::string& name, const std::string& fn) {
  alloy::WorkflowSpec spec;
  spec.name = name;
  spec.stages.push_back(alloy::StageSpec{{alloy::FunctionSpec{fn, 1}}});
  return spec;
}

// Boots a WFD and runs the touch workflow once (loading its modules).
// Returns null on failure.
std::unique_ptr<alloy::Wfd> BootAndTouch(int64_t* boot_nanos) {
  auto wfd = alloy::Wfd::Create(SnapWfd());
  if (!wfd.ok()) {
    return nullptr;
  }
  alloy::Orchestrator orchestrator(wfd->get());
  auto stats = orchestrator.Run(SnapSpec("snap-touch", "fig10.touch"),
                                asbase::Json());
  if (!stats.ok()) {
    return nullptr;
  }
  if (boot_nanos != nullptr) {
    *boot_nanos = (*wfd)->creation_nanos() + (*wfd)->libos().TotalLoadNanos();
  }
  return std::move(*wfd);
}

void SnapshotSection(bool quick) {
  PrintHeader("snapshot clone boot",
              "full boot vs CoW clone (DESIGN.md §14)");
  RegisterSnapshotFunctions();
  const int iterations = quick ? 5 : 40;

  asbase::Json doc;
  doc.Set("bench", "snapshot");
  doc.Set("scale", asbase::SimCostModel::Global().scale);
  doc.Set("quick", quick);
  asbase::Json series{asbase::JsonObject{}};

  // Template: first boot + invoke + reset, then freeze.
  int64_t template_boot = 0;
  std::unique_ptr<alloy::Wfd> tmpl = BootAndTouch(&template_boot);
  if (tmpl == nullptr || !tmpl->Reset().ok()) {
    std::fprintf(stderr, "template boot failed\n");
    return;
  }
  auto snapshot = tmpl->CaptureSnapshot();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot capture failed: %s\n",
                 snapshot.status().ToString().c_str());
    return;
  }

  // (a) Full boot: WFD create + on-demand module loads during the run.
  asbase::Histogram full_boot;
  for (int i = 0; i < iterations; ++i) {
    int64_t nanos = 0;
    if (BootAndTouch(&nanos) != nullptr) {
      full_boot.Record(nanos);
    }
  }

  // (b) Clone boot from the frozen template.
  asbase::Histogram clone_boot;
  for (int i = 0; i < iterations; ++i) {
    auto clone = alloy::Wfd::CloneFromSnapshot(SnapWfd(), *snapshot);
    if (clone.ok()) {
      clone_boot.Record((*clone)->creation_nanos());
    }
  }
  // Prove a clone actually serves the workflow.
  {
    auto clone = alloy::Wfd::CloneFromSnapshot(SnapWfd(), *snapshot);
    if (clone.ok()) {
      alloy::Orchestrator orchestrator(clone->get());
      auto stats = orchestrator.Run(SnapSpec("snap-touch", "fig10.touch"),
                                    asbase::Json());
      if (!stats.ok()) {
        std::fprintf(stderr, "clone run failed: %s\n",
                     stats.status().ToString().c_str());
      }
    }
  }

  std::printf("%-22s %12s %12s %12s\n", "boot path", "p50", "p99", "min");
  auto boot_row = [](const char* name, const asbase::Histogram& hist) {
    std::printf("%-22s %12s %12s %12s\n", name,
                Ms(hist.Percentile(0.5)).c_str(),
                Ms(hist.Percentile(0.99)).c_str(), Ms(hist.min()).c_str());
  };
  boot_row("full boot", full_boot);
  boot_row("snapshot clone boot", clone_boot);
  const double speedup =
      static_cast<double>(full_boot.Percentile(0.5)) /
      static_cast<double>(std::max<int64_t>(clone_boot.Percentile(0.5), 1));
  std::printf("full/clone p50 speedup: %.0fx\n", speedup);
  series.Set("full_boot", full_boot.ToJson());
  series.Set("clone_boot", clone_boot.ToJson());
  doc.Set("full_clone_p50_speedup", speedup);

  // Counter-delta proof through the visor: first invoke captures, a
  // rendezvoused concurrent pair forces a pool miss that must clone.
  {
    const std::string wf = "fig10-snap";
    const uint64_t creates0 =
        SnapCounter("alloy_visor_snapshot_creates_total", wf);
    const uint64_t clones0 =
        SnapCounter("alloy_visor_snapshot_clones_total", wf);
    const uint64_t fallbacks0 =
        SnapCounter("alloy_visor_snapshot_fallback_boots_total", wf);
    alloy::AsVisor visor;
    alloy::AsVisor::WorkflowOptions options;
    options.wfd = SnapWfd();
    options.pool_size = 2;
    options.max_concurrency = 2;
    visor.RegisterWorkflow(SnapSpec(wf, "fig10.touch-block"), options);
    std::atomic<int> gate{2};  // first invoke runs alone: pre-opened gate
    asbase::Json params;
    params.Set("gate",
               static_cast<int64_t>(reinterpret_cast<uintptr_t>(&gate)));
    (void)visor.Invoke(wf, params);
    asbase::Histogram visor_clone_invoke;
    const int pairs = quick ? 1 : 5;
    for (int i = 0; i < pairs; ++i) {
      gate.store(0);
      asbase::Result<alloy::InvokeResult> r1 = asbase::Unavailable("unset");
      asbase::Result<alloy::InvokeResult> r2 = asbase::Unavailable("unset");
      std::thread t1([&] { r1 = visor.Invoke(wf, params); });
      std::thread t2([&] { r2 = visor.Invoke(wf, params); });
      t1.join();
      t2.join();
      for (const auto& r : {&r1, &r2}) {
        if (r->ok() && (**r).clone_start) {
          visor_clone_invoke.Record((**r).wfd_create_nanos);
        }
      }
    }
    const uint64_t creates =
        SnapCounter("alloy_visor_snapshot_creates_total", wf) - creates0;
    const uint64_t clones =
        SnapCounter("alloy_visor_snapshot_clones_total", wf) - clones0;
    const uint64_t fallbacks =
        SnapCounter("alloy_visor_snapshot_fallback_boots_total", wf) -
        fallbacks0;
    std::printf(
        "\nvisor lifecycle: creates +%llu, clones +%llu, fallback boots "
        "+%llu (clone-path wfd create p50 %s)\n",
        static_cast<unsigned long long>(creates),
        static_cast<unsigned long long>(clones),
        static_cast<unsigned long long>(fallbacks),
        Ms(visor_clone_invoke.Percentile(0.5)).c_str());
    asbase::Json counters;
    counters.Set("snapshot_creates_delta", static_cast<int64_t>(creates));
    counters.Set("snapshot_clones_delta", static_cast<int64_t>(clones));
    counters.Set("snapshot_fallback_boots_delta",
                 static_cast<int64_t>(fallbacks));
    doc.Set("counters", std::move(counters));
    series.Set("visor_clone_invoke", visor_clone_invoke.ToJson());
  }

  // Resident-bytes-per-idle-workflow sweep: N idle clones of one template
  // vs what N full boots would each hold privately.
  {
    int64_t reference_boot = 0;
    std::unique_ptr<alloy::Wfd> reference = BootAndTouch(&reference_boot);
    size_t full_resident = 0;
    if (reference != nullptr && reference->Reset().ok()) {
      full_resident = reference->ResidentBytes();
    }
    std::printf("\nidle density (full-boot WFD resident: %zu KiB)\n",
                full_resident / 1024);
    std::printf("%-12s %18s %10s\n", "clones", "per-clone resident",
                "vs full");
    asbase::Json sweep{asbase::JsonArray{}};
    const std::vector<int> counts =
        quick ? std::vector<int>{1, 8} : std::vector<int>{1, 64, 512};
    for (int count : counts) {
      std::vector<std::unique_ptr<alloy::Wfd>> clones;
      clones.reserve(static_cast<size_t>(count));
      for (int i = 0; i < count; ++i) {
        auto clone = alloy::Wfd::CloneFromSnapshot(SnapWfd(), *snapshot);
        if (clone.ok()) {
          clones.push_back(std::move(*clone));
        }
      }
      size_t total = 0;
      for (const auto& clone : clones) {
        total += clone->ResidentBytes();
      }
      const size_t per_clone =
          clones.empty() ? 0 : total / clones.size();
      const double ratio =
          full_resident == 0 ? 0.0
                             : static_cast<double>(per_clone) /
                                   static_cast<double>(full_resident);
      std::printf("%-12d %15zu B %9.1f%%\n", count, per_clone,
                  100.0 * ratio);
      asbase::Json row;
      row.Set("clones", static_cast<int64_t>(count));
      row.Set("per_clone_resident_bytes", static_cast<int64_t>(per_clone));
      row.Set("full_boot_resident_bytes",
              static_cast<int64_t>(full_resident));
      row.Set("ratio", ratio);
      sweep.Append(std::move(row));
    }
    doc.Set("resident_sweep", std::move(sweep));
  }

  doc.Set("series", std::move(series));
  const std::string path = "BENCH_snapshot.json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    const std::string text = doc.Dump(2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("results written to %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  if (quick) {
    // Smoke mode (ctest/ci.sh): only the snapshot clone-boot section — the
    // platform table's modeled boots take seconds each.
    SnapshotSection(quick);
    return 0;
  }
  PrintHeader("Figure 10", "no-ops cold start latency per platform");
  std::printf("%-26s %14s  %s\n", "platform", "cold start", "source");
  std::printf("----------------------------------------------------------\n");
  auto row = [](const std::string& name, int64_t nanos, const char* source) {
    std::printf("%-26s %14s  %s\n", name.c_str(), Ms(nanos).c_str(), source);
  };

  row("Faastlane-T", ThreadSpawn(), "real");
  row("AlloyStack (AS)", AlloyColdStart(/*on_demand=*/true), "real");
  const size_t noop_image = 4096;
  row("Wasmer-T", MedianNanos([&] {
        return asbl::SimulateBoot(asbl::WasmerThreadProfile(noop_image));
      }),
      "model+work");
  row("AS-load-all", AlloyColdStart(/*on_demand=*/false), "real");
  row("AS-C", AlloyVmColdStart(/*python=*/false), "real");
  row("Virtines", MedianNanos([] {
        return asbl::SimulateBoot(asbl::VirtinesProfile());
      }),
      "model+work");
  row("Unikraft", MedianNanos([] {
        return asbl::SimulateBoot(asbl::UnikraftProfile());
      }),
      "model+work");
  row("Wasmer", MedianNanos([&] {
        return asbl::SimulateBoot(asbl::WasmerProcessProfile(noop_image));
      }),
      "model+work");
  row("Faastlane (process)", MedianNanos([] {
        asbase::SpinFor(asbase::SimCostModel::Global().Scaled(
            asbase::SimCostModel::Global().process_spawn_nanos));
        return asbase::SimCostModel::Global().Scaled(
            asbase::SimCostModel::Global().process_spawn_nanos);
      }),
      "model");
  row("OpenFaaS container", MedianNanos([] {
        return asbl::SimulateBoot(asbl::ContainerProfile());
      }),
      "model+work");
  row("gVisor", MedianNanos([] {
        return asbl::SimulateBoot(asbl::GvisorProfile());
      }),
      "model+work");
  row("Kata/Firecracker", MedianNanos([] {
        return asbl::SimulateBoot(asbl::KataContainerProfile());
      }),
      "model+work");
  row("AS-Py", AlloyVmColdStart(/*python=*/true), "real");

  std::printf(
      "\npaper shape: Faastlane-T < AS (~1.3ms) < Wasmer-T < Virtines <\n"
      "AS-load-all (~89ms) < Unikraft/gVisor/Kata/Wasmer; Python runtimes "
      "slowest.\n");

  SnapshotSection(quick);
  return 0;
}
