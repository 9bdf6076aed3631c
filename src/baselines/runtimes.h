// Baseline serverless runtimes (§8.1 "Comparison systems").
//
// Each runtime executes the same generic applications (src/workloads) with
// its own control plane, data plane and sandbox model:
//
//   Faastlane         one process, thread per function, MPK keys; reference
//                     passing for sequential stages, kernel-pipe IPC when a
//                     stage runs instances in parallel (the paper's GIL
//                     workaround carried over faithfully).
//   Faastlane-refer   reference passing always.
//   *-kata            the same, deployed in a Kata MicroVM: cold start pays
//                     the Firecracker+Kata boot model, file reads pay the
//                     virtio-blk toll, compute pays the nested-paging toll.
//   OpenFaaS          container-style: a forked process per function
//                     instance (paying the container-setup model), data
//                     passing through the mini-redis server.
//   OpenFaaS-gVisor   plus the sentry boot and a per-I/O ptrace interception
//                     charge.
//
// (Faasm executes WASM only and lives in faasm.h.)

#ifndef SRC_BASELINES_RUNTIMES_H_
#define SRC_BASELINES_RUNTIMES_H_

#include <map>
#include <memory>
#include <mutex>

#include "src/baselines/kvstore.h"
#include "src/workloads/exec_env.h"

namespace asbl {

enum class BaselineKind {
  kFaastlane,
  kFaastlaneRefer,
  kFaastlaneKata,
  kFaastlaneReferKata,
  kOpenFaas,
  kOpenFaasGvisor,
};

const char* BaselineKindName(BaselineKind kind);

struct PhaseNanos {
  int64_t read_input = 0;
  int64_t compute = 0;
  int64_t transfer = 0;
  int64_t wait = 0;
};

struct BaselineRunStats {
  int64_t cold_start_nanos = 0;   // sandbox/boot share of the run
  int64_t end_to_end_nanos = 0;
  PhaseNanos phases;              // summed over instances (thread runtimes)
  std::string result;
};

class BaselineRuntime {
 public:
  struct Options {
    BaselineKind kind = BaselineKind::kFaastlane;
    // Directory on the host filesystem holding workflow input files
    // (read_input paths are resolved against it).
    std::string input_dir = "/tmp";
    // Serve intermediate data from memory instead of files — the
    // Faastlane-refer-kata-on-ramfs configuration of Fig 16.
    bool ramfs_inputs = false;
  };

  explicit BaselineRuntime(Options options);
  ~BaselineRuntime();

  // Pre-registers an input "file" for ramfs_inputs mode.
  void AddRamInput(const std::string& name, std::vector<uint8_t> bytes);

  // Runs the workflow end to end, including the runtime's sandbox cold
  // start, and returns timing + the workflow result.
  asbase::Result<BaselineRunStats> Run(const aswl::GenericWorkflow& workflow,
                                       const asbase::Json& params);

  uint16_t kv_port() const;

 private:
  asbase::Result<BaselineRunStats> RunThreaded(
      const aswl::GenericWorkflow& workflow, const asbase::Json& params);
  asbase::Result<BaselineRunStats> RunForked(
      const aswl::GenericWorkflow& workflow, const asbase::Json& params);

  // The ExecEnv input bindings of the thread runtimes.
  asbase::Result<size_t> InputSize(const std::string& path);
  asbase::Result<aswl::EnvBuffer> ReadInput(const std::string& path,
                                            uint64_t offset, size_t length);

  Options options_;
  std::unique_ptr<KvServer> kv_;  // openfaas data plane (owned)
  std::map<std::string, std::vector<uint8_t>> ram_inputs_;
};

}  // namespace asbl

#endif  // SRC_BASELINES_RUNTIMES_H_
