// as-visor's orchestrator (§3.3): runs a workflow's DAG as parallel thread
// stages inside one WFD.
//
// A workflow is a sequence of stages; each stage is a set of function
// instances that run concurrently as threads of the WFD: the calling thread
// runs instance 0 and the WFD's stage worker pool runs the rest. Stages are
// separated by barriers (the fan-in wait the Fig 15 breakdown measures).
// Functions are looked up by name in the process-global FunctionRegistry, so
// JSON workflow configurations (§7.1) can reference them.
//
// Each instance drops its thread to user MPK permissions before running the
// function body and regains nothing until the function's as-std calls
// trampoline back into the LibOS; the thread's PKRU is 0 again afterwards.

#ifndef SRC_CORE_VISOR_ORCHESTRATOR_H_
#define SRC_CORE_VISOR_ORCHESTRATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/core/asstd/asstd.h"

namespace alloy {

// Execution phases a function reports for the latency breakdown (Fig 15).
enum class Phase { kReadInput, kCompute, kTransfer };

struct PhaseTimings {
  int64_t read_input_nanos = 0;
  int64_t compute_nanos = 0;
  int64_t transfer_nanos = 0;
  int64_t wait_nanos = 0;  // fan-in: finished-to-barrier time

  PhaseTimings& operator+=(const PhaseTimings& other) {
    read_input_nanos += other.read_input_nanos;
    compute_nanos += other.compute_nanos;
    transfer_nanos += other.transfer_nanos;
    wait_nanos += other.wait_nanos;
    return *this;
  }
};

class FunctionContext {
 public:
  FunctionContext(AsStd* as, std::string function_name, int stage,
                  int instance, int instance_count, const asbase::Json* params)
      : as_(as), function_name_(std::move(function_name)), stage_(stage),
        instance_(instance), instance_count_(instance_count),
        params_(params) {}

  AsStd& as() { return *as_; }
  const std::string& function_name() const { return function_name_; }
  int stage() const { return stage_; }
  int instance() const { return instance_; }
  int instance_count() const { return instance_count_; }
  const asbase::Json& params() const { return *params_; }

  // Phase accounting. A function marks transitions; un-marked time counts as
  // compute.
  void BeginPhase(Phase phase);
  PhaseTimings& timings() { return timings_; }
  void FinishTiming();

  // Sets the workflow's result payload (visible in InvokeResult). Last
  // writer wins; typically only the final stage writes it.
  void SetResult(std::string result);
  const std::string& result() const { return result_; }

  // Absolute MonoNanos deadline for the surrounding invocation, 0 = none.
  // Enforcement is cooperative: the orchestrator checks at stage barriers;
  // long-running functions should poll past_deadline() and return early
  // with any error (the run is aborted as DeadlineExceeded either way).
  int64_t deadline_nanos() const { return deadline_nanos_; }
  bool past_deadline() const;

 private:
  friend class Orchestrator;
  AsStd* as_;
  std::string function_name_;
  int stage_;
  int instance_;
  int instance_count_;
  const asbase::Json* params_;

  PhaseTimings timings_;
  Phase current_phase_ = Phase::kCompute;
  int64_t phase_start_nanos_ = 0;
  bool timing_started_ = false;
  std::string result_;
  int64_t deadline_nanos_ = 0;
};

using UserFunction = std::function<asbase::Status(FunctionContext&)>;

// Process-global function registry; workloads register at startup.
class FunctionRegistry {
 public:
  static FunctionRegistry& Global();

  void Register(const std::string& name, UserFunction fn);
  asbase::Result<UserFunction> Find(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, UserFunction> functions_;
};

struct FunctionSpec {
  std::string name;       // registry lookup key
  int instances = 1;
  int max_retries = 0;    // retry-based fault tolerance (§3.1)
};

struct StageSpec {
  std::vector<FunctionSpec> functions;
};

struct WorkflowSpec {
  std::string name;
  std::vector<StageSpec> stages;

  // Parses {"name": ..., "stages":[{"functions":[{"name","instances"}]}]}.
  static asbase::Result<WorkflowSpec> FromJson(const asbase::Json& config);
};

struct RunStats {
  int64_t total_nanos = 0;
  PhaseTimings phases;       // summed over every instance
  // Wall time per stage, launch to barrier (flight-recorder stage stamps).
  std::vector<int64_t> stage_nanos;
  size_t instances_run = 0;
  size_t retries = 0;
  std::string result;
  uint64_t trampoline_enters = 0;
  uint64_t pkru_switches = 0;
};

class Orchestrator {
 public:
  struct RunOptions {
    // Absolute MonoNanos instant the invocation must finish by; 0 = no
    // deadline. Checked cooperatively before each stage launches and at
    // every stage barrier, so a slow stage is detected when it joins, not
    // preempted mid-flight (functions share the WFD address space — killing
    // a thread would poison the whole domain).
    int64_t deadline_nanos = 0;
  };

  // Worker-pool size the workflow needs for full stage parallelism: the
  // largest number of instances any single stage runs concurrently, minus
  // the one the calling thread runs itself. 0 for a fan-out-1 workflow.
  static size_t StageWorkersNeeded(const WorkflowSpec& workflow);

  explicit Orchestrator(Wfd* wfd) : wfd_(wfd) {}

  // Runs the workflow to completion. Any function failure beyond its retry
  // budget aborts the run with that function's status; exceeding the
  // deadline aborts with kDeadlineExceeded.
  asbase::Result<RunStats> Run(const WorkflowSpec& workflow,
                               const asbase::Json& params);
  asbase::Result<RunStats> Run(const WorkflowSpec& workflow,
                               const asbase::Json& params,
                               const RunOptions& options);

 private:
  Wfd* wfd_;
};

}  // namespace alloy

#endif  // SRC_CORE_VISOR_ORCHESTRATOR_H_
