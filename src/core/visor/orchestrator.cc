#include "src/core/visor/orchestrator.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace alloy {
namespace {

// Data-plane metrics: how many OS threads stage dispatch actually creates
// (zero on a reused WFD — the whole point of the per-WFD worker pool) and
// how long a pooled instance waits between submit and a worker picking it
// up (the caller-run instance has no such wait).
struct OrchMetrics {
  asobs::Counter& thread_spawns;
  asobs::LatencyHistogram& dispatch_nanos;
};

OrchMetrics& Metrics() {
  static auto* metrics = new OrchMetrics{
      asobs::Registry::Global().GetCounter("alloy_orch_thread_spawns_total"),
      asobs::Registry::Global().GetHistogram("alloy_orch_dispatch_nanos"),
  };
  return *metrics;
}

}  // namespace

void FunctionContext::BeginPhase(Phase phase) {
  const int64_t now = asbase::MonoNanos();
  if (timing_started_) {
    const int64_t elapsed = now - phase_start_nanos_;
    switch (current_phase_) {
      case Phase::kReadInput:
        timings_.read_input_nanos += elapsed;
        break;
      case Phase::kCompute:
        timings_.compute_nanos += elapsed;
        break;
      case Phase::kTransfer:
        timings_.transfer_nanos += elapsed;
        break;
    }
  }
  current_phase_ = phase;
  phase_start_nanos_ = now;
  timing_started_ = true;
}

void FunctionContext::FinishTiming() {
  if (timing_started_) {
    BeginPhase(current_phase_);  // flush the open phase
    timing_started_ = false;
  }
}

void FunctionContext::SetResult(std::string result) {
  result_ = std::move(result);
}

bool FunctionContext::past_deadline() const {
  return deadline_nanos_ != 0 && asbase::MonoNanos() > deadline_nanos_;
}

FunctionRegistry& FunctionRegistry::Global() {
  static auto* registry = new FunctionRegistry();
  return *registry;
}

void FunctionRegistry::Register(const std::string& name, UserFunction fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  functions_[name] = std::move(fn);
}

asbase::Result<UserFunction> FunctionRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    return asbase::NotFound("no function named '" + name +
                            "' in the registry");
  }
  return it->second;
}

std::vector<std::string> FunctionRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, fn] : functions_) {
    names.push_back(name);
  }
  return names;
}

asbase::Result<WorkflowSpec> WorkflowSpec::FromJson(
    const asbase::Json& config) {
  WorkflowSpec spec;
  if (!config["name"].is_string()) {
    return asbase::InvalidArgument("workflow config needs a 'name'");
  }
  spec.name = config["name"].as_string();
  if (!config["stages"].is_array()) {
    return asbase::InvalidArgument("workflow config needs 'stages'");
  }
  for (const auto& stage_json : config["stages"].array()) {
    StageSpec stage;
    if (!stage_json["functions"].is_array()) {
      return asbase::InvalidArgument("stage needs 'functions'");
    }
    for (const auto& fn_json : stage_json["functions"].array()) {
      FunctionSpec fn;
      fn.name = fn_json["name"].as_string();
      if (fn.name.empty()) {
        return asbase::InvalidArgument("function needs a 'name'");
      }
      fn.instances = static_cast<int>(fn_json["instances"].as_int(1));
      fn.max_retries = static_cast<int>(fn_json["max_retries"].as_int(0));
      if (fn.instances < 1) {
        return asbase::InvalidArgument("instances must be >= 1");
      }
      stage.functions.push_back(std::move(fn));
    }
    if (stage.functions.empty()) {
      return asbase::InvalidArgument("stage has no functions");
    }
    spec.stages.push_back(std::move(stage));
  }
  if (spec.stages.empty()) {
    return asbase::InvalidArgument("workflow has no stages");
  }
  return spec;
}

asbase::Result<RunStats> Orchestrator::Run(const WorkflowSpec& workflow,
                                           const asbase::Json& params) {
  return Run(workflow, params, RunOptions{});
}

size_t Orchestrator::StageWorkersNeeded(const WorkflowSpec& workflow) {
  size_t fanout = 1;
  for (const StageSpec& stage : workflow.stages) {
    size_t instances = 0;
    for (const FunctionSpec& fn : stage.functions) {
      instances += static_cast<size_t>(fn.instances);
    }
    fanout = std::max(fanout, instances);
  }
  return fanout - 1;
}

asbase::Result<RunStats> Orchestrator::Run(const WorkflowSpec& workflow,
                                           const asbase::Json& params,
                                           const RunOptions& options) {
  RunStats stats;
  const int64_t run_start = asbase::MonoNanos();
  auto deadline_exceeded = [&] {
    return options.deadline_nanos != 0 &&
           asbase::MonoNanos() > options.deadline_nanos;
  };
  const uint64_t enters_before = wfd_->trampoline().enter_count();
  const uint64_t switches_before = wfd_->mpk().switch_count();

  AsStd as(wfd_);
  as.set_deadline_nanos(options.deadline_nanos);
  asobs::Trace* trace = wfd_->trace();
  const uint32_t trace_parent = wfd_->trace_parent();

  // The calling thread runs instance 0 of every stage itself; the WFD's
  // resident worker pool runs the rest. On a fresh WFD this spawns the
  // workers (counted in alloy_orch_thread_spawns_total); on a reused WFD the
  // pool is already up and a whole invocation runs with zero spawns.
  const size_t spawned = wfd_->EnsureStageWorkers(StageWorkersNeeded(workflow));
  if (spawned > 0) {
    Metrics().thread_spawns.Add(spawned);
  }
  asbase::ThreadPool* pool = wfd_->stage_workers();

  for (size_t stage_index = 0; stage_index < workflow.stages.size();
       ++stage_index) {
    if (deadline_exceeded()) {
      return asbase::DeadlineExceeded(
          "deadline exceeded before stage " + std::to_string(stage_index) +
          " of workflow '" + workflow.name + "'");
    }
    const StageSpec& stage = workflow.stages[stage_index];
    const int64_t stage_start = asbase::MonoNanos();
    asobs::Span stage_span;
    if (trace != nullptr) {
      stage_span = trace->StartSpan("stage:" + std::to_string(stage_index),
                                    "orchestrator", trace_parent);
    }
    const uint32_t stage_span_id = stage_span.id();

    struct InstanceRun {
      FunctionContext context;
      UserFunction fn;
      int max_retries = 0;
      asbase::Status status = asbase::OkStatus();
      int64_t finished_at = 0;
      size_t retries = 0;
    };
    std::vector<std::unique_ptr<InstanceRun>> runs;
    for (const FunctionSpec& fn_spec : stage.functions) {
      AS_ASSIGN_OR_RETURN(UserFunction fn,
                          FunctionRegistry::Global().Find(fn_spec.name));
      for (int instance = 0; instance < fn_spec.instances; ++instance) {
        runs.push_back(std::make_unique<InstanceRun>(InstanceRun{
            FunctionContext(&as, fn_spec.name,
                            static_cast<int>(stage_index), instance,
                            fn_spec.instances, &params),
            fn, fn_spec.max_retries}));
        runs.back()->context.deadline_nanos_ = options.deadline_nanos;
      }
    }

    auto execute = [this, trace, stage_span_id](InstanceRun& run) {
      // Started on the instance thread so the span carries its real tid.
      asobs::Span fn_span;
      if (trace != nullptr) {
        fn_span = trace->StartSpan(run.context.function_name() + "#" +
                                       std::to_string(run.context.instance()),
                                   "function", stage_span_id);
      }
      auto fn_key = wfd_->RegisterFunctionInstance(run.context.function_name());
      // Run with user permissions; functions regain system access only
      // through the as-std trampoline.
      wfd_->mpk().WritePkru(
          wfd_->UserPkru(fn_key.ok() ? *fn_key : wfd_->user_key()));
      run.context.BeginPhase(Phase::kCompute);
      asbase::Status status = asbase::OkStatus();
      for (int attempt = 0; attempt <= run.max_retries; ++attempt) {
        if (attempt > 0) {
          ++run.retries;
        }
        // Retry-based fault tolerance (§3.1): user exceptions poison only
        // this function, which can re-run if idempotent. Nothing may escape:
        // pooled siblings still reference this stage's state.
        try {
          status = run.fn(run.context);
        } catch (const std::exception& error) {
          status = asbase::Internal(std::string("function crashed: ") +
                                    error.what());
        } catch (...) {
          status = asbase::Internal("function crashed");
        }
        if (status.ok()) {
          break;
        }
      }
      run.context.FinishTiming();
      run.status = status;
      run.finished_at = asbase::MonoNanos();
      wfd_->mpk().WritePkru(0);  // leave the thread fully open again
    };
    for (size_t i = 1; i < runs.size(); ++i) {
      const int64_t submitted_at = asbase::MonoNanos();
      pool->Submit([&execute, run = runs[i].get(), submitted_at] {
        Metrics().dispatch_nanos.Record(asbase::MonoNanos() - submitted_at);
        execute(*run);
      });
    }
    if (!runs.empty()) {
      execute(*runs.front());
    }
    // Stage barrier: the pool runs only this stage's tasks (one run per WFD
    // at a time), so Drain() is the fan-in wait.
    if (runs.size() > 1) {
      pool->Drain();
    }
    const int64_t barrier_at = asbase::MonoNanos();
    stats.stage_nanos.push_back(barrier_at - stage_start);

    for (auto& run : runs) {
      run->context.timings().wait_nanos = barrier_at - run->finished_at;
      stats.phases += run->context.timings();
      stats.retries += run->retries;
      ++stats.instances_run;
      if (!run->context.result().empty()) {
        stats.result = run->context.result();
      }
      if (!run->status.ok()) {
        return asbase::Status(run->status.code(),
                              "function '" + run->context.function_name() +
                                  "' failed: " + run->status.message());
      }
    }
    if (deadline_exceeded()) {
      // Cooperative enforcement: the slow stage was allowed to join (its
      // threads share the WFD — preemption would poison the domain), but
      // the rest of the workflow does not run.
      return asbase::DeadlineExceeded(
          "stage " + std::to_string(stage_index) + " of workflow '" +
          workflow.name + "' ran past the invocation deadline");
    }
  }

  stats.total_nanos = asbase::MonoNanos() - run_start;
  stats.trampoline_enters = wfd_->trampoline().enter_count() - enters_before;
  stats.pkru_switches = wfd_->mpk().switch_count() - switches_before;
  return stats;
}

}  // namespace alloy
