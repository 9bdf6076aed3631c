// AlloyStack bindings for the generic applications.
//
// `BindAlloyStackEnv` adapts a FunctionContext to ExecEnv:
//   put/get     -> AsBuffer reference passing (§5) — zero copy; or, when the
//                  WFD runs with reference_passing=false (the Fig 14
//                  ablation / AWS-recommended pattern), through fatfs files.
//   read_input  -> a range of a file in the WFD's LibOS filesystem, read
//                  into WFD-heap scratch (one pread-style LibOS entry).
//
// `RegisterAlloyStackWorkflow` converts a GenericWorkflow into registry
// functions + a WorkflowSpec runnable by the Orchestrator/AsVisor.

#ifndef SRC_WORKLOADS_ALLOYSTACK_ENV_H_
#define SRC_WORKLOADS_ALLOYSTACK_ENV_H_

#include "src/core/visor/orchestrator.h"
#include "src/workloads/exec_env.h"
#include "src/workloads/vm_apps.h"

namespace aswl {

// Builds the ExecEnv view of an AlloyStack function invocation.
ExecEnv BindAlloyStackEnv(alloy::FunctionContext& context);

// Registers every function of `workflow` in the global FunctionRegistry
// (names are prefixed with "as." + workflow.name) and returns the
// corresponding WorkflowSpec.
alloy::WorkflowSpec RegisterAlloyStackWorkflow(const GenericWorkflow& workflow);

// Registers a VM workflow's stage modules (wrapped by MakeVmFunction, i.e.
// the AlloyStack-C / AlloyStack-Py execution path) and returns the
// WorkflowSpec.
alloy::WorkflowSpec RegisterAlloyVmWorkflow(const VmWorkflowSpec& workflow,
                                            bool python);

}  // namespace aswl

#endif  // SRC_WORKLOADS_ALLOYSTACK_ENV_H_
