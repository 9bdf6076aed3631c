#include "src/workloads/alloystack_env.h"

#include <cstring>

#include "src/core/asstd/wasi.h"
#include "src/obs/metrics.h"

namespace aswl {
namespace {

constexpr uint64_t kEnvFingerprint = 0xE27ECB0FFE12ULL;

// Ownership shim for AlloyStack buffers: frees the WFD heap memory when the
// last reference drops, unless the buffer was forwarded to another slot. It
// holds the invocation's AsStd, so it must not outlive the invocation.
class HeapBufferOwner {
 public:
  HeapBufferOwner(alloy::AsStd* as, alloy::RawBuffer raw, bool registered)
      : as_(as), raw_(raw), registered_(registered) {}

  HeapBufferOwner(const HeapBufferOwner&) = delete;
  HeapBufferOwner& operator=(const HeapBufferOwner&) = delete;

  ~HeapBufferOwner() {
    if (!forwarded_ && !registered_) {
      // Acquired but never forwarded: consumption finished, free the memory.
      as_->FreeBuffer(raw_);
    }
    // `registered` buffers belong to their slot until acquired.
  }

  const alloy::RawBuffer& raw() const { return raw_; }
  bool registered() const { return registered_; }
  void MarkForwarded() { forwarded_ = true; }

 private:
  alloy::AsStd* as_;
  alloy::RawBuffer raw_;
  bool registered_;
  bool forwarded_ = false;
};

alloy::Phase ToAlloyPhase(EnvPhase phase) {
  switch (phase) {
    case EnvPhase::kReadInput:
      return alloy::Phase::kReadInput;
    case EnvPhase::kTransfer:
      return alloy::Phase::kTransfer;
    case EnvPhase::kCompute:
      break;
  }
  return alloy::Phase::kCompute;
}

}  // namespace

ExecEnv BindAlloyStackEnv(alloy::FunctionContext& context) {
  ExecEnv env;
  alloy::AsStd* as = &context.as();
  const bool reference_passing =
      as->wfd().reference_passing();

  env.stage = context.stage();
  env.instance = context.instance();
  env.instance_count = context.instance_count();
  env.params = context.params();
  env.phase = [&context](EnvPhase phase) {
    context.BeginPhase(ToAlloyPhase(phase));
  };
  env.set_result = [&context](std::string result) {
    context.SetResult(std::move(result));
  };

  env.input_size = [as](const std::string& path) -> asbase::Result<size_t> {
    AS_ASSIGN_OR_RETURN(asfat::FileInfo info, as->Stat(path));
    return static_cast<size_t>(info.size);
  };
  // Inputs land in an unregistered WFD-heap block, so reading one costs the
  // host heap nothing; the owner frees it, or send() forwards it by reference.
  env.read_input = [as](const std::string& path, uint64_t offset,
                        size_t length) -> asbase::Result<EnvBuffer> {
    EnvBuffer buffer;
    if (length > 0) {
      AS_ASSIGN_OR_RETURN(alloy::RawBuffer raw,
                          as->AllocScratch(length, kEnvFingerprint));
      buffer = EnvBuffer{raw.bytes, std::make_shared<HeapBufferOwner>(
                                        as, raw, /*registered=*/false)};
    }
    AS_ASSIGN_OR_RETURN(size_t n, as->ReadAt(path, offset, buffer.data));
    if (n != length) {
      return asbase::OutOfRange("input range ends past EOF of " + path);
    }
    return buffer;
  };

  if (reference_passing) {
    // Reference passing (§5): buffers live on the WFD heap; send/recv moves
    // ownership through the slot table, never the bytes.
    env.alloc = [as](const std::string& slot,
                     size_t size) -> asbase::Result<EnvBuffer> {
      AS_ASSIGN_OR_RETURN(alloy::RawBuffer raw,
                          as->AllocBuffer(slot, size, kEnvFingerprint));
      auto owner =
          std::make_shared<HeapBufferOwner>(as, raw, /*registered=*/true);
      return EnvBuffer{raw.bytes, owner};
    };
    env.send = [as](const std::string& slot,
                    EnvBuffer buffer) -> asbase::Status {
      auto owner = std::static_pointer_cast<HeapBufferOwner>(buffer.owner);
      if (owner == nullptr) {
        return asbase::InvalidArgument("buffer was not allocated by this env");
      }
      if (owner->registered()) {
        return asbase::OkStatus();  // fresh buffer: already in the slot table
      }
      // In-place forward of a received buffer: ownership transfer (§5).
      owner->MarkForwarded();
      return as->ForwardBuffer(slot, owner->raw());
    };
    env.recv = [as](const std::string& slot) -> asbase::Result<EnvBuffer> {
      AS_ASSIGN_OR_RETURN(alloy::RawBuffer raw,
                          as->AcquireBuffer(slot, kEnvFingerprint));
      auto owner =
          std::make_shared<HeapBufferOwner>(as, raw, /*registered=*/false);
      return EnvBuffer{raw.bytes, owner};
    };
  } else {
    // Ablation (Fig 14) / AWS-recommended pattern: intermediate data moves
    // through fatfs files — written to the virtual disk by the producer and
    // read back by the consumer.
    env.alloc = [](const std::string&, size_t size) {
      return EnvBuffer::FromVector(std::vector<uint8_t>(size));
    };
    env.send = [as](const std::string& slot,
                    EnvBuffer buffer) -> asbase::Status {
      asbase::Status mkdir_status = as->Mkdir("/xfer");
      if (!mkdir_status.ok() &&
          mkdir_status.code() != asbase::ErrorCode::kAlreadyExists) {
        return mkdir_status;
      }
      asobs::Registry::Global()
          .GetHistogram("alloy_asbuffer_transfer_bytes", {{"mode", "copy"}})
          .Record(static_cast<int64_t>(buffer.data.size()));
      return as->WriteWholeFile("/xfer/" + slot,
                                std::span<const uint8_t>(buffer.data));
    };
    env.recv = [as](const std::string& slot) -> asbase::Result<EnvBuffer> {
      AS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          as->ReadWholeFile("/xfer/" + slot));
      AS_RETURN_IF_ERROR(as->Remove("/xfer/" + slot));
      return EnvBuffer::FromVector(std::move(bytes));
    };
  }
  return env;
}

alloy::WorkflowSpec RegisterAlloyStackWorkflow(
    const GenericWorkflow& workflow) {
  alloy::WorkflowSpec spec;
  spec.name = workflow.name;
  for (const auto& stage : workflow.stages) {
    alloy::StageSpec stage_spec;
    for (const auto& function : stage.functions) {
      const std::string registry_name =
          "as." + workflow.name + "." + function.name;
      GenericFn fn = function.fn;
      alloy::FunctionRegistry::Global().Register(
          registry_name,
          [fn](alloy::FunctionContext& context) -> asbase::Status {
            ExecEnv env = BindAlloyStackEnv(context);
            return fn(env);
          });
      alloy::FunctionSpec fn_spec;
      fn_spec.name = registry_name;
      fn_spec.instances = function.instances;
      stage_spec.functions.push_back(std::move(fn_spec));
    }
    spec.stages.push_back(std::move(stage_spec));
  }
  return spec;
}

alloy::WorkflowSpec RegisterAlloyVmWorkflow(const VmWorkflowSpec& workflow,
                                            bool python) {
  alloy::WorkflowSpec spec;
  spec.name = workflow.name + (python ? "-py" : "-c");
  for (size_t stage_index = 0; stage_index < workflow.stages.size();
       ++stage_index) {
    const auto& stage = workflow.stages[stage_index];
    const std::string registry_name = "asvm." + spec.name + "." + stage.name +
                                      "#" + std::to_string(stage_index);
    alloy::VmFunctionOptions options;
    options.python_runtime = python;
    alloy::FunctionRegistry::Global().Register(
        registry_name, alloy::MakeVmFunction(stage.module, options));
    alloy::StageSpec stage_spec;
    alloy::FunctionSpec fn_spec;
    fn_spec.name = registry_name;
    fn_spec.instances = stage.instances;
    stage_spec.functions.push_back(std::move(fn_spec));
    spec.stages.push_back(std::move(stage_spec));
  }
  return spec;
}

}  // namespace aswl
