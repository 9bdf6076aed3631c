#include "src/baselines/runtimes.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#include "src/baselines/sim_profiles.h"
#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/mpk/pkey_runtime.h"

namespace asbl {
namespace {

using asbase::SimCostModel;

bool ReadExactFd(int fd, void* buffer, size_t len) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::read(fd, static_cast<char*>(buffer) + done, len - done);
    if (n <= 0) {
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool WriteExactFd(int fd, const void* buffer, size_t len) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::write(fd, static_cast<const char*>(buffer) + done,
                        len - done);
    if (n <= 0) {
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

// Copies `data` through a kernel pipe (Faastlane's IPC mode): real write +
// read syscalls, two kernel crossings, data passes through pipe buffers.
asbase::Result<std::vector<uint8_t>> PipeCopy(std::span<const uint8_t> data) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return asbase::Internal("pipe() failed");
  }
  std::vector<uint8_t> out(data.size());
  bool read_ok = false;
  std::thread drainer(
      [&] { read_ok = ReadExactFd(fds[0], out.data(), out.size()); });
  const bool write_ok = WriteExactFd(fds[1], data.data(), data.size());
  ::close(fds[1]);
  drainer.join();
  ::close(fds[0]);
  if (!write_ok || (!read_ok && !data.empty())) {
    return asbase::Internal("pipe transfer failed");
  }
  return out;
}

// Sum of the modeled (non-work) stage latencies of a profile, scaled.
int64_t ProfileModelNanos(const BootProfile& profile) {
  int64_t total = 0;
  for (const auto& stage : profile.stages) {
    total += SimCostModel::Global().Scaled(stage.model_nanos);
  }
  return total;
}

// Per-instance phase tracking identical in spirit to FunctionContext's.
class PhaseTracker {
 public:
  void Begin(aswl::EnvPhase phase) {
    const int64_t now = asbase::MonoNanos();
    if (started_) {
      Account(now);
    }
    current_ = phase;
    mark_ = now;
    started_ = true;
  }
  PhaseNanos Finish() {
    if (started_) {
      Account(asbase::MonoNanos());
      started_ = false;
    }
    return phases_;
  }

 private:
  void Account(int64_t now) {
    const int64_t elapsed = now - mark_;
    switch (current_) {
      case aswl::EnvPhase::kReadInput:
        phases_.read_input += elapsed;
        break;
      case aswl::EnvPhase::kCompute:
        phases_.compute += elapsed;
        break;
      case aswl::EnvPhase::kTransfer:
        phases_.transfer += elapsed;
        break;
    }
    mark_ = now;
  }

  aswl::EnvPhase current_ = aswl::EnvPhase::kCompute;
  int64_t mark_ = 0;
  bool started_ = false;
  PhaseNanos phases_;
};

// The ExecEnv::read_input contract: a range that ends past EOF is an error.
asbase::Status CheckInputRange(const std::string& path, uint64_t offset,
                               size_t length, uint64_t size) {
  if (offset > size || length > size - offset) {
    return asbase::OutOfRange("input range ends past EOF of " + path);
  }
  return asbase::OkStatus();
}

asbase::Result<size_t> HostFileSize(const std::string& path) {
  struct stat info;
  if (::stat(path.c_str(), &info) != 0) {
    return asbase::NotFound("input file " + path + " not found");
  }
  return static_cast<size_t>(info.st_size);
}

// Reads [offset, offset + length) of a host file with pread(2).
asbase::Result<aswl::EnvBuffer> ReadHostRange(const std::string& path,
                                              uint64_t offset, size_t length) {
  AS_ASSIGN_OR_RETURN(size_t size, HostFileSize(path));
  AS_RETURN_IF_ERROR(CheckInputRange(path, offset, length, size));
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return asbase::NotFound("input file " + path + " not found");
  }
  std::vector<uint8_t> data(length);
  size_t done = 0;
  while (done < length) {
    ssize_t n = ::pread(fd, data.data() + done, length - done,
                        static_cast<off_t>(offset + done));
    if (n <= 0) {
      break;
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (done != length) {
    return asbase::DataLoss("short read of " + path);
  }
  return aswl::EnvBuffer::FromVector(std::move(data));
}

}  // namespace

const char* BaselineKindName(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kFaastlane:
      return "faastlane";
    case BaselineKind::kFaastlaneRefer:
      return "faastlane-refer";
    case BaselineKind::kFaastlaneKata:
      return "faastlane-kata";
    case BaselineKind::kFaastlaneReferKata:
      return "faastlane-refer-kata";
    case BaselineKind::kOpenFaas:
      return "openfaas";
    case BaselineKind::kOpenFaasGvisor:
      return "openfaas-gvisor";
  }
  return "?";
}

BaselineRuntime::BaselineRuntime(Options options)
    : options_(std::move(options)) {
  if (options_.kind == BaselineKind::kOpenFaas ||
      options_.kind == BaselineKind::kOpenFaasGvisor) {
    kv_ = std::make_unique<KvServer>();
    AS_CHECK(kv_->Start().ok()) << "mini-redis failed to start";
  }
}

BaselineRuntime::~BaselineRuntime() = default;

uint16_t BaselineRuntime::kv_port() const {
  return kv_ == nullptr ? 0 : kv_->port();
}

void BaselineRuntime::AddRamInput(const std::string& name,
                                  std::vector<uint8_t> bytes) {
  ram_inputs_[name] = std::move(bytes);
}

asbase::Result<size_t> BaselineRuntime::InputSize(const std::string& path) {
  if (options_.ramfs_inputs) {
    auto it = ram_inputs_.find(path);
    if (it == ram_inputs_.end()) {
      return asbase::NotFound("no ram input named " + path);
    }
    return it->second.size();
  }
  return HostFileSize(options_.input_dir + "/" + path);
}

asbase::Result<aswl::EnvBuffer> BaselineRuntime::ReadInput(
    const std::string& path, uint64_t offset, size_t length) {
  if (options_.ramfs_inputs) {
    auto it = ram_inputs_.find(path);
    if (it == ram_inputs_.end()) {
      return asbase::NotFound("no ram input named " + path);
    }
    const std::vector<uint8_t>& bytes = it->second;
    AS_RETURN_IF_ERROR(CheckInputRange(path, offset, length, bytes.size()));
    // A copy, like reading from a ram-backed fs.
    return aswl::EnvBuffer::FromVector(std::vector<uint8_t>(
        bytes.begin() + static_cast<ptrdiff_t>(offset),
        bytes.begin() + static_cast<ptrdiff_t>(offset + length)));
  }
  AS_ASSIGN_OR_RETURN(
      aswl::EnvBuffer data,
      ReadHostRange(options_.input_dir + "/" + path, offset, length));
  const bool kata = options_.kind == BaselineKind::kFaastlaneKata ||
                    options_.kind == BaselineKind::kFaastlaneReferKata;
  if (kata) {
    // Guest reads cross virtio-blk.
    asbase::SpinFor(SimCostModel::Global().Scaled(
        SimCostModel::Global().virtio_blk_nanos_per_kib *
        static_cast<int64_t>(length / 1024)));
  }
  return data;
}

asbase::Result<BaselineRunStats> BaselineRuntime::Run(
    const aswl::GenericWorkflow& workflow, const asbase::Json& params) {
  switch (options_.kind) {
    case BaselineKind::kOpenFaas:
    case BaselineKind::kOpenFaasGvisor:
      return RunForked(workflow, params);
    default:
      return RunThreaded(workflow, params);
  }
}

// ------------------------------------------------------- thread runtimes

asbase::Result<BaselineRunStats> BaselineRuntime::RunThreaded(
    const aswl::GenericWorkflow& workflow, const asbase::Json& params) {
  const auto& model = SimCostModel::Global();
  const bool kata = options_.kind == BaselineKind::kFaastlaneKata ||
                    options_.kind == BaselineKind::kFaastlaneReferKata;
  const bool always_refer =
      options_.kind == BaselineKind::kFaastlaneRefer ||
      options_.kind == BaselineKind::kFaastlaneReferKata;

  BaselineRunStats stats;
  const int64_t start = asbase::MonoNanos();

  // Cold start: Faastlane spawns a workflow process and sets up its MPK
  // domains; the kata variants boot a MicroVM around it.
  {
    const int64_t boot_start = asbase::MonoNanos();
    if (kata) {
      SimulateBoot(KataContainerProfile());
    } else {
      asbase::SpinFor(model.Scaled(model.process_spawn_nanos));
    }
    asmpk::PkeyRuntime mpk(asmpk::MpkBackend::kEmulated);
    auto key_a = mpk.AllocateKey();
    auto key_b = mpk.AllocateKey();
    (void)key_a;
    (void)key_b;
    stats.cold_start_nanos = asbase::MonoNanos() - boot_start;
  }

  // In-process buffer table (reference passing).
  std::mutex table_mutex;
  std::map<std::string, std::shared_ptr<std::vector<uint8_t>>> table;

  std::mutex stats_mutex;
  std::string result;

  for (const auto& stage : workflow.stages) {
    int stage_instances = 0;
    for (const auto& function : stage.functions) {
      stage_instances += function.instances;
    }
    // Faastlane's documented behaviour: reference passing for sequential
    // execution, IPC when functions run in parallel (GIL workaround).
    const bool use_ipc = !always_refer && stage_instances > 1;

    struct Outcome {
      asbase::Status status = asbase::OkStatus();
      int64_t finished_at = 0;
    };
    std::vector<std::unique_ptr<Outcome>> outcomes;
    std::vector<std::thread> threads;

    int stage_index = static_cast<int>(&stage - workflow.stages.data());
    for (const auto& function : stage.functions) {
      for (int instance = 0; instance < function.instances; ++instance) {
        auto outcome = std::make_unique<Outcome>();
        Outcome* outcome_ptr = outcome.get();
        outcomes.push_back(std::move(outcome));
        threads.emplace_back([&, instance, stage_index, use_ipc, outcome_ptr,
                              fn = function.fn,
                              instances = function.instances] {
          PhaseTracker tracker;
          tracker.Begin(aswl::EnvPhase::kCompute);

          aswl::ExecEnv env;
          env.stage = stage_index;
          env.instance = instance;
          env.instance_count = instances;
          env.params = params;
          env.phase = [&tracker](aswl::EnvPhase phase) {
            tracker.Begin(phase);
          };
          env.set_result = [&](std::string value) {
            std::lock_guard<std::mutex> lock(stats_mutex);
            result = std::move(value);
          };
          env.input_size = [this](const std::string& path) {
            return InputSize(path);
          };
          env.read_input = [this](const std::string& path, uint64_t offset,
                                  size_t length) {
            return ReadInput(path, offset, length);
          };
          env.alloc = [](const std::string&, size_t size) {
            return aswl::EnvBuffer::FromVector(std::vector<uint8_t>(size));
          };
          env.send = [&, use_ipc](const std::string& slot,
                                  aswl::EnvBuffer buffer) -> asbase::Status {
            auto vec = std::static_pointer_cast<std::vector<uint8_t>>(
                buffer.owner);
            if (vec == nullptr) {
              return asbase::InvalidArgument("foreign buffer");
            }
            if (use_ipc) {
              AS_ASSIGN_OR_RETURN(std::vector<uint8_t> copied,
                                  PipeCopy(buffer.data));
              vec = std::make_shared<std::vector<uint8_t>>(std::move(copied));
            }
            std::lock_guard<std::mutex> lock(table_mutex);
            table[slot] = std::move(vec);
            return asbase::OkStatus();
          };
          env.recv =
              [&](const std::string& slot) -> asbase::Result<aswl::EnvBuffer> {
            std::shared_ptr<std::vector<uint8_t>> vec;
            {
              std::lock_guard<std::mutex> lock(table_mutex);
              auto it = table.find(slot);
              if (it == table.end()) {
                return asbase::NotFound("no buffer in slot " + slot);
              }
              vec = std::move(it->second);
              table.erase(it);
            }
            return aswl::EnvBuffer{
                std::span<uint8_t>(vec->data(), vec->size()), vec};
          };

          const int64_t fn_start = asbase::MonoNanos();
          outcome_ptr->status = fn(env);
          if (kata) {
            // Nested-paging overhead on guest compute ([65], Fig 16).
            asbase::SpinFor(static_cast<int64_t>(
                static_cast<double>(asbase::MonoNanos() - fn_start) *
                model.hw_virt_compute_fraction));
          }
          const PhaseNanos phases = tracker.Finish();
          outcome_ptr->finished_at = asbase::MonoNanos();
          std::lock_guard<std::mutex> lock(stats_mutex);
          stats.phases.read_input += phases.read_input;
          stats.phases.compute += phases.compute;
          stats.phases.transfer += phases.transfer;
        });
      }
    }
    for (auto& thread : threads) {
      thread.join();
    }
    const int64_t barrier = asbase::MonoNanos();
    for (const auto& outcome : outcomes) {
      stats.phases.wait += barrier - outcome->finished_at;
      if (!outcome->status.ok()) {
        return outcome->status;
      }
    }
  }

  stats.end_to_end_nanos = asbase::MonoNanos() - start;
  stats.result = result;
  return stats;
}

// -------------------------------------------------------- forked runtimes

asbase::Result<BaselineRunStats> BaselineRuntime::RunForked(
    const aswl::GenericWorkflow& workflow, const asbase::Json& params) {
  const auto& model = SimCostModel::Global();
  const bool gvisor = options_.kind == BaselineKind::kOpenFaasGvisor;
  const uint16_t kv_port = kv_->port();

  BaselineRunStats stats;
  stats.cold_start_nanos = ProfileModelNanos(
      gvisor ? GvisorProfile() : ContainerProfile());
  const int64_t start = asbase::MonoNanos();

  const std::string result_key = "result:" + workflow.name;
  {
    auto cleaner = KvClient::Connect(kv_port);
    if (cleaner.ok()) {
      (*cleaner)->Del(result_key);
    }
  }

  for (size_t stage_index = 0; stage_index < workflow.stages.size();
       ++stage_index) {
    const auto& stage = workflow.stages[stage_index];
    std::vector<pid_t> children;
    for (const auto& function : stage.functions) {
      for (int instance = 0; instance < function.instances; ++instance) {
        pid_t pid = ::fork();
        if (pid < 0) {
          return asbase::Internal("fork failed");
        }
        if (pid == 0) {
          // ---- function sandbox (child process) ----
          // Container / sandbox cold start happens per function instance.
          SimulateBoot(gvisor ? GvisorProfile() : ContainerProfile());
          auto client = KvClient::Connect(kv_port);
          if (!client.ok()) {
            ::_exit(2);
          }
          auto intercept = [&](size_t bytes) {
            if (gvisor) {
              // ptrace interception: one charge per syscall; bulk I/O is
              // chunked by the runtime at 64 KiB.
              asbase::SpinFor(model.Scaled(model.ptrace_intercept_nanos) *
                              static_cast<int64_t>(1 + bytes / 65536));
            }
          };

          aswl::ExecEnv env;
          env.stage = static_cast<int>(stage_index);
          env.instance = instance;
          env.instance_count = function.instances;
          env.params = params;
          env.input_size = [&](const std::string& path) {
            intercept(0);
            return HostFileSize(options_.input_dir + "/" + path);
          };
          env.read_input =
              [&](const std::string& path, uint64_t offset,
                  size_t length) -> asbase::Result<aswl::EnvBuffer> {
            AS_ASSIGN_OR_RETURN(
                aswl::EnvBuffer data,
                ReadHostRange(options_.input_dir + "/" + path, offset,
                              length));
            intercept(length);
            return data;
          };
          env.alloc = [](const std::string&, size_t size) {
            return aswl::EnvBuffer::FromVector(std::vector<uint8_t>(size));
          };
          env.send = [&](const std::string& slot,
                         aswl::EnvBuffer buffer) -> asbase::Status {
            intercept(buffer.data.size());
            return (*client)->Set(slot, buffer.data);
          };
          env.recv = [&](const std::string& slot)
              -> asbase::Result<aswl::EnvBuffer> {
            AS_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                                (*client)->Take(slot));
            intercept(data.size());
            return aswl::EnvBuffer::FromVector(std::move(data));
          };
          env.set_result = [&](std::string value) {
            (*client)->Set(result_key,
                           std::span<const uint8_t>(
                               reinterpret_cast<const uint8_t*>(value.data()),
                               value.size()));
          };

          asbase::Status status = function.fn(env);
          ::_exit(status.ok() ? 0 : 1);
        }
        children.push_back(pid);
      }
    }
    for (pid_t pid : children) {
      int wait_status = 0;
      ::waitpid(pid, &wait_status, 0);
      if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
        return asbase::Internal("a function sandbox failed in stage " +
                                std::to_string(stage_index));
      }
    }
  }

  stats.end_to_end_nanos = asbase::MonoNanos() - start;
  auto client = KvClient::Connect(kv_port);
  if (client.ok()) {
    auto result = (*client)->Get(result_key);
    if (result.ok()) {
      stats.result.assign(result->begin(), result->end());
    }
  }
  return stats;
}

}  // namespace asbl
