// Runtime-neutral execution environment for benchmark applications.
//
// The evaluation runs the same applications (WordCount, ParallelSorting,
// FunctionChain, pipe) on AlloyStack and on every comparison system. To keep
// the *application logic* identical across runtimes — so measured differences
// come from the platforms, not the ports — apps are written once against
// this small interface and each runtime (AlloyStack, Faastlane, OpenFaaS,
// Faasm, ...) provides its own data-plane bindings.
//
// The buffer protocol preserves each runtime's copy semantics:
//   producer:  alloc(slot, size) -> write into .data -> send(slot, buffer)
//   consumer:  recv(slot) -> read .data -> drop (owner releases)
// A reference-passing runtime (AlloyStack AsBuffer, Faastlane-refer) backs
// .data with the transferred memory itself — zero copies; a copying runtime
// (redis, pipes) copies inside send/recv where the real system would.

#ifndef SRC_WORKLOADS_EXEC_ENV_H_
#define SRC_WORKLOADS_EXEC_ENV_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"

namespace aswl {

// A view over transferable payload memory. `owner` keeps the backing alive;
// releasing the last reference returns the memory to its runtime.
struct EnvBuffer {
  std::span<uint8_t> data;
  std::shared_ptr<void> owner;

  // Convenience for buffers backed by a plain vector.
  static EnvBuffer FromVector(std::vector<uint8_t> bytes) {
    auto holder = std::make_shared<std::vector<uint8_t>>(std::move(bytes));
    return EnvBuffer{std::span<uint8_t>(holder->data(), holder->size()),
                     holder};
  }
};

// Phases of a function execution, for the Fig 15 breakdown.
enum class EnvPhase { kReadInput, kCompute, kTransfer };

struct ExecEnv {
  // Allocate an outgoing buffer for `slot`, 16-byte aligned. The producer
  // writes .data in place, then publishes with send(). (Not registered
  // until send.)
  std::function<asbase::Result<EnvBuffer>(const std::string& slot,
                                          size_t size)>
      alloc;
  // Publish a buffer previously obtained from alloc() — or one obtained
  // from recv() (in-place forwarding along a chain).
  std::function<asbase::Status(const std::string& slot, EnvBuffer buffer)>
      send;
  // Receive the buffer registered under `slot` (single consumer).
  std::function<asbase::Result<EnvBuffer>(const std::string& slot)> recv;
  // Size in bytes of a workflow input file in the runtime's storage.
  std::function<asbase::Result<size_t>(const std::string& path)> input_size;
  // Read [offset, offset + length) of a workflow input file into memory the
  // runtime owns (the WFD heap on AlloyStack). A range that ends past EOF is
  // an OutOfRange error, never a short buffer.
  std::function<asbase::Result<EnvBuffer>(const std::string& path,
                                          uint64_t offset, size_t length)>
      read_input;
  // Phase marker (may be a no-op).
  std::function<void(EnvPhase)> phase = [](EnvPhase) {};
  // Report the workflow result (final stage).
  std::function<void(std::string)> set_result = [](std::string) {};

  int stage = 0;
  int instance = 0;
  int instance_count = 1;
  asbase::Json params;
};

// One application function (runs as one instance of a stage).
using GenericFn = std::function<asbase::Status(ExecEnv&)>;

struct GenericFunction {
  std::string name;
  GenericFn fn;
  int instances = 1;
};

struct GenericStage {
  std::vector<GenericFunction> functions;
};

struct GenericWorkflow {
  std::string name;
  std::vector<GenericStage> stages;
};

}  // namespace aswl

#endif  // SRC_WORKLOADS_EXEC_ENV_H_
