// The four workloads bench_serve runs. README.md says why each was chosen
// and which layer it stresses.

#ifndef BENCH_SERVE_WORKLOADS_H_
#define BENCH_SERVE_WORKLOADS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/serve/loadgen.h"
#include "src/common/histogram.h"
#include "src/core/visor/visor.h"

namespace serve {

// One workflow as the workload registers it on the router.
struct Deployment {
  alloy::WorkflowSpec spec;
  alloy::AsVisor::WorkflowOptions options;
};

struct Workload {
  std::string name;
  // Open-loop arrival rate; a bursty workload runs one 100 ms window in
  // five at three times this rate.
  double rate_rps = 0;
  bool bursty = false;
  std::vector<Deployment> deployments;
  // variants[0] is the request the ladder times.
  std::vector<RequestVariant> variants;
  // Cumulative probability of sending each variant.
  std::vector<double> cdf;
};

// Registers the bench's function bodies in the global FunctionRegistry.
void RegisterFunctions();

// Workload `name` with its inputs drawn from `seed`; nullopt if unknown.
// zipf_tenants skips tenant names that fail `placeable`; the other
// workloads register one workflow each and ignore it.
std::optional<Workload> MakeWorkload(
    const std::string& name, uint64_t seed,
    const std::function<bool(const std::string& workflow)>& placeable);

// A seed for stream `stream` of run seed `seed` (rounds, phases).
uint64_t SeedFor(uint64_t seed, uint64_t stream);

// Open-loop arrivals over `duration_nanos`: Poisson at the workload's rate,
// modulated on/off when it is bursty.
std::vector<Arrival> MakeSchedule(const Workload& workload, uint64_t seed,
                                  int64_t duration_nanos);

// `count` variant draws for the closed loop.
std::vector<uint32_t> MakeSequence(const Workload& workload, uint64_t seed,
                                   size_t count);

// AsStd file write/read times, taken inside the bench's function bodies
// while timing is on.
struct AsStdTimes {
  asbase::Histogram write;
  asbase::Histogram read;
};
void SetAsStdTiming(bool on);
AsStdTimes TakeAsStdTimes();

}  // namespace serve

#endif  // BENCH_SERVE_WORKLOADS_H_
