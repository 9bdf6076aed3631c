// Workload tests: input generators, the generic applications on AlloyStack
// (reference passing and the file-based ablation), and the VM (C/Python
// path) applications on AlloyStack — each verified against independently
// computed reference results.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/asstd/wasi.h"
#include "src/core/visor/visor.h"
#include "src/obs/metrics.h"
#include "src/workloads/alloystack_env.h"
#include "src/workloads/generic_apps.h"
#include "src/workloads/inputs.h"
#include "src/workloads/vm_apps.h"

namespace aswl {
namespace {

alloy::WfdOptions TestWfd() {
  alloy::WfdOptions options;
  options.heap_bytes = 32u << 20;
  options.disk_blocks = 32 * 1024;  // 16 MiB
  options.mpk_backend = asmpk::MpkBackend::kEmulated;
  return options;
}

// Runs a generic workflow on AlloyStack with the given input file content.
asbase::Result<alloy::RunStats> RunOnAlloyStack(
    const GenericWorkflow& workflow, const asbase::Json& params,
    const std::vector<uint8_t>& input, alloy::WfdOptions options = TestWfd()) {
  alloy::WorkflowSpec spec = RegisterAlloyStackWorkflow(workflow);
  AS_ASSIGN_OR_RETURN(std::unique_ptr<alloy::Wfd> wfd,
                      alloy::Wfd::Create(options));
  if (!input.empty()) {
    alloy::AsStd as(wfd.get());
    AS_RETURN_IF_ERROR(as.WriteWholeFile("/input.bin", input));
  }
  alloy::Orchestrator orchestrator(wfd.get());
  return orchestrator.Run(spec, params);
}

// ---------------------------------------------------------------- inputs

TEST(InputsTest, GeneratorsAreDeterministic) {
  EXPECT_EQ(MakeTextCorpus(1000, 7), MakeTextCorpus(1000, 7));
  EXPECT_NE(MakeTextCorpus(1000, 7), MakeTextCorpus(1000, 8));
  EXPECT_EQ(MakeIntegerInput(1000, 7), MakeIntegerInput(1000, 7));
  EXPECT_EQ(MakePayload(1000, 7), MakePayload(1000, 7));
  EXPECT_EQ(MakeTextCorpus(1000, 7).size(), 1000u);
  EXPECT_EQ(MakeIntegerInput(1001, 7).size(), 1000u);  // whole uint32s
}

TEST(InputsTest, CorpusLooksLikeText) {
  auto corpus = MakeTextCorpus(5000, 1);
  size_t separators = 0;
  for (uint8_t c : corpus) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || c == ' ' || c == '\n') << (int)c;
    if (c == ' ' || c == '\n') {
      ++separators;
    }
  }
  EXPECT_GT(separators, 300u);
}

// ----------------------------------------------------- native on AlloyStack

TEST(AlloyWorkloadTest, PipeMatchesReference) {
  asbase::Json params;
  params.Set("bytes", 100'000);
  params.Set("seed", 5);
  auto stats = RunOnAlloyStack(PipeWorkflow(), params, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedPipeResult(100'000, 5));
}

class AlloyWcTest : public ::testing::TestWithParam<int> {};

TEST_P(AlloyWcTest, WordCountMatchesReference) {
  const int instances = GetParam();
  auto corpus = MakeTextCorpus(200'000, 11);
  asbase::Json params;
  params.Set("input", "/input.bin");
  auto stats = RunOnAlloyStack(WordCountWorkflow(instances), params, corpus);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedWordCountResult(corpus)) << instances;
}

INSTANTIATE_TEST_SUITE_P(Widths, AlloyWcTest, ::testing::Values(1, 2, 3, 5));

class AlloySortTest : public ::testing::TestWithParam<int> {};

TEST_P(AlloySortTest, ParallelSortingMatchesReference) {
  const int instances = GetParam();
  auto input = MakeIntegerInput(200'000, 13);
  asbase::Json params;
  params.Set("input", "/input.bin");
  auto stats =
      RunOnAlloyStack(ParallelSortingWorkflow(instances), params, input);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedSortingResult(input)) << instances;
}

// Each partition reads only its slice, so together they read the input
// from fatfs exactly once, whatever the fan-out.
TEST_P(AlloySortTest, PartitionsReadTheInputExactlyOnce) {
  const int instances = GetParam();
  auto input = MakeIntegerInput(200'000, 13);
  asbase::Json params;
  params.Set("input", "/input.bin");
  asobs::Counter& read_bytes = asobs::Registry::Global().GetCounter(
      "alloy_fs_read_bytes_total", {{"fs", "fat"}});
  const uint64_t before = read_bytes.value();
  auto stats =
      RunOnAlloyStack(ParallelSortingWorkflow(instances), params, input);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedSortingResult(input));
  EXPECT_EQ(read_bytes.value() - before, input.size()) << instances;
}

INSTANTIATE_TEST_SUITE_P(Widths, AlloySortTest, ::testing::Values(1, 3, 5));

TEST(AlloySortEdgeTest, FewerValuesThanInstances) {
  // Two values over five instances: three partitions read empty slices.
  auto input = MakeIntegerInput(8, 41);
  asbase::Json params;
  params.Set("input", "/input.bin");
  auto stats = RunOnAlloyStack(ParallelSortingWorkflow(5), params, input);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedSortingResult(input));
  EXPECT_EQ(stats->result.rfind("count=2 ", 0), 0u) << stats->result;
}

TEST(AlloySortEdgeTest, InputSizeNotAMultipleOfTheSliceWidth) {
  // 1003 values and 3 trailing bytes over 5 instances: slices differ in
  // length and the partial value at the end is not sorted.
  auto input = MakeIntegerInput(4 * 1003, 43);
  input.insert(input.end(), {0xff, 0xff, 0xff});
  asbase::Json params;
  params.Set("input", "/input.bin");
  auto stats = RunOnAlloyStack(ParallelSortingWorkflow(5), params, input);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedSortingResult(input));
  EXPECT_EQ(stats->result.rfind("count=1003 ", 0), 0u) << stats->result;
}

// Runs `probe` as the one function of a one-stage workflow over `input`
// (written to /input.bin) and returns the result it set.
asbase::Result<std::string> RunInputProbe(const std::string& name,
                                          const std::vector<uint8_t>& input,
                                          GenericFn probe) {
  GenericWorkflow workflow;
  workflow.name = name;
  workflow.stages.push_back(
      GenericStage{{GenericFunction{"probe", std::move(probe), 1}}});
  AS_ASSIGN_OR_RETURN(alloy::RunStats stats,
                      RunOnAlloyStack(workflow, asbase::Json(), input));
  return stats.result;
}

TEST(AlloyInputTest, RangeStraddlingClusterBoundariesReadsExactBytes) {
  constexpr size_t kCluster = 4096;  // fatfs default: 8 sectors per cluster
  const std::vector<uint8_t> input = MakePayload(3 * kCluster + 100, 23);
  const uint64_t offset = kCluster - 7;
  const size_t length = kCluster + 14;  // ends 7 bytes into the 3rd cluster
  auto result = RunInputProbe(
      "input-straddle", input, [&](ExecEnv& env) -> asbase::Status {
        AS_ASSIGN_OR_RETURN(size_t size, env.input_size("/input.bin"));
        AS_ASSIGN_OR_RETURN(EnvBuffer range,
                            env.read_input("/input.bin", offset, length));
        const bool same = std::equal(range.data.begin(), range.data.end(),
                                     input.begin() + offset);
        env.set_result("size=" + std::to_string(size) +
                       " read=" + std::to_string(range.data.size()) +
                       (same ? " same" : " differs"));
        return asbase::OkStatus();
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, "size=" + std::to_string(input.size()) +
                         " read=" + std::to_string(length) + " same");
}

TEST(AlloyInputTest, RangePastEofIsAnErrorNotAShortBuffer) {
  const std::vector<uint8_t> input = MakePayload(1000, 29);
  auto result = RunInputProbe(
      "input-past-eof", input, [](ExecEnv& env) -> asbase::Status {
        std::string outcome;
        auto describe = [&](uint64_t offset, size_t length) {
          auto range = env.read_input("/input.bin", offset, length);
          outcome += range.ok() ? std::to_string(range->data.size())
                                : std::string(asbase::ErrorCodeName(range.status().code()));
          outcome += " ";
        };
        describe(996, 4);   // the last value
        describe(1000, 0);  // empty, at EOF
        describe(996, 8);   // straddles EOF
        describe(1004, 0);  // empty, past EOF
        describe(2000, 16);
        env.set_result(outcome);
        return asbase::OkStatus();
      });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, "4 0 OUT_OF_RANGE OUT_OF_RANGE OUT_OF_RANGE ");
}

class AlloyChainTest : public ::testing::TestWithParam<int> {};

TEST_P(AlloyChainTest, FunctionChainMatchesReference) {
  const int length = GetParam();
  asbase::Json params;
  params.Set("bytes", 50'000);
  params.Set("seed", 3);
  auto stats = RunOnAlloyStack(FunctionChainWorkflow(length), params, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedChainResult(50'000, 3, length)) << length;
}

INSTANTIATE_TEST_SUITE_P(Lengths, AlloyChainTest,
                         ::testing::Values(2, 5, 10, 15));

TEST(AlloyWorkloadTest, FileTransferAblationMatchesReference) {
  // reference_passing = false routes intermediate data through fatfs files
  // (Fig 14 "base"); results must still be identical.
  alloy::WfdOptions options = TestWfd();
  options.reference_passing = false;
  auto corpus = MakeTextCorpus(100'000, 21);
  asbase::Json params;
  params.Set("input", "/input.bin");
  auto stats =
      RunOnAlloyStack(WordCountWorkflow(3), params, corpus, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedWordCountResult(corpus));
}

TEST(AlloyWorkloadTest, IfiModeMatchesReference) {
  alloy::WfdOptions options = TestWfd();
  options.inter_function_isolation = true;
  asbase::Json params;
  params.Set("bytes", 65536);
  params.Set("seed", 9);
  auto stats = RunOnAlloyStack(PipeWorkflow(), params, {}, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedPipeResult(65536, 9));
}

TEST(AlloyWorkloadTest, RamfsVariantMatchesReference) {
  alloy::WfdOptions options = TestWfd();
  options.use_ramfs = true;
  auto input = MakeIntegerInput(100'000, 17);
  asbase::Json params;
  params.Set("input", "/input.bin");
  auto stats =
      RunOnAlloyStack(ParallelSortingWorkflow(3), params, input, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedSortingResult(input));
}

// -------------------------------------------------------- VM on AlloyStack

asbase::Result<alloy::RunStats> RunVmOnAlloyStack(
    VmApp app, int width, const asbase::Json& params,
    const std::vector<uint8_t>& input, bool python = false) {
  AS_ASSIGN_OR_RETURN(VmWorkflowSpec vm_spec, BuildVmWorkflow(app, width));
  alloy::WorkflowSpec spec = RegisterAlloyVmWorkflow(vm_spec, python);
  AS_ASSIGN_OR_RETURN(std::unique_ptr<alloy::Wfd> wfd,
                      alloy::Wfd::Create(TestWfd()));
  alloy::AsStd as(wfd.get());
  if (!input.empty()) {
    AS_RETURN_IF_ERROR(as.WriteWholeFile("/input.bin", input));
  }
  if (python) {
    AS_RETURN_IF_ERROR(alloy::EnsurePythonStdlib(as));
  }
  alloy::Orchestrator orchestrator(wfd.get());
  return orchestrator.Run(spec, params);
}

TEST(VmWorkloadTest, PipeMatchesReference) {
  asbase::Json params;
  params.Set("bytes", 30'016);
  params.Set("seed", 6);
  auto stats = RunVmOnAlloyStack(VmApp::kPipe, 1, params, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedVmPipeResult(30'016, 6));
}

TEST(VmWorkloadTest, WordCountMatchesReference) {
  auto corpus = MakeTextCorpus(60'000, 23);
  asbase::Json params;
  params.Set("input", "/input.bin");
  params.Set("n", 3);
  auto stats = RunVmOnAlloyStack(VmApp::kWordCount, 3, params, corpus);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedVmWordCountResult(corpus));
}

TEST(VmWorkloadTest, SortingMatchesReference) {
  auto input = MakeIntegerInput(40'000, 29);
  asbase::Json params;
  params.Set("input", "/input.bin");
  params.Set("n", 3);
  auto stats = RunVmOnAlloyStack(VmApp::kSorting, 3, params, input);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedVmSortingResult(input));
}

TEST(VmWorkloadTest, ChainMatchesReference) {
  asbase::Json params;
  params.Set("bytes", 20'000);
  params.Set("seed", 4);
  params.Set("chain_length", 5);
  auto stats = RunVmOnAlloyStack(VmApp::kChain, 5, params, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedVmChainResult(20'000, 4, 5));
}

TEST(VmWorkloadTest, PythonModeMatchesReference) {
  asbase::Json params;
  params.Set("bytes", 4'096);
  params.Set("seed", 8);
  auto stats = RunVmOnAlloyStack(VmApp::kPipe, 1, params, {}, /*python=*/true);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->result, ExpectedVmPipeResult(4'096, 8));
}

}  // namespace
}  // namespace aswl
