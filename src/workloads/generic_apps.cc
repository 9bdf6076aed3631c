#include "src/workloads/generic_apps.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/workloads/inputs.h"

namespace aswl {
namespace {

uint64_t HashWord(std::string_view word) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : word) {
    hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

bool IsWordChar(uint8_t c) { return c != ' ' && c != '\n' && c != '\t'; }

// Tokenizes `text` and calls visit(word) for each token.
template <typename Visit>
void ForEachWord(std::span<const uint8_t> text, Visit&& visit) {
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !IsWordChar(text[i])) {
      ++i;
    }
    const size_t start = i;
    while (i < text.size() && IsWordChar(text[i])) {
      ++i;
    }
    if (i > start) {
      visit(std::string_view(
          reinterpret_cast<const char*>(text.data()) + start, i - start));
    }
  }
}

// The byte range instance `i` of `n` owns, extended to word boundaries so
// every word is counted exactly once across instances.
std::pair<size_t, size_t> WordSlice(std::span<const uint8_t> text, int i,
                                    int n) {
  size_t begin = text.size() * static_cast<size_t>(i) / static_cast<size_t>(n);
  size_t end =
      text.size() * static_cast<size_t>(i + 1) / static_cast<size_t>(n);
  while (begin > 0 && begin < text.size() && IsWordChar(text[begin - 1]) &&
         IsWordChar(text[begin])) {
    ++begin;
  }
  while (end < text.size() && end > 0 && IsWordChar(text[end - 1]) &&
         IsWordChar(text[end])) {
    ++end;
  }
  return {begin, end};
}

using Counts = std::unordered_map<std::string, uint64_t>;

std::vector<uint8_t> SerializeCounts(const Counts& counts) {
  std::vector<uint8_t> out;
  for (const auto& [word, count] : counts) {
    const uint16_t len = static_cast<uint16_t>(word.size());
    out.push_back(static_cast<uint8_t>(len));
    out.push_back(static_cast<uint8_t>(len >> 8));
    out.insert(out.end(), word.begin(), word.end());
    for (int b = 0; b < 8; ++b) {
      out.push_back(static_cast<uint8_t>(count >> (8 * b)));
    }
  }
  return out;
}

asbase::Status MergeCounts(std::span<const uint8_t> blob, Counts* into) {
  size_t pos = 0;
  while (pos < blob.size()) {
    if (pos + 2 > blob.size()) {
      return asbase::DataLoss("truncated count record");
    }
    const uint16_t len =
        static_cast<uint16_t>(blob[pos] | (blob[pos + 1] << 8));
    pos += 2;
    if (pos + len + 8 > blob.size()) {
      return asbase::DataLoss("truncated count record");
    }
    std::string word(reinterpret_cast<const char*>(blob.data()) + pos, len);
    pos += len;
    uint64_t count = 0;
    for (int b = 0; b < 8; ++b) {
      count |= static_cast<uint64_t>(blob[pos + static_cast<size_t>(b)])
               << (8 * b);
    }
    pos += 8;
    (*into)[std::move(word)] += count;
  }
  return asbase::OkStatus();
}

// Order-independent digest of a count table.
void SummarizeCounts(const Counts& counts, uint64_t* total, uint64_t* distinct,
                     uint64_t* digest) {
  *total = 0;
  *distinct = counts.size();
  *digest = 0;
  for (const auto& [word, count] : counts) {
    *total += count;
    *digest ^= HashWord(word) * (count + 1);
  }
}

std::string FormatWcResult(uint64_t total, uint64_t distinct,
                           uint64_t digest) {
  return "words=" + std::to_string(total) +
         " distinct=" + std::to_string(distinct) +
         " hash=" + std::to_string(digest);
}

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// Sends a serialized blob: alloc + copy-in + publish. (Serialization output
// necessarily materializes once in every runtime.)
asbase::Status SendBlob(ExecEnv& env, const std::string& slot,
                        std::span<const uint8_t> blob) {
  AS_ASSIGN_OR_RETURN(EnvBuffer buffer, env.alloc(slot, blob.size()));
  if (!blob.empty()) {
    std::memcpy(buffer.data.data(), blob.data(), blob.size());
  }
  return env.send(slot, std::move(buffer));
}

}  // namespace

// ----------------------------------------------------------------- no-ops

GenericWorkflow NoOpsWorkflow() {
  GenericWorkflow workflow;
  workflow.name = "no-ops";
  workflow.stages.push_back(GenericStage{{GenericFunction{
      "noop",
      [](ExecEnv& env) {
        env.set_result("ok");
        return asbase::OkStatus();
      },
      1}}});
  return workflow;
}

// ------------------------------------------------------------------- pipe

GenericWorkflow PipeWorkflow() {
  GenericWorkflow workflow;
  workflow.name = "pipe";
  workflow.stages.push_back(GenericStage{{GenericFunction{
      "pipe.sender",
      [](ExecEnv& env) -> asbase::Status {
        const size_t bytes =
            static_cast<size_t>(env.params["bytes"].as_int(4096));
        const uint64_t seed =
            static_cast<uint64_t>(env.params["seed"].as_int(1));
        env.phase(EnvPhase::kTransfer);
        AS_ASSIGN_OR_RETURN(EnvBuffer buffer, env.alloc("pipe", bytes));
        env.phase(EnvPhase::kCompute);
        FillPayload(buffer.data, seed);  // producer writes in place
        env.phase(EnvPhase::kTransfer);
        return env.send("pipe", std::move(buffer));
      },
      1}}});
  workflow.stages.push_back(GenericStage{{GenericFunction{
      "pipe.receiver",
      [](ExecEnv& env) -> asbase::Status {
        // The paper's transfer window runs until B has read all the data:
        // keep the traversal inside the transfer phase.
        env.phase(EnvPhase::kTransfer);
        AS_ASSIGN_OR_RETURN(EnvBuffer buffer, env.recv("pipe"));
        const uint64_t checksum = Checksum(buffer.data);
        env.phase(EnvPhase::kCompute);
        env.set_result("bytes=" + std::to_string(buffer.data.size()) +
                       " hash=" + std::to_string(checksum));
        return asbase::OkStatus();
      },
      1}}});
  return workflow;
}

std::string ExpectedPipeResult(size_t bytes, uint64_t seed) {
  auto payload = MakePayload(bytes, seed);
  return "bytes=" + std::to_string(payload.size()) +
         " hash=" + std::to_string(Checksum(payload));
}

// -------------------------------------------------------------- WordCount

GenericWorkflow WordCountWorkflow(int instances) {
  GenericWorkflow workflow;
  workflow.name = "wordcount";
  const int n = instances;

  workflow.stages.push_back(GenericStage{{GenericFunction{
      "wc.map",
      [n](ExecEnv& env) -> asbase::Status {
        env.phase(EnvPhase::kReadInput);
        // The whole corpus, not a slice: finding word boundaries needs
        // lookahead past the slice's ends.
        const std::string& path = env.params["input"].as_string();
        AS_ASSIGN_OR_RETURN(size_t size, env.input_size(path));
        AS_ASSIGN_OR_RETURN(EnvBuffer corpus, env.read_input(path, 0, size));
        env.phase(EnvPhase::kCompute);
        auto [begin, end] = WordSlice(corpus.data, env.instance, n);
        std::vector<Counts> partitions(static_cast<size_t>(n));
        ForEachWord(
            std::span<const uint8_t>(corpus.data).subspan(begin, end - begin),
            [&](std::string_view word) {
              partitions[HashWord(word) % static_cast<size_t>(n)]
                        [std::string(word)] += 1;
            });
        for (int j = 0; j < n; ++j) {
          std::vector<uint8_t> blob =
              SerializeCounts(partitions[static_cast<size_t>(j)]);
          env.phase(EnvPhase::kTransfer);
          AS_RETURN_IF_ERROR(SendBlob(
              env,
              "wc-" + std::to_string(env.instance) + "-" + std::to_string(j),
              blob));
          env.phase(EnvPhase::kCompute);
        }
        return asbase::OkStatus();
      },
      n}}});

  workflow.stages.push_back(GenericStage{{GenericFunction{
      "wc.reduce",
      [n](ExecEnv& env) -> asbase::Status {
        Counts merged;
        for (int i = 0; i < n; ++i) {
          env.phase(EnvPhase::kTransfer);
          AS_ASSIGN_OR_RETURN(EnvBuffer blob,
                              env.recv("wc-" + std::to_string(i) + "-" +
                                       std::to_string(env.instance)));
          env.phase(EnvPhase::kCompute);
          AS_RETURN_IF_ERROR(MergeCounts(blob.data, &merged));
        }
        uint64_t total, distinct, digest;
        SummarizeCounts(merged, &total, &distinct, &digest);
        std::vector<uint8_t> summary(24);
        std::memcpy(summary.data(), &total, 8);
        std::memcpy(summary.data() + 8, &distinct, 8);
        std::memcpy(summary.data() + 16, &digest, 8);
        env.phase(EnvPhase::kTransfer);
        return SendBlob(env, "wcres-" + std::to_string(env.instance), summary);
      },
      n}}});

  workflow.stages.push_back(GenericStage{{GenericFunction{
      "wc.collect",
      [n](ExecEnv& env) -> asbase::Status {
        uint64_t total = 0, distinct = 0, digest = 0;
        for (int j = 0; j < n; ++j) {
          env.phase(EnvPhase::kTransfer);
          AS_ASSIGN_OR_RETURN(EnvBuffer summary,
                              env.recv("wcres-" + std::to_string(j)));
          env.phase(EnvPhase::kCompute);
          if (summary.data.size() != 24) {
            return asbase::DataLoss("bad reducer summary");
          }
          uint64_t t, d, h;
          std::memcpy(&t, summary.data.data(), 8);
          std::memcpy(&d, summary.data.data() + 8, 8);
          std::memcpy(&h, summary.data.data() + 16, 8);
          total += t;
          distinct += d;
          digest ^= h;
        }
        env.set_result(FormatWcResult(total, distinct, digest));
        return asbase::OkStatus();
      },
      1}}});
  return workflow;
}

std::string ExpectedWordCountResult(const std::vector<uint8_t>& corpus) {
  Counts counts;
  ForEachWord(std::span<const uint8_t>(corpus.data(), corpus.size()),
              [&](std::string_view word) { counts[std::string(word)] += 1; });
  uint64_t total, distinct, digest;
  SummarizeCounts(counts, &total, &distinct, &digest);
  return FormatWcResult(total, distinct, digest);
}

// -------------------------------------------------------- ParallelSorting

GenericWorkflow ParallelSortingWorkflow(int instances) {
  GenericWorkflow workflow;
  workflow.name = "parallel-sorting";
  const int n = instances;

  workflow.stages.push_back(GenericStage{{GenericFunction{
      "ps.partition",
      [n](ExecEnv& env) -> asbase::Status {
        env.phase(EnvPhase::kReadInput);
        // Each instance reads only its own slice of the values.
        const std::string& path = env.params["input"].as_string();
        AS_ASSIGN_OR_RETURN(size_t size, env.input_size(path));
        const size_t count = size / 4;
        const size_t begin =
            count * static_cast<size_t>(env.instance) / static_cast<size_t>(n);
        const size_t end = count * static_cast<size_t>(env.instance + 1) /
                           static_cast<size_t>(n);
        AS_ASSIGN_OR_RETURN(EnvBuffer slice,
                            env.read_input(path, begin * 4, (end - begin) * 4));
        const uint8_t* raw = slice.data.data();
        const size_t values = end - begin;
        env.phase(EnvPhase::kCompute);
        auto bucket_of = [n](uint32_t v) {
          return static_cast<size_t>(
              (static_cast<uint64_t>(v) * static_cast<uint64_t>(n)) >> 32);
        };
        // Pass 1: bucket sizes, so output buffers can be allocated exactly
        // and filled in place (no intermediate vectors).
        std::vector<size_t> sizes(static_cast<size_t>(n), 0);
        for (size_t k = 0; k < values; ++k) {
          sizes[bucket_of(ReadU32(raw + k * 4))] += 4;
        }
        env.phase(EnvPhase::kTransfer);
        std::vector<EnvBuffer> buckets;
        buckets.reserve(static_cast<size_t>(n));
        for (int j = 0; j < n; ++j) {
          AS_ASSIGN_OR_RETURN(
              EnvBuffer buffer,
              env.alloc("ps-" + std::to_string(env.instance) + "-" +
                            std::to_string(j),
                        sizes[static_cast<size_t>(j)]));
          buckets.push_back(std::move(buffer));
        }
        env.phase(EnvPhase::kCompute);
        // Pass 2: scatter values directly into the transfer buffers.
        std::vector<size_t> fill(static_cast<size_t>(n), 0);
        for (size_t k = 0; k < values; ++k) {
          const uint32_t v = ReadU32(raw + k * 4);
          const size_t j = bucket_of(v);
          std::memcpy(buckets[j].data.data() + fill[j], raw + k * 4, 4);
          fill[j] += 4;
        }
        env.phase(EnvPhase::kTransfer);
        for (int j = 0; j < n; ++j) {
          AS_RETURN_IF_ERROR(env.send(
              "ps-" + std::to_string(env.instance) + "-" + std::to_string(j),
              std::move(buckets[static_cast<size_t>(j)])));
        }
        return asbase::OkStatus();
      },
      n}}});

  workflow.stages.push_back(GenericStage{{GenericFunction{
      "ps.sort",
      [n](ExecEnv& env) -> asbase::Status {
        env.phase(EnvPhase::kTransfer);
        std::vector<EnvBuffer> parts;
        size_t total_bytes = 0;
        for (int i = 0; i < n; ++i) {
          AS_ASSIGN_OR_RETURN(EnvBuffer part,
                              env.recv("ps-" + std::to_string(i) + "-" +
                                       std::to_string(env.instance)));
          total_bytes += part.data.size();
          parts.push_back(std::move(part));
        }
        AS_ASSIGN_OR_RETURN(
            EnvBuffer out,
            env.alloc("psres-" + std::to_string(env.instance), total_bytes));
        env.phase(EnvPhase::kCompute);
        size_t offset = 0;
        for (const auto& part : parts) {
          if (!part.data.empty()) {
            std::memcpy(out.data.data() + offset, part.data.data(),
                        part.data.size());
            offset += part.data.size();
          }
        }
        parts.clear();  // release upstream buffers
        // In place: alloc() memory is 16-byte aligned, so it holds uint32s.
        uint32_t* values = reinterpret_cast<uint32_t*>(out.data.data());
        std::sort(values, values + out.data.size() / 4);
        env.phase(EnvPhase::kTransfer);
        return env.send("psres-" + std::to_string(env.instance),
                        std::move(out));
      },
      n}}});

  workflow.stages.push_back(GenericStage{{GenericFunction{
      "ps.merge",
      [n](ExecEnv& env) -> asbase::Status {
        uint64_t hash = 0xcbf29ce484222325ULL;
        size_t total = 0;
        uint32_t prev = 0;
        for (int j = 0; j < n; ++j) {
          env.phase(EnvPhase::kTransfer);
          AS_ASSIGN_OR_RETURN(EnvBuffer part,
                              env.recv("psres-" + std::to_string(j)));
          env.phase(EnvPhase::kCompute);
          for (size_t k = 0; k * 4 < part.data.size(); ++k) {
            const uint32_t v = ReadU32(part.data.data() + k * 4);
            if (v < prev) {
              return asbase::Internal("merge produced unsorted output");
            }
            prev = v;
          }
          for (uint8_t byte : part.data) {
            hash = (hash ^ byte) * 0x100000001b3ULL;
          }
          total += part.data.size() / 4;
        }
        env.set_result("count=" + std::to_string(total) +
                       " hash=" + std::to_string(hash));
        return asbase::OkStatus();
      },
      1}}});
  return workflow;
}

std::string ExpectedSortingResult(const std::vector<uint8_t>& input) {
  const size_t count = input.size() / 4;
  std::vector<uint32_t> values(count);
  for (size_t k = 0; k < count; ++k) {
    values[k] = ReadU32(input.data() + k * 4);
  }
  std::sort(values.begin(), values.end());
  std::vector<uint8_t> sorted(count * 4);
  for (size_t k = 0; k < count; ++k) {
    std::memcpy(sorted.data() + k * 4, &values[k], 4);
  }
  return "count=" + std::to_string(count) +
         " hash=" + std::to_string(Checksum(sorted));
}

// ---------------------------------------------------------- FunctionChain

GenericWorkflow FunctionChainWorkflow(int length) {
  GenericWorkflow workflow;
  workflow.name = "function-chain";
  for (int s = 0; s < length; ++s) {
    const bool first = s == 0;
    const bool last = s == length - 1;
    workflow.stages.push_back(GenericStage{{GenericFunction{
        "chain.stage" + std::to_string(s),
        [s, first, last](ExecEnv& env) -> asbase::Status {
          EnvBuffer buffer;
          if (first) {
            env.phase(EnvPhase::kTransfer);
            AS_ASSIGN_OR_RETURN(
                buffer,
                env.alloc("chain-0", static_cast<size_t>(
                                         env.params["bytes"].as_int(4096))));
            env.phase(EnvPhase::kCompute);
            FillPayload(buffer.data,
                        static_cast<uint64_t>(env.params["seed"].as_int(1)));
          } else {
            env.phase(EnvPhase::kTransfer);
            AS_ASSIGN_OR_RETURN(buffer,
                                env.recv("chain-" + std::to_string(s - 1)));
          }
          env.phase(EnvPhase::kCompute);
          // Each hop touches every byte (checksum-style transform).
          for (auto& byte : buffer.data) {
            byte = static_cast<uint8_t>(byte + 1);
          }
          if (last) {
            env.set_result("bytes=" + std::to_string(buffer.data.size()) +
                           " hash=" + std::to_string(Checksum(buffer.data)));
            return asbase::OkStatus();
          }
          env.phase(EnvPhase::kTransfer);
          // Forward in place: reference-passing runtimes re-register the
          // same memory under the next slot.
          return env.send("chain-" + std::to_string(s), std::move(buffer));
        },
        1}}});
  }
  return workflow;
}

std::string ExpectedChainResult(size_t bytes, uint64_t seed, int length) {
  auto data = MakePayload(bytes, seed);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(byte + length);
  }
  return "bytes=" + std::to_string(data.size()) +
         " hash=" + std::to_string(Checksum(data));
}

}  // namespace aswl
