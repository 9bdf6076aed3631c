#!/usr/bin/env bash
# CI entry point: the full tier-1 suite, then the common, core, serving,
# obs, netstack and http layers again under TSan — the on-demand thread
# pool, stage dispatch, the admission queue, the pool warmer, the watchdog
# pipeline, the flight-ring seqlock, and the poller/timer/backpressure
# paths are the most thread-heavy code in the tree, so they get the race
# detector even when the full TSan suite would be too slow — and the
# serving layer, fatfs, obs, the WFD heap
# allocator and the workload bindings once more under ASan, and fatfs under
# UBSan.
#
# Usage: scripts/ci.sh [build-dir]   (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-ci}"

echo "==> docs link/anchor + metrics drift check"
python3 scripts/check_docs.py

echo "==> full suite (${BUILD})"
cmake -S . -B "${BUILD}" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${BUILD}" -j "$(nproc)"
ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)"

echo "==> common + core + serving + obs + netstack + http tests under ThreadSanitizer (${BUILD}-tsan)"
cmake -S . -B "${BUILD}-tsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DALLOY_SANITIZE=thread >/dev/null
cmake --build "${BUILD}-tsan" -j "$(nproc)"
# ALLOY_VISOR_SHARDS=4 makes every default-constructed router in the
# serving tests (and the bench smoke) run 4 shards, so the TSan pass
# covers cross-shard drain, the shared /metrics scrape, and the
# per-shard admission queues. The serving label includes
# visor_rebalance_test, so live migration, queue handoff, and
# ScaleTo-vs-inflight races run under the race detector too.
ALLOY_VISOR_SHARDS=4 ctest --test-dir "${BUILD}-tsan" -L serving --output-on-failure
# The common label is common_test: a ThreadPool spawns workers from
# Submit, on whichever thread submits, while its workers count themselves
# in and out of the in-flight total that decides the spawn.
ctest --test-dir "${BUILD}-tsan" -L common --output-on-failure
# The core label is core_test: the orchestrator runs instance 0 of every
# stage on the calling thread while the WFD's pool workers run its siblings,
# so the caller and the workers share one stage's state.
ctest --test-dir "${BUILD}-tsan" -L core --output-on-failure
# The obs label covers the flight-ring concurrent-writers/scraping-reader
# seqlock test — the torn-read protocol is only proven if TSan sees it —
# the tree ring that holds retained span trees beside the records, written
# by the same writers, and MPK runtimes joining and leaving the telemetry
# list while /metrics walks it.
ctest --test-dir "${BUILD}-tsan" -L obs --output-on-failure
ctest --test-dir "${BUILD}-tsan" -L netstack --output-on-failure
# The http label is the epoll edge reactor: reactor threads vs responders
# answering from other threads (through the reactor inbox) vs Stop()'s
# settle protocol — keep-alive, pipelining, the connection cap, and idle
# reaping all run under the race detector.
ctest --test-dir "${BUILD}-tsan" -L http --output-on-failure

# Each shard's pool warmer holds raw pointers to the shard's pools, and
# WfdPool::Shutdown must take a pool off its warmer before the pool dies.
# A tick on a freed pool is a use-after-free that TSan would not report as
# one, so the serving label also runs under AddressSanitizer.
echo "==> serving + fatfs + obs + alloc + workloads tests under AddressSanitizer (${BUILD}-asan)"
cmake -S . -B "${BUILD}-asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DALLOY_SANITIZE=address >/dev/null
cmake --build "${BUILD}-asan" -j "$(nproc)"
ALLOY_VISOR_SHARDS=4 ctest --test-dir "${BUILD}-asan" -L serving --output-on-failure
# The fatfs label is fatfs_test: FAT entries and directory entries are read
# and patched in place inside cached 512-byte metadata sectors, found by
# sector arithmetic (cluster / 128, entry index * 32 / 512), so an
# off-by-one there is an out-of-bounds access that only ASan reports.
ctest --test-dir "${BUILD}-asan" -L fatfs --output-on-failure
# The obs label covers the metrics registry: a latency series grows its
# bucket array over the index range it has used, so an off-by-one in a
# bucket index is an out-of-bounds write that only ASan reports. It also
# serves retained span trees while writers displace them from the tree
# ring: a tree freed while served is a use-after-free.
ctest --test-dir "${BUILD}-asan" -L obs --output-on-failure
# The alloc label is alloc_test: the WFD heap allocator writes its block
# headers and free-list nodes inside the heap it manages, and releasing free
# pages must stop short of every one of them. It also runs
# wfd_reclaim_test: a WFD's LibOS objects live in its reservation's system
# pages and die with one munmap, so an object touched after its WFD is
# destroyed faults, and anything still malloc'd leaks.
ctest --test-dir "${BUILD}-asan" -L alloc --output-on-failure
# The workloads label is workloads_test: function inputs and AsBuffers live
# on the WFD heap behind EnvBuffer owners that hold the invocation's AsStd*
# and free through it, so an owner that outlives its invocation is a
# use-after-free that only ASan reports.
ctest --test-dir "${BUILD}-asan" -L workloads --output-on-failure

# The same metadata sectors are decoded little-endian byte by byte and
# indexed with 32-bit LBA and cluster arithmetic: shifts and overflows that
# UBSan reports and ASan does not.
echo "==> fatfs tests under UndefinedBehaviorSanitizer (${BUILD}-ubsan)"
cmake -S . -B "${BUILD}-ubsan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DALLOY_SANITIZE=undefined >/dev/null
cmake --build "${BUILD}-ubsan" -j "$(nproc)" --target fatfs_test
# UBSan reports and carries on by default; halt so a report fails the pass.
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "${BUILD}-ubsan" -L fatfs --output-on-failure

echo "==> serving + dataplane + sharding + obs-overhead + Table 4 bench smoke"
(cd "${BUILD}" && ./bench/bench_serving --quick >/dev/null)
(cd "${BUILD}" && ./bench/bench_fig10_coldstart --quick >/dev/null)
(cd "${BUILD}" && ./bench/bench_dataplane --quick >/dev/null)
(cd "${BUILD}" && ./bench/bench_sharding --quick --zipf >/dev/null)
(cd "${BUILD}" && ./bench/bench_serving --obs-overhead --quick >/dev/null)
# Table 4 runs the as-fatfs rows over MemDisk and the user-space TCP stack
# (~1 s). It once stalled for minutes in its TCP section; the timeout turns
# a repeat into a CI failure instead of a hang.
(cd "${BUILD}" && timeout 60 ./bench/bench_tab04_fsnet >/dev/null)

# The serving benchmark builds its own copy of src/ (.bench_build/serve) and
# drives Wfd::CaptureSnapshot / Wfd::CloneFromSnapshot in its ladder, so a
# change to either is caught here: ~2 s per workload and mode, outputs
# checked against the oracle.
echo "==> serving benchmark smoke (bench/serve)"
python3 bench/serve/run.py --smoke >/dev/null
# The parent-vs-change verdict rests on compare.py's statistics; its
# self-test pins them on synthetic run sets.
python3 bench/serve/compare.py --self-test

echo "CI OK"
