// Tests for the protection-key runtime and trampoline.
//
// Isolation-semantics tests run under kEmulated (portable); genuine
// enforcement tests run under kMprotect (real faults via mprotect). When the
// machine supports MPK, the same suites also run under kHardware.

#include <gtest/gtest.h>

#include <csignal>
#include <sys/mman.h>

#include <cstdlib>
#include <thread>

#include "src/alloc/arena.h"
#include "src/common/logging.h"
#include "src/mpk/pkey_runtime.h"
#include "src/mpk/trampoline.h"

namespace asmpk {
namespace {

TEST(PkruBitsTest, AllowDenyRoundTrip) {
  uint32_t pkru = PkeyRuntime::kDenyAll;
  EXPECT_FALSE(PkeyRuntime::KeyAllowed(pkru, 3, false));
  pkru = PkeyRuntime::AllowKey(pkru, 3);
  EXPECT_TRUE(PkeyRuntime::KeyAllowed(pkru, 3, false));
  EXPECT_TRUE(PkeyRuntime::KeyAllowed(pkru, 3, true));
  EXPECT_FALSE(PkeyRuntime::KeyAllowed(pkru, 4, false));
  pkru = PkeyRuntime::DenyKey(pkru, 3);
  EXPECT_FALSE(PkeyRuntime::KeyAllowed(pkru, 3, false));
}

TEST(PkruBitsTest, WriteDisableIsReadOnly) {
  uint32_t pkru = PkeyRuntime::DenyWrite(0, 5);
  EXPECT_TRUE(PkeyRuntime::KeyAllowed(pkru, 5, false));
  EXPECT_FALSE(PkeyRuntime::KeyAllowed(pkru, 5, true));
}

TEST(PkruBitsTest, KeyZeroAlwaysOpenInDenyAll) {
  EXPECT_TRUE(PkeyRuntime::KeyAllowed(PkeyRuntime::kDenyAll, 0, true));
}

class PkeyRuntimeTest : public ::testing::TestWithParam<MpkBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == MpkBackend::kHardware &&
        !PkeyRuntime::HardwareAvailable()) {
      GTEST_SKIP() << "no MPK hardware on this machine";
    }
    runtime_ = std::make_unique<PkeyRuntime>(GetParam());
  }

  void TearDown() override {
    if (runtime_ != nullptr) {
      runtime_->WritePkru(0);  // re-open everything before unmapping
    }
  }

  std::unique_ptr<PkeyRuntime> runtime_;
};

TEST_P(PkeyRuntimeTest, AllocatesDistinctKeys) {
  auto a = runtime_->AllocateKey();
  auto b = runtime_->AllocateKey();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_GE(*a, 1);
  EXPECT_LE(*a, 15);
  EXPECT_TRUE(runtime_->FreeKey(*a).ok());
  EXPECT_TRUE(runtime_->FreeKey(*b).ok());
}

TEST_P(PkeyRuntimeTest, ExhaustsAtFifteenKeys) {
  if (GetParam() == MpkBackend::kHardware) {
    GTEST_SKIP() << "kernel may reserve hardware keys";
  }
  std::vector<ProtKey> keys;
  for (int i = 0; i < 15; ++i) {
    auto key = runtime_->AllocateKey();
    ASSERT_TRUE(key.ok()) << i;
    keys.push_back(*key);
  }
  EXPECT_EQ(runtime_->AllocateKey().status().code(),
            asbase::ErrorCode::kResourceExhausted);
  for (ProtKey key : keys) {
    EXPECT_TRUE(runtime_->FreeKey(key).ok());
  }
}

TEST_P(PkeyRuntimeTest, FreeKeyRejectsBadAndBusyKeys) {
  EXPECT_FALSE(runtime_->FreeKey(0).ok());
  EXPECT_FALSE(runtime_->FreeKey(7).ok());  // never allocated

  asalloc::Arena arena(4096);
  auto key = runtime_->AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(runtime_
                  ->BindRegion(arena.data(), arena.size(), *key,
                               PROT_READ | PROT_WRITE)
                  .ok());
  EXPECT_EQ(runtime_->FreeKey(*key).code(),
            asbase::ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(runtime_->UnbindRegion(arena.data(), arena.size()).ok());
  EXPECT_TRUE(runtime_->FreeKey(*key).ok());
}

TEST_P(PkeyRuntimeTest, BindRejectsUnalignedAndOverlapping) {
  asalloc::Arena arena(3 * 4096);
  auto key = runtime_->AllocateKey();
  ASSERT_TRUE(key.ok());
  char* base = static_cast<char*>(arena.data());

  EXPECT_FALSE(runtime_->BindRegion(base + 1, 4096, *key, PROT_READ).ok());
  EXPECT_FALSE(runtime_->BindRegion(base, 100, *key, PROT_READ).ok());

  ASSERT_TRUE(
      runtime_->BindRegion(base, 2 * 4096, *key, PROT_READ | PROT_WRITE).ok());
  EXPECT_EQ(runtime_->BindRegion(base + 4096, 4096, *key, PROT_READ).code(),
            asbase::ErrorCode::kAlreadyExists);
  EXPECT_TRUE(runtime_->UnbindRegion(base, 2 * 4096).ok());
}

TEST_P(PkeyRuntimeTest, CheckAccessFollowsPkru) {
  asalloc::Arena arena(4096);
  auto key = runtime_->AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(runtime_
                  ->BindRegion(arena.data(), arena.size(), *key,
                               PROT_READ | PROT_WRITE)
                  .ok());

  runtime_->WritePkru(0);  // everything open
  EXPECT_TRUE(runtime_->CheckAccess(arena.data(), 16, true).ok());

  runtime_->WritePkru(PkeyRuntime::DenyKey(0, *key));
  EXPECT_EQ(runtime_->CheckAccess(arena.data(), 16, false).code(),
            asbase::ErrorCode::kPermissionDenied);

  runtime_->WritePkru(PkeyRuntime::DenyWrite(0, *key));
  EXPECT_TRUE(runtime_->CheckAccess(arena.data(), 16, false).ok());
  EXPECT_EQ(runtime_->CheckAccess(arena.data(), 16, true).code(),
            asbase::ErrorCode::kPermissionDenied);

  // Unbound memory is never denied.
  int on_stack = 0;
  EXPECT_TRUE(runtime_->CheckAccess(&on_stack, sizeof(on_stack), true).ok());

  runtime_->WritePkru(0);
  EXPECT_TRUE(runtime_->UnbindRegion(arena.data(), arena.size()).ok());
}

TEST_P(PkeyRuntimeTest, KeyOfReportsBinding) {
  asalloc::Arena arena(4096);
  auto key = runtime_->AllocateKey();
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(runtime_->KeyOf(arena.data()), 0);
  ASSERT_TRUE(
      runtime_->BindRegion(arena.data(), arena.size(), *key, PROT_READ).ok());
  EXPECT_EQ(runtime_->KeyOf(arena.data()), *key);
  EXPECT_EQ(runtime_->KeyOf(static_cast<char*>(arena.data()) + 4095), *key);
  EXPECT_TRUE(runtime_->UnbindRegion(arena.data(), arena.size()).ok());
}

TEST_P(PkeyRuntimeTest, SwitchCountCountsWrites) {
  uint64_t before = runtime_->switch_count();
  runtime_->WritePkru(0);
  runtime_->WritePkru(PkeyRuntime::kDenyAll);
  runtime_->WritePkru(0);
  EXPECT_EQ(runtime_->switch_count(), before + 3);
}

INSTANTIATE_TEST_SUITE_P(Backends, PkeyRuntimeTest,
                         ::testing::Values(MpkBackend::kEmulated,
                                           MpkBackend::kMprotect,
                                           MpkBackend::kHardware),
                         [](const auto& info) {
                           return std::string(MpkBackendName(info.param));
                         });

// Genuine enforcement: under the mprotect backend, touching a denied region
// faults for real.
TEST(MprotectEnforcementDeathTest, DeniedReadFaults) {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
  EXPECT_DEATH(
      {
        PkeyRuntime runtime(MpkBackend::kMprotect);
        asalloc::Arena arena(4096);
        auto key = runtime.AllocateKey();
        runtime
            .BindRegion(arena.data(), arena.size(), *key,
                        PROT_READ | PROT_WRITE)
            .ok();
        runtime.WritePkru(PkeyRuntime::DenyKey(0, *key));
        // This load must SIGSEGV.
        volatile char sink = *static_cast<volatile char*>(arena.data());
        (void)sink;
      },
      "");
}

TEST(MprotectEnforcementTest, ReOpenedRegionIsAccessible) {
  PkeyRuntime runtime(MpkBackend::kMprotect);
  asalloc::Arena arena(4096);
  auto key = runtime.AllocateKey();
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(runtime
                  .BindRegion(arena.data(), arena.size(), *key,
                              PROT_READ | PROT_WRITE)
                  .ok());
  runtime.WritePkru(PkeyRuntime::DenyKey(0, *key));
  runtime.WritePkru(PkeyRuntime::AllowKey(PkeyRuntime::kDenyAll, *key));
  static_cast<char*>(arena.data())[0] = 42;  // must not fault
  EXPECT_EQ(static_cast<char*>(arena.data())[0], 42);
  runtime.WritePkru(0);
}

// Two hardware runtimes in one process, each with a page bound to its own
// first key: both number that key 1, but the kernel keys differ, so each
// runtime's user PKRU must open its own page and fault on the other's.
class HardwareKeysDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!PkeyRuntime::HardwareAvailable()) {
      GTEST_SKIP() << "no MPK hardware on this machine";
    }
#ifdef GTEST_FLAG_SET
    GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
  }

  struct Domain {
    Domain() : runtime(MpkBackend::kHardware), page(4096) {
      static_cast<volatile char*>(page.data())[0] = 7;
      key = *runtime.AllocateKey();
      AS_CHECK(runtime
                   .BindRegion(page.data(), page.size(), key,
                               PROT_READ | PROT_WRITE)
                   .ok());
    }
    void EnterUser() {
      runtime.WritePkru(PkeyRuntime::AllowKey(PkeyRuntime::kDenyAll, key));
    }
    char Read() const { return static_cast<volatile char*>(page.data())[0]; }

    PkeyRuntime runtime;
    asalloc::Arena page;
    ProtKey key = 0;
  };
};

TEST_F(HardwareKeysDeathTest, EachRuntimeReadsItsOwnPage) {
  EXPECT_EXIT(
      {
        Domain a;
        Domain b;
        a.EnterUser();
        const char from_a = a.Read();
        b.EnterUser();
        const char from_b = b.Read();
        b.runtime.WritePkru(0);
        std::exit(from_a == 7 && from_b == 7 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST_F(HardwareKeysDeathTest, FirstRuntimeFaultsOnTheSecondsPage) {
  EXPECT_DEATH(
      {
        Domain a;
        Domain b;
        a.EnterUser();
        (void)b.Read();  // must SIGSEGV
        std::exit(0);
      },
      "");
}

TEST_F(HardwareKeysDeathTest, SecondRuntimeFaultsOnTheFirstsPage) {
  EXPECT_DEATH(
      {
        Domain a;
        Domain b;
        b.EnterUser();
        (void)a.Read();  // must SIGSEGV
        std::exit(0);
      },
      "");
}

// ---------------------------------------------------------------- Trampoline

TEST(TrampolineTest, EnterSystemRaisesAndRestores) {
  PkeyRuntime runtime(MpkBackend::kEmulated);
  const uint32_t user = PkeyRuntime::kDenyAll;
  const uint32_t system = 0;
  Trampoline trampoline(&runtime, user, system);

  runtime.WritePkru(user);
  uint32_t inside = 0xDEAD;
  trampoline.EnterSystem([&] { inside = runtime.ReadPkru(); });
  EXPECT_EQ(inside, system);
  EXPECT_EQ(runtime.ReadPkru(), user);
}

TEST(TrampolineTest, EnterUserDropsAndRestores) {
  PkeyRuntime runtime(MpkBackend::kEmulated);
  Trampoline trampoline(&runtime, PkeyRuntime::kDenyAll, 0);
  runtime.WritePkru(0);
  uint32_t inside = 0;
  trampoline.EnterUser([&] { inside = runtime.ReadPkru(); });
  EXPECT_EQ(inside, PkeyRuntime::kDenyAll);
  EXPECT_EQ(runtime.ReadPkru(), 0u);
}

TEST(TrampolineTest, RestoresOnException) {
  PkeyRuntime runtime(MpkBackend::kEmulated);
  Trampoline trampoline(&runtime, PkeyRuntime::kDenyAll, 0);
  runtime.WritePkru(PkeyRuntime::kDenyAll);
  EXPECT_THROW(
      trampoline.EnterSystem([]() -> int { throw std::runtime_error("bug"); }),
      std::runtime_error);
  EXPECT_EQ(runtime.ReadPkru(), PkeyRuntime::kDenyAll);
}

TEST(TrampolineTest, NestedEntriesUnwindCorrectly) {
  PkeyRuntime runtime(MpkBackend::kEmulated);
  Trampoline trampoline(&runtime, PkeyRuntime::kDenyAll, 0);
  runtime.WritePkru(PkeyRuntime::kDenyAll);
  trampoline.EnterSystem([&] {
    EXPECT_EQ(runtime.ReadPkru(), 0u);
    trampoline.EnterUser([&] {
      EXPECT_EQ(runtime.ReadPkru(), PkeyRuntime::kDenyAll);
      trampoline.EnterSystem(
          [&] { EXPECT_EQ(runtime.ReadPkru(), 0u); });
      EXPECT_EQ(runtime.ReadPkru(), PkeyRuntime::kDenyAll);
    });
    EXPECT_EQ(runtime.ReadPkru(), 0u);
  });
  EXPECT_EQ(runtime.ReadPkru(), PkeyRuntime::kDenyAll);
}

TEST(TrampolineTest, CountsEnters) {
  PkeyRuntime runtime(MpkBackend::kEmulated);
  Trampoline trampoline(&runtime, PkeyRuntime::kDenyAll, 0);
  for (int i = 0; i < 5; ++i) {
    trampoline.EnterSystem([] {});
  }
  EXPECT_EQ(trampoline.enter_count(), 5u);
}

TEST(TrampolineTest, PkruIsPerThreadInEmulatedBackend) {
  PkeyRuntime runtime(MpkBackend::kEmulated);
  runtime.WritePkru(PkeyRuntime::kDenyAll);
  uint32_t other_thread_pkru = 1;
  std::thread thread([&] { other_thread_pkru = runtime.ReadPkru(); });
  thread.join();
  EXPECT_EQ(other_thread_pkru, 0u);  // fresh thread starts fully open
  EXPECT_EQ(runtime.ReadPkru(), PkeyRuntime::kDenyAll);
  runtime.WritePkru(0);
}

}  // namespace
}  // namespace asmpk
