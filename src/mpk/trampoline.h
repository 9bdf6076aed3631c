// MPK trampoline (§7.1, Figure 9).
//
// as-std must raise the thread's PKRU before executing system-partition code
// (as-libos / as-visor) and drop it again on return. The real implementation
// is an assembly stub that saves the context, switches to the system stack,
// writes PKRU and jumps; here the context save/stack discipline is provided
// by the C++ call itself and the PKRU transition goes through PkeyRuntime so
// all three backends behave identically.
//
// The same thread is shared between user functions and as-libos (the paper's
// locality argument vs Faastlane); the trampoline only flips permissions, it
// never migrates work to another thread.

#ifndef SRC_MPK_TRAMPOLINE_H_
#define SRC_MPK_TRAMPOLINE_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "src/common/resource_object.h"
#include "src/mpk/pkey_runtime.h"

namespace asmpk {

class Trampoline : public asbase::ResourceObject {
 public:
  // `system_pkru` is the PKRU value system code runs under (system + user
  // keys enabled); `user_pkru` is the restricted value user code runs under.
  Trampoline(PkeyRuntime* runtime, uint32_t user_pkru, uint32_t system_pkru)
      : runtime_(runtime), user_pkru_(user_pkru), system_pkru_(system_pkru) {}

  // Run `fn` with system permissions; restores the caller's PKRU afterwards
  // even if `fn` throws.
  template <typename Fn>
  auto EnterSystem(Fn&& fn) -> decltype(fn()) {
    Guard guard(this);
    return std::forward<Fn>(fn)();
  }

  // Drop to user permissions for the duration of `fn` (function execution).
  template <typename Fn>
  auto EnterUser(Fn&& fn) -> decltype(fn()) {
    const uint32_t saved = runtime_->ReadPkru();
    runtime_->WritePkru(user_pkru_);
    struct Restore {
      PkeyRuntime* runtime;
      uint32_t saved;
      ~Restore() { runtime->WritePkru(saved); }
    } restore{runtime_, saved};
    return std::forward<Fn>(fn)();
  }

  uint32_t user_pkru() const { return user_pkru_; }
  uint32_t system_pkru() const { return system_pkru_; }
  void set_user_pkru(uint32_t pkru) { user_pkru_ = pkru; }

  uint64_t enter_count() const {
    return enters_.load(std::memory_order_relaxed);
  }

  PkeyRuntime* runtime() const { return runtime_; }

 private:
  class Guard {
   public:
    explicit Guard(Trampoline* trampoline)
        : trampoline_(trampoline),
          saved_(trampoline->runtime_->ReadPkru()) {
      trampoline_->runtime_->WritePkru(trampoline_->system_pkru_);
      trampoline_->enters_.fetch_add(1, std::memory_order_relaxed);
    }
    ~Guard() { trampoline_->runtime_->WritePkru(saved_); }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Trampoline* trampoline_;
    uint32_t saved_;
  };

  PkeyRuntime* runtime_;
  uint32_t user_pkru_;
  uint32_t system_pkru_;
  std::atomic<uint64_t> enters_{0};
};

}  // namespace asmpk

#endif  // SRC_MPK_TRAMPOLINE_H_
