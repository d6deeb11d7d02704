// FunctionRef: a non-owning callable reference (the shape of C++26's
// std::function_ref).
//
// The burst pipeline threads per-burst callbacks (the seg6 per-packet
// epilogue of run_prog_over_burst) through call boundaries; std::function
// would heap-allocate each of those closures once per burst — measurable
// allocator traffic at line rate and a violation of the zero-allocation
// steady state.
// FunctionRef is two words (object pointer + trampoline), always refers to
// a callable and never owns it: it is only valid while the referenced
// callable lives, which for these call-scope hooks is the enclosing full
// expression.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace srv6bpf::util {

template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT: implicit by design
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

}  // namespace srv6bpf::util
