/**
 * @file
 * InlineFn: a move-only `void()` callable with fixed inline storage.
 *
 * The event kernel schedules millions of small closures per run;
 * `std::function`'s small-buffer optimization (16 bytes in libstdc++)
 * is far too small for the protocol continuations (a core, line, pc
 * and issue tick, or a pool-slot pointer plus context), so every
 * schedule() paid a heap allocation. InlineFn stores the callable
 * in-place — callables larger than the capacity are rejected at
 * compile time, so a grown capture list is a build error rather than
 * a silent return of per-event malloc traffic.
 *
 * Only the `void()` signature is provided; it is the only one the
 * kernel needs.
 */

#ifndef SPP_COMMON_INLINE_FN_HH
#define SPP_COMMON_INLINE_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace spp {

template <std::size_t Capacity>
class InlineFn
{
  public:
    InlineFn() = default;
    InlineFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InlineFn(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= Capacity,
                      "callable exceeds InlineFn capacity; grow the "
                      "capacity or shrink the capture list");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned callable");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
        ops_ = &opsFor<Fn>;
    }

    InlineFn(InlineFn &&other) noexcept { moveFrom(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()()
    {
        ops_->invoke(buf_);
    }

    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src); ///< Move + destroy src.
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *dst, void *src) {
            Fn *s = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { static_cast<Fn *>(p)->~Fn(); },
    };

    void
    moveFrom(InlineFn &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[Capacity];
    const Ops *ops_ = nullptr;
};

} // namespace spp

#endif // SPP_COMMON_INLINE_FN_HH
