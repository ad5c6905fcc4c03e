/**
 * @file
 * Small-buffer-optimized move-only callable, the event-kernel
 * replacement for std::function. Closures whose captures fit the inline
 * buffer (48 bytes by default) are stored in place — scheduling an event
 * performs no heap allocation — and trivially copyable closures move by
 * plain memcpy, which keeps the event kernel's action slab cheap.
 * Oversized or non-nothrow-movable callables fall back to a single heap
 * allocation, preserving std::function generality.
 */

#ifndef RIF_COMMON_INLINE_FUNCTION_H
#define RIF_COMMON_INLINE_FUNCTION_H

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace rif {

/** Default inline capacity: every closure of the SSD model fits. */
inline constexpr std::size_t kInlineFunctionCapacity = 48;

template <typename Signature,
          std::size_t Capacity = kInlineFunctionCapacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f)
    {
        assign(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction &
    operator=(F &&f)
    {
        reset();
        assign(std::forward<F>(f));
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const { return invoke_ != nullptr; }

    R
    operator()(Args... args)
    {
        return invoke_(buf_, std::forward<Args>(args)...);
    }

    /** Destroy the held callable (no-op when empty). */
    void
    reset()
    {
        if (manage_ != nullptr)
            manage_(buf_, nullptr, Op::Destroy);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

  private:
    enum class Op
    {
        Destroy, ///< destroy the callable living in `dst`
        Move,    ///< move-construct `dst` from `src`, destroying `src`
    };

    using Invoke = R (*)(void *, Args...);
    using Manage = void (*)(void *dst, void *src, Op op);

    template <typename D>
    static constexpr bool kFitsInline =
        sizeof(D) <= Capacity &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename F>
    void
    assign(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (kFitsInline<D>) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            invoke_ = [](void *b, Args... args) -> R {
                return (*std::launder(reinterpret_cast<D *>(b)))(
                    std::forward<Args>(args)...);
            };
            // Trivially copyable callables keep manage_ null: moving the
            // wrapper is a raw memcpy and destruction is a no-op — the
            // hot path for pointer-capturing simulation lambdas.
            if constexpr (!std::is_trivially_copyable_v<D> ||
                          !std::is_trivially_destructible_v<D>) {
                manage_ = &inlineManager<D>;
            }
        } else {
            ::new (static_cast<void *>(buf_))
                (D *)(new D(std::forward<F>(f)));
            invoke_ = [](void *b, Args... args) -> R {
                return (**std::launder(reinterpret_cast<D **>(b)))(
                    std::forward<Args>(args)...);
            };
            manage_ = &heapManager<D>;
        }
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        if (invoke_ != nullptr) {
            if (manage_ != nullptr)
                manage_(buf_, other.buf_, Op::Move);
            else
                std::memcpy(buf_, other.buf_, Capacity);
        }
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
    }

    template <typename D>
    static void
    inlineManager(void *dst, void *src, Op op)
    {
        if (op == Op::Move) {
            ::new (dst)
                D(std::move(*std::launder(reinterpret_cast<D *>(src))));
            std::launder(reinterpret_cast<D *>(src))->~D();
        } else {
            std::launder(reinterpret_cast<D *>(dst))->~D();
        }
    }

    template <typename D>
    static void
    heapManager(void *dst, void *src, Op op)
    {
        if (op == Op::Move)
            std::memcpy(dst, src, sizeof(D *));
        else
            delete *std::launder(reinterpret_cast<D **>(dst));
    }

    alignas(std::max_align_t) unsigned char buf_[Capacity];
    Invoke invoke_ = nullptr;
    Manage manage_ = nullptr;
};

} // namespace rif

#endif // RIF_COMMON_INLINE_FUNCTION_H
