/**
 * @file
 * Minimal C++20 coroutine generator.
 *
 * Workloads are written as ordinary algorithmic code. Their lanes
 * (Workload::batchLane) fill an access buffer and co_yield a BatchEnd
 * at buffer-full and at barriers; the System resumes each lane through
 * this generator, which makes multi-threaded interleaving (and barrier
 * synchronization) deterministic without OS threads. Workload::lane()
 * wraps the same stream as a generator of one AccessOp per yield, the
 * per-op view offline analyses read.
 */

#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace pccsim {

template <typename T>
class Generator
{
  public:
    struct promise_type
    {
        T current{};

        Generator
        get_return_object()
        {
            return Generator{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }

        std::suspend_always
        yield_value(T value) noexcept
        {
            current = value;
            return {};
        }

        void return_void() noexcept {}
        void unhandled_exception() { std::terminate(); }
    };

    Generator() = default;

    explicit Generator(std::coroutine_handle<promise_type> handle)
        : handle_(handle)
    {
    }

    Generator(Generator &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {
    }

    Generator &
    operator=(Generator &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    ~Generator() { destroy(); }

    /** Advance to the next yielded value; false when exhausted. */
    bool
    next()
    {
        if (!handle_ || handle_.done())
            return false;
        handle_.resume();
        return !handle_.done();
    }

    /** The value yielded by the last successful next(). */
    const T &value() const { return handle_.promise().current; }

    bool valid() const { return static_cast<bool>(handle_); }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_;
};

} // namespace pccsim
