/**
 * @file
 * Lightweight statistics primitives: plain value types that
 * subsystems own and benches, telemetry and the result codec read
 * directly.
 */

#ifndef SPP_COMMON_STATS_HH
#define SPP_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>

namespace spp {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter &
    operator+=(std::uint64_t n)
    {
        value_ += n;
        return *this;
    }

    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /**
     * Read the current value and replace it with @p new_value
     * (default 0) in one step.
     */
    std::uint64_t
    exchange(std::uint64_t new_value = 0)
    {
        const std::uint64_t old = value_;
        value_ = new_value;
        return old;
    }

  private:
    std::uint64_t value_ = 0;
};

/** Running sum / count with mean. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        max_ = std::max(max_, v);
        min_ = count_ == 1 ? v : std::min(min_, v);
    }

    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }
    double max() const { return max_; }
    double min() const { return min_; }

    void
    reset()
    {
        sum_ = 0;
        count_ = 0;
        max_ = 0;
        min_ = 0;
    }

    /** Rebuild from serialized parts (result-store warm path); the
     * restored object answers mean()/sum()/... exactly as the
     * original did. */
    void
    restore(double sum, std::uint64_t count, double max, double min)
    {
        sum_ = sum;
        count_ = count;
        max_ = max;
        min_ = min;
    }

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
    double max_ = 0;
    double min_ = 0;
};

} // namespace spp

#endif // SPP_COMMON_STATS_HH
