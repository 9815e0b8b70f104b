/**
 * @file
 * Exact division by a runtime-invariant 64-bit divisor without a
 * hardware divide (Lemire, Kaser & Kurz 2019, "Faster remainder by
 * direct computation"). With M = ceil(2^128 / d), n / d is the high 64
 * bits of the 192-bit product n * M for every 64-bit n, because the
 * 128 fractional bits cover the 64 bits of n plus the 64 bits of d.
 * Built once per divisor, it replaces a division that would otherwise
 * run once per simulated address.
 */

#ifndef SCALESIM_COMMON_DIVIDER_HH
#define SCALESIM_COMMON_DIVIDER_HH

#include <cstdint>

#include "common/log.hpp"

namespace scalesim
{

/** Precomputed reciprocal of one non-zero 64-bit divisor. */
class Divider
{
  public:
    /** d = 1 keeps its identity quotient; d = 0 panics. */
    explicit Divider(std::uint64_t d = 1) : d_(d)
    {
        if (d == 0)
            panic("Divider: division by zero");
        // ceil(2^128 / d) = floor((2^128 - 1) / d) + 1, which wraps to
        // 0 for d = 1; div() adds n back through oneMask_ then.
        const u128 m = ~static_cast<u128>(0) / d + 1;
        mLo_ = static_cast<std::uint64_t>(m);
        mHi_ = static_cast<std::uint64_t>(m >> 64);
        oneMask_ = d == 1 ? ~std::uint64_t{0} : 0;
    }

    std::uint64_t divisor() const { return d_; }

    /** n / d, exact for every 64-bit n. */
    std::uint64_t
    div(std::uint64_t n) const
    {
        // floor(n * M / 2^128) from two 64x64->128 products; the sum
        // stays below 2^128.
        const u128 lo = static_cast<u128>(n) * mLo_;
        const u128 hi = static_cast<u128>(n) * mHi_ + (lo >> 64);
        return static_cast<std::uint64_t>(hi >> 64) + (n & oneMask_);
    }

    /** n % d, exact for every 64-bit n. */
    std::uint64_t mod(std::uint64_t n) const { return n - div(n) * d_; }

  private:
    using u128 = unsigned __int128;

    std::uint64_t d_;
    std::uint64_t mLo_ = 0;
    std::uint64_t mHi_ = 0;
    std::uint64_t oneMask_ = 0;
};

} // namespace scalesim

#endif // SCALESIM_COMMON_DIVIDER_HH
