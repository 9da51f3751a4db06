/**
 * @file
 * Ratio helpers shared by the result reports and bench harnesses.
 */

#pragma once

#include <vector>

#include "util/types.hpp"

namespace pccsim {

/** Safe ratio helper: returns 0 when the denominator is 0. */
inline double
ratio(u64 num, u64 den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/** Percentage helper built on ratio(). */
inline double
percent(u64 num, u64 den)
{
    return 100.0 * ratio(num, den);
}

/** Geometric mean of a vector of positive values (1.0 for empty input). */
double geomean(const std::vector<double> &values);

} // namespace pccsim
