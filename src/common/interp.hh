/**
 * @file
 * Monotone piecewise-cubic interpolation (Fritsch-Carlson / PCHIP).
 *
 * The circuit model calibrates bitcell delays at 25 mV steps; queries in
 * between must stay monotone (a non-monotone interpolant could invent a
 * voltage where write delay *decreases* as Vcc drops, which is
 * physically impossible and would corrupt the cycle-time solver).
 */

#ifndef IRAW_COMMON_INTERP_HH
#define IRAW_COMMON_INTERP_HH

#include <cstddef>
#include <vector>

namespace iraw {

/**
 * Monotonicity-preserving cubic Hermite interpolant over a strictly
 * increasing abscissa grid.
 */
class MonotoneCubic
{
  public:
    MonotoneCubic() = default;

    /**
     * Build the interpolant.
     * @param xs strictly increasing sample abscissae (>= 2 points)
     * @param ys sample ordinates, one per abscissa
     */
    MonotoneCubic(std::vector<double> xs, std::vector<double> ys);

    /**
     * Evaluate at @p x.  Outside [xs.front(), xs.back()] the value is
     * extrapolated linearly using the boundary slope.
     */
    double eval(double x) const;

    /** First derivative at @p x (piecewise; boundary slope outside). */
    double derivative(double x) const;

    bool valid() const { return xs_.size() >= 2; }

  private:
    size_t findInterval(double x) const;

    std::vector<double> xs_;
    std::vector<double> ys_;
    std::vector<double> slopes_; // Hermite tangents, one per knot
};

} // namespace iraw

#endif // IRAW_COMMON_INTERP_HH
