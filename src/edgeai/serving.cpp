#include "edgeai/serving.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace sixg::edgeai {

double ServingStudy::Report::within(Duration budget) const {
  if (!e2e_samples_ms.empty()) {
    SIXG_ASSERT(sorted_e2e_ms_.size() == e2e_samples_ms.size(),
                "within() needs finalize() after hand-filling e2e_samples_ms");
    const auto end = std::upper_bound(sorted_e2e_ms_.begin(),
                                      sorted_e2e_ms_.end(), budget.ms());
    return double(end - sorted_e2e_ms_.begin()) /
           double(sorted_e2e_ms_.size());
  }
  // Streamed report: answer from the histogram CDF (interpolated inside
  // the containing bin — approximate at sub-bin granularity). Budgets at
  // or beyond the histogram range clamp to the range end: overflow
  // samples sit somewhere above the range, so this is the sharpest
  // LOWER bound available, never a fabricated 100 %.
  if (e2e_hist && e2e_hist->count() > 0) {
    const double hi = e2e_hist->bin_hi(e2e_hist->bin_count() - 1);
    return e2e_hist->cdf(std::min(budget.ms(), hi));
  }
  return 0.0;
}

void ServingStudy::Report::finalize() {
  sorted_e2e_ms_ = e2e_samples_ms;
  std::sort(sorted_e2e_ms_.begin(), sorted_e2e_ms_.end());
}

double ArrivalShape::rate_multiplier(Duration since_start) const {
  double m = 1.0;
  if (diurnal_amplitude > 0.0 && !diurnal_period.is_zero()) {
    // Triangle wave on the phase in [0, 1): -1 at phase 0 (trough), +1
    // at 0.5 (peak). Integer modulo keeps the phase exact over long
    // runs; the wave itself is two FP ops, no libm.
    const double phase = double(since_start.ns() % diurnal_period.ns()) /
                         double(diurnal_period.ns());
    const double tri =
        1.0 - 4.0 * (phase < 0.5 ? 0.5 - phase : phase - 0.5);
    m = 1.0 + diurnal_amplitude * tri;
  }
  if (flash_multiplier != 1.0 && !flash_every.is_zero() &&
      !flash_duration.is_zero()) {
    if (since_start.ns() % flash_every.ns() < flash_duration.ns()) {
      m *= flash_multiplier;
    }
  }
  return m;
}

}  // namespace sixg::edgeai
