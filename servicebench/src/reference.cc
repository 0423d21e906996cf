#include "reference.h"

#include <algorithm>
#include <cmath>

namespace servicebench {

double LogAffineExp(double c, double alpha) {
  if (c <= 0.0 || alpha <= 0.0) return 0.0;
  if (alpha < 1.0) return std::log1p(c * std::expm1(alpha));
  // c e^a + (1 - c) = e^a (c + (1 - c) e^-a): no overflow for large a.
  return alpha + std::log(c + (1.0 - c) * std::exp(-alpha));
}

ReferenceLoss::ReferenceLoss(const std::vector<double>& rows, std::size_t n) {
  std::vector<std::size_t> order;
  for (std::size_t a = 0; a < n; ++a) {
    const double* q = rows.data() + a * n;
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const double* d = rows.data() + b * n;
      order.clear();
      for (std::size_t j = 0; j < n; ++j) {
        if (q[j] > d[j]) order.push_back(j);
      }
      // Ratio q_j / d_j descending, compared by cross products; d_j = 0
      // is an infinite ratio and comes first.
      std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
        if ((d[x] == 0.0) != (d[y] == 0.0)) return d[x] == 0.0;
        return q[x] * d[y] > q[y] * d[x];
      });
      double q_hat = 0.0;
      double d_hat = 0.0;
      for (std::size_t j : order) {
        q_hat += q[j];
        d_hat += d[j];
        points_.push_back(Point{q_hat, d_hat});
      }
    }
  }
}

double ReferenceLoss::operator()(double alpha) const {
  double best = 0.0;
  for (const Point& p : points_) {
    best = std::max(best, LogAffineExp(p.q, alpha) - LogAffineExp(p.d, alpha));
  }
  return best;
}

ReferenceSeries ReferenceRecurrences(const ReferenceLoss& backward,
                                     const ReferenceLoss& forward,
                                     const std::vector<double>& spends) {
  const std::size_t horizon = spends.size();
  ReferenceSeries s;
  s.bpl.resize(horizon);
  s.fpl.resize(horizon);
  s.tpl.resize(horizon);
  double prev = 0.0;
  for (std::size_t t = 0; t < horizon; ++t) {
    prev = backward(prev) + spends[t];
    s.bpl[t] = prev;
  }
  double next = 0.0;
  for (std::size_t t = horizon; t-- > 0;) {
    next = forward(next) + spends[t];
    s.fpl[t] = next;
  }
  for (std::size_t t = 0; t < horizon; ++t) {
    s.tpl[t] = s.bpl[t] + s.fpl[t] - spends[t];
  }
  return s;
}

}  // namespace servicebench
