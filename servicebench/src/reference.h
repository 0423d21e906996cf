#ifndef SERVICEBENCH_REFERENCE_H_
#define SERVICEBENCH_REFERENCE_H_

/// \file
/// An implementation of the paper's quantities written apart from
/// src/core, so the benchmark can check the service's answers.
///
///  * L(alpha) (Eq. 23/24): for every ordered pair of distinct rows
///    (q, d), Theorem 4 says the maximizing subset is a threshold set
///    on the ratio q_j / d_j, i.e. a prefix of the coordinates with
///    q_j > d_j sorted by that ratio, descending. L is the max over
///    all pairs and prefixes of log((q_hat(e^a - 1) + 1) /
///    (d_hat(e^a - 1) + 1)), and 0 when no pair gains.
///  * BPL_t = L^B(BPL_{t-1}) + eps_t (Eq. 13), FPL_t = L^F(FPL_{t+1})
///    + eps_t (Eq. 15), TPL_t = BPL_t + FPL_t - eps_t (Eq. 10).
///
/// The prefix points (q_hat, d_hat) do not depend on alpha, so they
/// are built once per matrix.

#include <cstddef>
#include <vector>

namespace servicebench {

class ReferenceLoss {
 public:
  /// \p rows is an n x n row-stochastic matrix, row-major.
  ReferenceLoss(const std::vector<double>& rows, std::size_t n);

  /// L(alpha) for alpha >= 0.
  double operator()(double alpha) const;

 private:
  struct Point {
    double q;
    double d;
  };
  std::vector<Point> points_;  ///< every pair's prefix sums
};

/// log(c (e^alpha - 1) + 1) for c in [0, 1], alpha >= 0.
double LogAffineExp(double c, double alpha);

struct ReferenceSeries {
  std::vector<double> bpl;
  std::vector<double> fpl;
  std::vector<double> tpl;
};

ReferenceSeries ReferenceRecurrences(const ReferenceLoss& backward,
                                     const ReferenceLoss& forward,
                                     const std::vector<double>& spends);

}  // namespace servicebench

#endif  // SERVICEBENCH_REFERENCE_H_
