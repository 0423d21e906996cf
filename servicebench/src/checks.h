#ifndef SERVICEBENCH_CHECKS_H_
#define SERVICEBENCH_CHECKS_H_

/// \file
/// The benchmark's output checks. Each returns OK or a
/// FailedPrecondition naming the first disagreement; selftest.cc shows
/// that each one rejects a wrong answer.

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "reference.h"
#include "server/sharded_service.h"

namespace servicebench {

/// How far the service's series may sit from the reference. The cache
/// evaluates L at the grid point at or above alpha, at most
/// `alpha_resolution` higher; L is nondecreasing with slope at most 1,
/// so each step of a recurrence can add at most one resolution step,
/// and the service may never read below the reference beyond
/// floating-point rounding. Over a horizon T, TPL_t collects the BPL
/// steps up to t and the FPL steps from t, T + 1 in all.
struct Tolerance {
  double above = 0.0;  ///< service - reference may reach this
  double below = 0.0;  ///< reference - service may reach this
};
/// \p magnitude bounds the series values (rounding is relative).
Tolerance ToleranceFor(double alpha_resolution, std::size_t horizon,
                       double magnitude);

/// The report's TPL series and max_tpl against the reference.
tcdp::Status CheckAgainstReference(const tcdp::server::UserReport& report,
                                   const ReferenceSeries& reference,
                                   const Tolerance& tolerance);

/// Properties every answer must have: TPL_t >= eps_t; max_tpl is the
/// series' max and at most user_level_tpl (+ \p slack); the last step's
/// TPL (which is BPL_T, as FPL_T = eps_T) is at most the running
/// budget (+ \p slack).
tcdp::Status CheckProperties(const tcdp::server::UserReport& report,
                             double slack);

/// BPL_t <= sum_{s <= t} eps_s (+ \p slack) at every step (Remark 1).
tcdp::Status CheckBplBound(const std::vector<double>& bpl,
                           const std::vector<double>& spends, double slack);

/// The report's spend sequence equals \p expected exactly, and its
/// user_level_tpl equals \p budget exactly.
tcdp::Status CheckSpends(const tcdp::server::UserReport& report,
                         const std::vector<double>& expected, double budget);

/// Bitwise equality of two answers (durability check).
tcdp::Status CheckSameReport(const tcdp::server::UserReport& before,
                             const tcdp::server::UserReport& after);

/// MANIFEST and every shard-<i>.wal of \p primary_dir are byte-identical
/// in \p replica_dir.
tcdp::Status CheckSameLogFiles(const std::string& primary_dir,
                               const std::string& replica_dir,
                               std::size_t shards);

/// \p label: \p actual == \p expected.
tcdp::Status CheckCount(const std::string& label, std::uint64_t actual,
                        std::uint64_t expected);

}  // namespace servicebench

#endif  // SERVICEBENCH_CHECKS_H_
