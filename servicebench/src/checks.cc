#include "checks.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

namespace servicebench {
namespace {

/// Rounding allowed per recurrence step, relative to the series'
/// magnitude: the service and the reference sum prefixes in their own
/// order and use different log/exp formulations, which differ by a few
/// ulps per evaluation.
constexpr double kStepRounding = 1e-12;

tcdp::Status Fail(const std::string& what) {
  return tcdp::Status::FailedPrecondition(what);
}

std::string Num(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

tcdp::StatusOr<std::string> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return tcdp::Status::NotFound("cannot read " + path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

Tolerance ToleranceFor(double alpha_resolution, std::size_t horizon,
                       double magnitude) {
  const double steps = static_cast<double>(horizon) + 1.0;
  Tolerance tolerance;
  tolerance.below = steps * kStepRounding * (1.0 + magnitude);
  tolerance.above = steps * alpha_resolution + tolerance.below;
  return tolerance;
}

tcdp::Status CheckAgainstReference(const tcdp::server::UserReport& report,
                                   const ReferenceSeries& reference,
                                   const Tolerance& tolerance) {
  if (report.tpl_series.size() != reference.tpl.size()) {
    return Fail(report.name + ": TPL series has " +
                std::to_string(report.tpl_series.size()) +
                " steps, the reference " +
                std::to_string(reference.tpl.size()));
  }
  auto within = [&](double service, double ref) {
    return service - ref <= tolerance.above && ref - service <= tolerance.below;
  };
  for (std::size_t t = 0; t < reference.tpl.size(); ++t) {
    if (!within(report.tpl_series[t], reference.tpl[t])) {
      return Fail(report.name + ": TPL_" + std::to_string(t + 1) + " = " +
                  Num(report.tpl_series[t]) + ", reference " +
                  Num(reference.tpl[t]) + " (allowed +" +
                  Num(tolerance.above) + " / -" + Num(tolerance.below) + ")");
    }
  }
  const double ref_max =
      reference.tpl.empty()
          ? 0.0
          : *std::max_element(reference.tpl.begin(), reference.tpl.end());
  if (!within(report.max_tpl, ref_max)) {
    return Fail(report.name + ": max_tpl = " + Num(report.max_tpl) +
                ", reference " + Num(ref_max));
  }
  return tcdp::Status::OK();
}

tcdp::Status CheckProperties(const tcdp::server::UserReport& report,
                             double slack) {
  const std::vector<double>& tpl = report.tpl_series;
  if (tpl.size() != report.epsilons.size() || tpl.size() != report.horizon) {
    return Fail(report.name + ": series lengths disagree with the horizon");
  }
  double budget = 0.0;
  double series_max = 0.0;
  for (std::size_t t = 0; t < tpl.size(); ++t) {
    if (!(tpl[t] >= report.epsilons[t])) {
      return Fail(report.name + ": TPL_" + std::to_string(t + 1) + " = " +
                  Num(tpl[t]) + " < eps_t = " + Num(report.epsilons[t]));
    }
    budget += report.epsilons[t];
    series_max = std::max(series_max, tpl[t]);
  }
  if (!SameBits(report.max_tpl, series_max)) {
    return Fail(report.name + ": max_tpl = " + Num(report.max_tpl) +
                " is not the series max " + Num(series_max));
  }
  if (report.max_tpl > report.user_level_tpl + slack) {
    return Fail(report.name + ": max_tpl = " + Num(report.max_tpl) +
                " > user_level_tpl = " + Num(report.user_level_tpl));
  }
  if (!tpl.empty() && tpl.back() > budget + slack) {
    return Fail(report.name + ": BPL_T = " + Num(tpl.back()) +
                " > running budget " + Num(budget));
  }
  return tcdp::Status::OK();
}

tcdp::Status CheckBplBound(const std::vector<double>& bpl,
                           const std::vector<double>& spends, double slack) {
  if (bpl.size() != spends.size()) {
    return Fail("BPL series and spend sequence differ in length");
  }
  double budget = 0.0;
  for (std::size_t t = 0; t < bpl.size(); ++t) {
    budget += spends[t];
    if (bpl[t] > budget + slack) {
      return Fail("BPL_" + std::to_string(t + 1) + " = " + Num(bpl[t]) +
                  " > running budget " + Num(budget));
    }
  }
  return tcdp::Status::OK();
}

tcdp::Status CheckSpends(const tcdp::server::UserReport& report,
                         const std::vector<double>& expected, double budget) {
  if (report.epsilons.size() != expected.size()) {
    return Fail(report.name + ": " + std::to_string(report.epsilons.size()) +
                " spends, expected " + std::to_string(expected.size()));
  }
  for (std::size_t t = 0; t < expected.size(); ++t) {
    if (!SameBits(report.epsilons[t], expected[t])) {
      return Fail(report.name + ": spend " + std::to_string(t + 1) + " = " +
                  Num(report.epsilons[t]) + ", expected " + Num(expected[t]));
    }
  }
  if (!SameBits(report.user_level_tpl, budget)) {
    return Fail(report.name + ": user_level_tpl = " +
                Num(report.user_level_tpl) + ", the benchmark's tally " +
                Num(budget));
  }
  return tcdp::Status::OK();
}

tcdp::Status CheckSameReport(const tcdp::server::UserReport& before,
                             const tcdp::server::UserReport& after) {
  if (before.name != after.name || before.shard != after.shard ||
      before.join_release != after.join_release ||
      before.horizon != after.horizon ||
      !SameBits(before.max_tpl, after.max_tpl) ||
      !SameBits(before.user_level_tpl, after.user_level_tpl) ||
      !SameBits(before.epsilons, after.epsilons) ||
      !SameBits(before.tpl_series, after.tpl_series)) {
    return Fail(before.name + ": the answer after recovery differs from the "
                "answer before Close");
  }
  return tcdp::Status::OK();
}

tcdp::Status CheckSameLogFiles(const std::string& primary_dir,
                               const std::string& replica_dir,
                               std::size_t shards) {
  std::vector<std::string> files = {"MANIFEST"};
  for (std::size_t s = 0; s < shards; ++s) {
    files.push_back("shard-" + std::to_string(s) + ".wal");
  }
  for (const std::string& file : files) {
    TCDP_ASSIGN_OR_RETURN(std::string primary,
                          ReadBytes(primary_dir + "/" + file));
    auto replica = ReadBytes(replica_dir + "/" + file);
    if (!replica.ok()) return Fail("replica lacks " + file);
    if (primary != *replica) {
      return Fail("replica " + file + " differs from the primary's (" +
                  std::to_string(replica->size()) + " vs " +
                  std::to_string(primary.size()) + " bytes)");
    }
  }
  return tcdp::Status::OK();
}

tcdp::Status CheckCount(const std::string& label, std::uint64_t actual,
                        std::uint64_t expected) {
  if (actual != expected) {
    return Fail(label + " = " + std::to_string(actual) + ", expected " +
                std::to_string(expected));
  }
  return tcdp::Status::OK();
}

}  // namespace servicebench
