// servicebench_selftest: shows that each of the benchmark's output
// checks accepts a right answer and rejects a wrong one. The answers
// come from a small real service; the wrong ones are those answers
// moved just past what each check allows.
//
//   python3 servicebench/run.py --self-test

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "checks.h"
#include "core/privacy_loss.h"
#include "linalg/matrix.h"
#include "markov/stochastic_matrix.h"
#include "reference.h"
#include "server/sharded_service.h"

namespace servicebench {
namespace {

using tcdp::Status;
using tcdp::server::ShardedReleaseService;
using tcdp::server::UserReport;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}
void ExpectAccepted(const Status& status, const std::string& what) {
  Expect(status.ok(), what + (status.ok() ? "" : ": " + status.ToString()));
}
void ExpectRejected(const Status& status, const std::string& what) {
  Expect(!status.ok(), what + (status.ok() ? " was accepted" : ""));
}

tcdp::StochasticMatrix Matrix(const std::vector<double>& rows, std::size_t n) {
  return tcdp::StochasticMatrix::Create(
             tcdp::Matrix::FromFlat(n, n, rows).value())
      .value();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A durable one-user service; returns the user's answer after
/// \p steps releases (budgets cycling through {0.1, 0.2, skip}).
UserReport RunService(const std::string& dir,
                      const tcdp::TemporalCorrelations& correlations,
                      std::size_t steps, std::vector<double>* sent) {
  tcdp::server::ShardedServiceOptions options;
  options.batch_window = 1;
  auto service = ShardedReleaseService::Create(dir, options).value();
  (void)service->Join("target", correlations);
  (void)service->Join("other", correlations);
  const double budgets[] = {0.1, 0.2, 0.0};
  for (std::size_t t = 0; t < steps; ++t) {
    const double eps = budgets[t % 3];
    // A skipped step still advances the global horizon: another user
    // releases.
    (void)service->Release(eps > 0.0 ? "target" : "other",
                           eps > 0.0 ? eps : 0.1);
    sent->push_back(eps);
  }
  (void)service->Flush();
  UserReport report = service->Query("target").value();
  (void)service->Close();
  return report;
}

int Main() {
  const std::size_t n = 4;
  const std::vector<double> backward = {0.7, 0.1, 0.1, 0.1,  //
                                        0.2, 0.5, 0.2, 0.1,  //
                                        0.1, 0.1, 0.6, 0.2,  //
                                        0.05, 0.15, 0.2, 0.6};
  const std::vector<double> forward = {0.6, 0.2, 0.1, 0.1,  //
                                       0.1, 0.7, 0.1, 0.1,  //
                                       0.3, 0.1, 0.5, 0.1,  //
                                       0.1, 0.1, 0.1, 0.7};
  const tcdp::StochasticMatrix b = Matrix(backward, n);
  const tcdp::StochasticMatrix f = Matrix(forward, n);
  const auto correlations = tcdp::TemporalCorrelations::Both(b, f).value();

  // The reference's L(alpha) is the paper's: within rounding of the
  // library's, and 0 <= L(alpha) <= alpha (Remark 1).
  {
    const ReferenceLoss loss(b.matrix().data(), n);
    const tcdp::TemporalLossFunction library(b);
    double worst = 0.0;
    bool bounded = true;
    for (double alpha : {1e-7, 0.01, 0.1, 0.5, 1.0, 2.0, 7.5, 31.0, 80.0}) {
      worst = std::max(worst, std::fabs(loss(alpha) - library.Evaluate(alpha)));
      bounded = bounded && loss(alpha) >= 0.0 && loss(alpha) <= alpha;
    }
    Expect(worst < 1e-12, "reference L(alpha) agrees with the library's");
    Expect(bounded, "reference L(alpha) lies in [0, alpha]");
  }

  const std::string root = ".bench_build/servicebench-selftest";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::size_t steps = 60;
  std::vector<double> sent;
  const UserReport report =
      RunService(root + "/primary", correlations, steps, &sent);
  const double resolution =
      tcdp::TemporalLossCache::Options().alpha_resolution;

  // Reference check.
  const ReferenceSeries reference = ReferenceRecurrences(
      ReferenceLoss(backward, n), ReferenceLoss(forward, n), sent);
  const double magnitude =
      *std::max_element(reference.tpl.begin(), reference.tpl.end());
  const Tolerance tolerance = ToleranceFor(resolution, steps, magnitude);
  ExpectAccepted(CheckAgainstReference(report, reference, tolerance),
                 "the service's TPL series matches the reference");
  {
    UserReport moved = report;
    moved.tpl_series[steps / 2] =
        reference.tpl[steps / 2] + tolerance.above * (1.0 + 1e-3);
    ExpectRejected(CheckAgainstReference(moved, reference, tolerance),
                   "a TPL value just above the tolerance is rejected");
    moved.tpl_series[steps / 2] =
        reference.tpl[steps / 2] - tolerance.below * (1.0 + 1e-3);
    ExpectRejected(CheckAgainstReference(moved, reference, tolerance),
                   "a TPL value just below the reference's rounding is "
                   "rejected");
    moved.tpl_series[steps / 2] =
        reference.tpl[steps / 2] + tolerance.above * 0.999;
    ExpectAccepted(CheckAgainstReference(moved, reference, tolerance),
                   "a TPL value just inside the tolerance is accepted");
  }

  // Properties.
  const double slack = tolerance.above;
  ExpectAccepted(CheckProperties(report, slack),
                 "the answer has the method's properties");
  {
    UserReport wrong = report;
    wrong.tpl_series[0] = std::nextafter(wrong.epsilons[0], 0.0);
    wrong.max_tpl = *std::max_element(wrong.tpl_series.begin(),
                                      wrong.tpl_series.end());
    ExpectRejected(CheckProperties(wrong, slack),
                   "TPL_t below eps_t is rejected");
    wrong = report;
    wrong.max_tpl = std::nextafter(report.max_tpl, 1e300);
    ExpectRejected(CheckProperties(wrong, slack),
                   "a max_tpl that is not the series max is rejected");
    wrong = report;
    wrong.user_level_tpl = report.max_tpl - 2.0 * slack;
    ExpectRejected(CheckProperties(wrong, slack),
                   "max_tpl above user_level_tpl is rejected");
  }
  {
    std::vector<double> bpl = reference.bpl;
    ExpectAccepted(CheckBplBound(bpl, sent, slack),
                   "the reference BPL stays under the running budget");
    bpl.back() = std::accumulate(sent.begin(), sent.end(), 0.0) + 2.0 * slack;
    ExpectRejected(CheckBplBound(bpl, sent, slack),
                   "a BPL above the running budget is rejected");
  }

  // Spend sequence and budget tally.
  double budget = 0.0;
  for (double eps : sent) budget += eps;
  ExpectAccepted(CheckSpends(report, sent, budget),
                 "the spend sequence equals the requests sent");
  {
    UserReport dropped = report;
    dropped.epsilons.erase(dropped.epsilons.begin() + 7);
    ExpectRejected(CheckSpends(dropped, sent, budget),
                   "an epsilons list with one entry dropped is rejected");
    UserReport shifted = report;
    shifted.epsilons[7] = std::nextafter(shifted.epsilons[7], 1.0);
    ExpectRejected(CheckSpends(shifted, sent, budget),
                   "an epsilons entry one ulp off is rejected");
    ExpectRejected(CheckSpends(report, sent, std::nextafter(budget, 1e300)),
                   "a user_level_tpl that differs from the tally is "
                   "rejected");
  }

  // Durability: bitwise equality of answers.
  ExpectAccepted(CheckSameReport(report, report), "an answer equals itself");
  {
    UserReport after = report;
    after.tpl_series[3] = std::nextafter(after.tpl_series[3], 1e300);
    ExpectRejected(CheckSameReport(report, after),
                   "an answer one ulp off after recovery is rejected");
  }

  // Replica bytes: a copy of the log matches; one flipped byte or a
  // missing file does not.
  {
    const std::string primary = root + "/primary";
    const std::string replica = root + "/replica";
    std::filesystem::copy(primary, replica);
    ExpectAccepted(CheckSameLogFiles(primary, replica, 1),
                   "a byte-identical replica is accepted");
    const std::string wal = replica + "/shard-0.wal";
    std::string bytes = Slurp(wal);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
    std::ofstream(wal, std::ios::binary | std::ios::trunc) << bytes;
    ExpectRejected(CheckSameLogFiles(primary, replica, 1),
                   "a follower file with one byte flipped is rejected");
    std::filesystem::remove(replica + "/MANIFEST");
    ExpectRejected(CheckSameLogFiles(primary, replica, 1),
                   "a follower without a MANIFEST is rejected");
  }

  ExpectAccepted(CheckCount("records", 7, 7), "equal counts are accepted");
  ExpectRejected(CheckCount("records", 7, 8),
                 "a count off by one is rejected");

  std::filesystem::remove_all(root);
  std::printf("selftest: %s\n", failures == 0 ? "all checks behave"
                                              : "some checks misbehave");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servicebench

int main() { return servicebench::Main(); }
