#ifndef SERVICEBENCH_WORKLOAD_H_
#define SERVICEBENCH_WORKLOAD_H_

/// \file
/// The benchmark's workloads: a seeded, fixed request stream per
/// workload, and the benchmark's own offline model of how the service's
/// window rule turns that stream into global releases.
///
/// The seed is an argument of the benchmark only. The program sees the
/// generated inputs: user names, correlation matrices, and the
/// Join / Release / Flush / Query requests.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/temporal_correlations.h"

namespace servicebench {

/// Make-up of one workload (README.md describes each).
struct WorkloadSpec {
  std::string name;
  std::size_t users = 0;
  std::size_t profiles = 0;     ///< distinct (P^B, P^F) pairs
  std::size_t n = 0;            ///< matrix domain size
  std::vector<double> eps_set;  ///< per-request budgets drawn from
  std::size_t shards = 1;
  std::size_t batch_window = 64;   ///< service micro-batch window
  std::size_t commit_size = 64;    ///< Release requests per commit batch
  std::size_t commits = 0;         ///< commit batches in the stream
  std::size_t sync_every = 0;      ///< WAL fdatasync policy
  std::size_t snapshot_every = 0;  ///< releases between shard snapshots
  /// Compact the primary's WAL once the follower has caught up (a
  /// compacted log cannot bootstrap a fresh follower).
  bool compact_after_catchup = false;
  std::size_t pipeline_depth = 32;
  /// A Query follows every this many commits during ingest (0: none).
  std::size_t query_every = 0;
  /// How a commit picks its requests' users and budgets.
  enum class Traffic {
    kRandom,         ///< random users at random budgets from eps_set
    kRotating,       ///< the next slice of a seeded rotation, eps_set[0]
    kCyclicBudgets,  ///< random users; budgets cycle through eps_set
  };
  Traffic traffic = Traffic::kRandom;
  /// Users whose series are checked against the reference per run.
  std::size_t reference_users = 4;
};

tcdp::StatusOr<WorkloadSpec> SpecFor(const std::string& name);

struct ReleaseRequest {
  std::uint32_t user = 0;
  double epsilon = 0.0;
};

/// One closed-loop commit batch: the releases, then one Flush.
struct Commit {
  std::vector<ReleaseRequest> releases;
  /// User queried right after this commit's Flush, or -1.
  std::int64_t query_user = -1;
};

/// A profile's matrices as the generator made them (row-major), kept
/// beside the library objects so the reference reads plain numbers.
struct Profile {
  std::vector<double> backward;
  std::vector<double> forward;
  tcdp::TemporalCorrelations correlations = tcdp::TemporalCorrelations::None();
};

struct Workload {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  std::vector<Profile> profiles;
  std::vector<std::uint32_t> user_profile;
  std::vector<std::string> names;
  std::vector<Commit> commits;
  /// Users whose series the reference check recomputes.
  std::vector<std::uint32_t> reference_sample;

  std::size_t release_requests() const;
};

/// Builds the workload's stream from \p seed; the same seed gives the
/// same stream, bit for bit.
tcdp::StatusOr<Workload> MakeWorkload(const std::string& name,
                                      std::uint64_t seed);

/// The benchmark's own reading of the stream under the service's window
/// rule: every `batch_window` requests (joins and releases alike), and
/// every Flush / Query, close a window; a closing window dispatches one
/// global release per distinct budget, in first-seen order, and a user
/// participates at most once per (window, budget).
struct StreamModel {
  std::vector<double> schedule;  ///< budget of each global release
  /// Per user: the global releases it participates in, ascending.
  std::vector<std::vector<std::uint32_t>> user_releases;
  /// Windows that dispatched anything (joins or releases).
  std::size_t ticks = 0;
  std::vector<std::size_t> users_per_shard;
  /// Global releases dispatched once commit c's Flush returned.
  std::vector<std::size_t> horizon_after_commit;

  std::size_t horizon() const { return schedule.size(); }
  /// The user's spend sequence over the first \p steps global
  /// releases: schedule[t] where it participates, 0 elsewhere (every
  /// user joins before the first release).
  std::vector<double> SpendsOf(std::uint32_t user, std::size_t steps) const;
  /// The user's budget over the first \p steps releases, summed in
  /// release order.
  double BudgetOf(std::uint32_t user, std::size_t steps) const;
  /// Logical WAL records of \p shard: manifest + joins + releases.
  std::uint64_t WalRecords(std::size_t shard) const;
};

StreamModel ModelStream(const Workload& workload);

}  // namespace servicebench

#endif  // SERVICEBENCH_WORKLOAD_H_
