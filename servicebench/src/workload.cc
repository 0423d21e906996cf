#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "linalg/matrix.h"
#include "markov/stochastic_matrix.h"
#include "server/sharded_service.h"

namespace servicebench {
namespace {

/// SplitMix64: small, fully specified, so a seed means the same stream
/// on every standard library.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint32_t Below(std::size_t bound) {
    return static_cast<std::uint32_t>(Next() % bound);
  }

 private:
  std::uint64_t state_;
};

std::uint64_t NameHash(const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// A random row-stochastic matrix: entries uniform in [0, 1), each row
/// normalized.
tcdp::StatusOr<tcdp::StochasticMatrix> RandomMatrix(std::size_t n,
                                                    SeededRng* rng) {
  tcdp::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      m.At(r, c) = rng->Unit();
      sum += m.At(r, c);
    }
    for (std::size_t c = 0; c < n; ++c) m.At(r, c) /= sum;
  }
  return tcdp::StochasticMatrix::Create(std::move(m));
}

}  // namespace

tcdp::StatusOr<WorkloadSpec> SpecFor(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "hetero-loss") {
    spec.users = 1024;
    spec.profiles = 16;
    spec.n = 16;
    spec.eps_set = {0.05, 0.1, 0.2};
    spec.shards = 2;
    spec.batch_window = 16;
    spec.commit_size = 16;
    spec.commits = 256;
    spec.sync_every = 0;
    spec.pipeline_depth = 32;
    spec.reference_users = 6;
  } else if (name == "uniform-fsync") {
    spec.users = 1024;
    spec.profiles = 1;
    spec.n = 16;
    spec.eps_set = {0.1};
    spec.shards = 2;
    spec.batch_window = 64;
    spec.commit_size = 64;
    spec.commits = 1024;
    spec.sync_every = 1;
    spec.pipeline_depth = 32;
    spec.traffic = WorkloadSpec::Traffic::kRotating;
    spec.reference_users = 4;
  } else if (name == "long-horizon-mixed") {
    spec.users = 256;
    spec.profiles = 16;
    spec.n = 16;
    spec.eps_set = {0.05, 0.1, 0.2};
    spec.shards = 1;
    spec.batch_window = 4;
    spec.commit_size = 4;
    spec.commits = 1200;
    spec.sync_every = 0;
    spec.snapshot_every = 1000;
    spec.compact_after_catchup = true;
    spec.pipeline_depth = 4;
    spec.traffic = WorkloadSpec::Traffic::kCyclicBudgets;
    spec.query_every = 8;
    spec.reference_users = 2;
  } else {
    return tcdp::Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return spec;
}

std::size_t Workload::release_requests() const {
  std::size_t total = 0;
  for (const Commit& commit : commits) total += commit.releases.size();
  return total;
}

tcdp::StatusOr<Workload> MakeWorkload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  TCDP_ASSIGN_OR_RETURN(w.spec, SpecFor(name));
  w.seed = seed;
  const WorkloadSpec& spec = w.spec;
  // The profiles are a fixed catalogue per workload and users are
  // spread evenly over them; the seed draws the request stream.
  SeededRng catalogue(NameHash(name));
  SeededRng rng(seed ^ NameHash(name));

  for (std::size_t p = 0; p < spec.profiles; ++p) {
    TCDP_ASSIGN_OR_RETURN(tcdp::StochasticMatrix backward,
                          RandomMatrix(spec.n, &catalogue));
    TCDP_ASSIGN_OR_RETURN(tcdp::StochasticMatrix forward,
                          RandomMatrix(spec.n, &catalogue));
    Profile profile;
    // The reference reads the normalized entries the service receives.
    profile.backward = backward.matrix().data();
    profile.forward = forward.matrix().data();
    TCDP_ASSIGN_OR_RETURN(
        profile.correlations,
        tcdp::TemporalCorrelations::Both(std::move(backward),
                                         std::move(forward)));
    w.profiles.push_back(std::move(profile));
  }

  w.user_profile.resize(spec.users);
  w.names.resize(spec.users);
  for (std::size_t u = 0; u < spec.users; ++u) {
    // Even cohorts: user u holds profile u mod P.
    w.user_profile[u] = static_cast<std::uint32_t>(u % spec.profiles);
    char name_buf[32];
    std::snprintf(name_buf, sizeof(name_buf), "u%05zu", u);
    w.names[u] = name_buf;
  }

  // The rotation order of kRotating: a seeded permutation of users.
  std::vector<std::uint32_t> rotation(spec.users);
  for (std::uint32_t u = 0; u < spec.users; ++u) rotation[u] = u;
  for (std::size_t i = spec.users; i > 1; --i) {
    std::swap(rotation[i - 1], rotation[rng.Below(i)]);
  }
  using Traffic = WorkloadSpec::Traffic;
  w.commits.resize(spec.commits);
  for (std::size_t c = 0; c < spec.commits; ++c) {
    Commit& commit = w.commits[c];
    commit.releases.resize(spec.commit_size);
    for (std::size_t i = 0; i < spec.commit_size; ++i) {
      ReleaseRequest& request = commit.releases[i];
      const std::size_t position = c * spec.commit_size + i;
      switch (spec.traffic) {
        case Traffic::kRandom:
          request.user = rng.Below(spec.users);
          request.epsilon = spec.eps_set[rng.Below(spec.eps_set.size())];
          break;
        case Traffic::kRotating:
          request.user = rotation[position % spec.users];
          request.epsilon = spec.eps_set[0];
          break;
        case Traffic::kCyclicBudgets:
          request.user = rng.Below(spec.users);
          request.epsilon = spec.eps_set[position % spec.eps_set.size()];
          break;
      }
    }
    if (spec.query_every > 0 && (c + 1) % spec.query_every == 0) {
      commit.query_user = rng.Below(spec.users);
    }
  }

  while (w.reference_sample.size() < spec.reference_users) {
    const std::uint32_t user = rng.Below(spec.users);
    if (std::find(w.reference_sample.begin(), w.reference_sample.end(),
                  user) == w.reference_sample.end()) {
      w.reference_sample.push_back(user);
    }
  }
  return w;
}

std::vector<double> StreamModel::SpendsOf(std::uint32_t user,
                                          std::size_t steps) const {
  std::vector<double> spends(steps, 0.0);
  for (std::uint32_t t : user_releases[user]) {
    if (t < steps) spends[t] = schedule[t];
  }
  return spends;
}

double StreamModel::BudgetOf(std::uint32_t user, std::size_t steps) const {
  double sum = 0.0;
  for (std::uint32_t t : user_releases[user]) {
    if (t < steps) sum += schedule[t];
  }
  return sum;
}

std::uint64_t StreamModel::WalRecords(std::size_t shard) const {
  return 1 + users_per_shard[shard] + horizon();
}

StreamModel ModelStream(const Workload& workload) {
  const WorkloadSpec& spec = workload.spec;
  StreamModel model;
  model.user_releases.resize(spec.users);
  model.users_per_shard.assign(spec.shards, 0);
  for (const std::string& name : workload.names) {
    ++model.users_per_shard[tcdp::server::ShardedReleaseService::ShardOf(
        name, spec.shards)];
  }

  // Window state: requests counted, pending joins, and the open groups
  // (budget -> participants, in first-seen order).
  std::size_t window = 0;
  std::size_t pending_joins = 0;
  std::vector<std::pair<double, std::vector<std::uint32_t>>> groups;
  auto tick = [&] {
    window = 0;
    if (pending_joins == 0 && groups.empty()) return;
    for (auto& [epsilon, participants] : groups) {
      const auto t = static_cast<std::uint32_t>(model.schedule.size());
      model.schedule.push_back(epsilon);
      std::sort(participants.begin(), participants.end());
      participants.erase(
          std::unique(participants.begin(), participants.end()),
          participants.end());
      for (std::uint32_t user : participants) {
        model.user_releases[user].push_back(t);
      }
    }
    groups.clear();
    pending_joins = 0;
    ++model.ticks;
  };
  auto count_request = [&] {
    if (++window >= spec.batch_window) tick();
  };

  for (std::size_t u = 0; u < spec.users; ++u) {
    ++pending_joins;
    count_request();
  }
  tick();  // the setup Flush
  for (const Commit& commit : workload.commits) {
    for (const ReleaseRequest& request : commit.releases) {
      auto group = std::find_if(groups.begin(), groups.end(),
                                [&](const auto& g) {
                                  return g.first == request.epsilon;
                                });
      if (group == groups.end()) {
        groups.emplace_back(request.epsilon, std::vector<std::uint32_t>{});
        group = groups.end() - 1;
      }
      group->second.push_back(request.user);
      count_request();
    }
    tick();  // the commit's Flush (a following Query finds it empty)
    model.horizon_after_commit.push_back(model.schedule.size());
  }
  return model;
}

}  // namespace servicebench
