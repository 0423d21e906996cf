// servicebench: end-to-end benchmark of the sharded release service.
//
//   servicebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each workload is a fixed, seeded request stream (workload.h). One
// round replays it through the whole service path:
//
//   setup     build the profiles, create the durable service, start an
//             in-process NetServer on loopback, connect one NetClient,
//             enrol every user, Flush
//   ingest    closed loop: each commit batch is its Release requests
//             (pipelined) then one Flush; the next batch starts when the
//             Flush returns
//   query     a Query of every user over the wire
//   recover   Close, then ShardedReleaseService::Recover on the log
//   catch-up  a fresh replication::Follower against a LogStreamServer on
//             the log, until its durable release horizon is the primary's
//
// and checks every answer (checks.h). With --trace 0 the run repeats
// rounds until --seconds have passed and prints the end-to-end metrics;
// with --trace 1 it replays the stream up a layer ladder (bank alone,
// ephemeral service, durable without fsync, the workload's sync policy,
// loopback, follower) and prints the per-layer metrics. The last line
// of standard output is one JSON object; progress goes to stderr.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/status.h"
#include "core/accountant_bank.h"
#include "core/privacy_loss.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "reference.h"
#include "replication/follower.h"
#include "replication/log_stream.h"
#include "server/sharded_service.h"
#include "spans.h"
#include "workload.h"

namespace servicebench {
namespace {

using tcdp::Status;
using tcdp::StatusOr;
using tcdp::server::ShardedReleaseService;
using tcdp::server::UserReport;

const Clock::time_point kProcessStart = Clock::now();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

StatusOr<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag " + flag + " needs a value");
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      continue;
    }
    if (flag == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
      continue;
    }
    if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    }
    if (end == nullptr || end == value.c_str() || *end != '\0') {
      return Status::InvalidArgument("bad flag " + flag + " " + value);
    }
  }
  if (args.workload.empty()) {
    return Status::InvalidArgument("--workload is required");
  }
  if (!(args.seconds > 0.0)) {
    return Status::InvalidArgument("--seconds must be positive");
  }
  return args;
}

// ------------------------------------------------------------- helpers

/// Nearest-rank percentile, \p p in (0, 1].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Process high-water RSS (VmHWM) in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

std::uint64_t HistogramCount(const std::string& name) {
  const tcdp::obs::MetricsSnapshot snapshot =
      tcdp::obs::Registry::Default().Snapshot();
  for (const auto& [key, histogram] : snapshot.histograms) {
    if (key == name) return histogram.count();
  }
  return 0;
}

/// Counts every operation sent to the program and every one that
/// failed. A failure ends the run: the state after it is not the
/// workload's.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  Status Count(Status status) {
    ++attempted;
    if (!status.ok()) ++failed;
    return status;
  }
  template <typename T>
  StatusOr<T> Count(StatusOr<T> result) {
    ++attempted;
    if (!result.ok()) ++failed;
    return result;
  }
};

tcdp::server::ShardedServiceOptions ServiceOptions(const WorkloadSpec& spec,
                                                   bool workload_sync) {
  tcdp::server::ShardedServiceOptions options;
  options.num_shards = spec.shards;
  options.batch_window = spec.batch_window;
  options.sync_every = workload_sync ? spec.sync_every : 0;
  options.snapshot_every = spec.snapshot_every;
  return options;
}

/// An in-process NetServer serving on its own thread.
class Loopback {
 public:
  static StatusOr<std::unique_ptr<Loopback>> Start(
      ShardedReleaseService* service) {
    TCDP_ASSIGN_OR_RETURN(auto server, tcdp::net::NetServer::Listen(service));
    std::unique_ptr<Loopback> loop(new Loopback(std::move(server)));
    loop->thread_ = std::thread([raw = loop.get()] {
      raw->serve_status_ = raw->server_->Serve();
    });
    return loop;
  }
  ~Loopback() { (void)Stop(); }
  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;

  std::uint16_t port() const { return server_->port(); }
  Status Stop() {
    if (thread_.joinable()) {
      server_->Stop();
      thread_.join();
    }
    return serve_status_;
  }
  /// Valid after Stop().
  const tcdp::net::NetServerStats& stats() const { return server_->stats(); }

 private:
  explicit Loopback(std::unique_ptr<tcdp::net::NetServer> server)
      : server_(std::move(server)) {}
  std::unique_ptr<tcdp::net::NetServer> server_;
  Status serve_status_;
  std::thread thread_;
};

/// A LogStreamServer tailing a log directory on its own thread.
class Stream {
 public:
  static StatusOr<std::unique_ptr<Stream>> Start(const std::string& dir) {
    tcdp::replication::LogStreamOptions options;
    options.log_dir = dir;
    TCDP_ASSIGN_OR_RETURN(auto server,
                          tcdp::replication::LogStreamServer::Listen(options));
    std::unique_ptr<Stream> stream(new Stream(std::move(server)));
    stream->thread_ = std::thread([raw = stream.get()] {
      raw->serve_status_ = raw->server_->Serve();
    });
    return stream;
  }
  ~Stream() { (void)Stop(); }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  std::uint16_t port() const { return server_->port(); }
  tcdp::replication::LogStreamStats stats() const { return server_->stats(); }
  Status Stop() {
    if (thread_.joinable()) {
      server_->Stop();
      thread_.join();
    }
    return serve_status_;
  }

 private:
  explicit Stream(std::unique_ptr<tcdp::replication::LogStreamServer> server)
      : server_(std::move(server)) {}
  std::unique_ptr<tcdp::replication::LogStreamServer> server_;
  Status serve_status_;
  std::thread thread_;
};

// -------------------------------------------------------------- runner

/// The requests of one stream, sent either in process (to a
/// ShardedReleaseService) or over loopback (through a NetClient).
class Front {
 public:
  explicit Front(ShardedReleaseService* service) : service_(service) {}
  explicit Front(tcdp::net::NetClient* client) : client_(client) {}

  Status Join(const std::string& name,
              const tcdp::TemporalCorrelations& correlations) {
    return client_ != nullptr ? client_->Join(name, correlations)
                              : service_->Join(name, correlations);
  }
  Status Release(const std::string& name, double epsilon) {
    return client_ != nullptr ? client_->Release(name, epsilon)
                              : service_->Release(name, epsilon);
  }
  Status Flush() {
    return client_ != nullptr ? client_->Flush() : service_->Flush();
  }
  StatusOr<UserReport> Query(const std::string& name) {
    return client_ != nullptr ? client_->Query(name) : service_->Query(name);
  }

 private:
  ShardedReleaseService* service_ = nullptr;
  tcdp::net::NetClient* client_ = nullptr;
};

/// End-to-end samples of one round.
struct RoundSamples {
  double setup_s = 0.0;
  double ingest_s = 0.0;
  std::vector<double> commit_ms;
  std::vector<double> query_us;
  double recover_s = 0.0;
  double catchup_s = 0.0;
  double peak_rss_mb = 0.0;
  double log_bytes = 0.0;
  double loss_evals = 0.0;  ///< loss-cache misses by the end of the queries
};

/// Per-layer values of one ladder pass, by metric name.
using LayerValues = std::map<std::string, double>;

/// A durable or ephemeral service with its loopback front, when any.
struct Stack {
  std::unique_ptr<ShardedReleaseService> service;
  std::unique_ptr<Loopback> loopback;
  std::unique_ptr<tcdp::net::NetClient> client;
  std::unique_ptr<Front> front;

  /// Closes the client, then the server, then the service.
  Status Close() {
    Status first;
    if (client != nullptr) first = client->Close();
    if (loopback != nullptr) {
      const Status stopped = loopback->Stop();
      if (first.ok()) first = stopped;
    }
    if (service != nullptr) {
      const Status closed = service->Close();
      if (first.ok()) first = closed;
    }
    return first;
  }
};

class Runner {
 public:
  Runner(Workload workload, std::string work_dir, bool trace)
      : w_(std::move(workload)),
        model_(ModelStream(w_)),
        work_dir_(std::move(work_dir)),
        spans_(trace),
        slack_(ComputeSlack()) {}

  Tally& tally() { return tally_; }
  const SpanRecorder& spans() const { return spans_; }

  /// One timed round through the whole path (see the file comment).
  /// Setup time counts from \p setup_start. The \p first round of a
  /// run also runs the reference, durability and promotion checks.
  Status RunRound(bool first, Clock::time_point setup_start,
                  RoundSamples* out);
  /// One pass up the layer ladder; the spans recorded hold this pass.
  Status RunLadder(LayerValues* out);

 private:
  std::string Dir(const std::string& leaf) const {
    return work_dir_ + "/" + leaf;
  }
  /// Creates a service (durable when \p dir is non-empty), optionally
  /// behind loopback, and enrols every user.
  Status Open(const std::string& dir, bool workload_sync, bool loopback,
              Stack* stack);
  /// Replays every commit; returns the seconds spent inside them.
  /// With \p query_us set, also sends the in-ingest queries (timed
  /// there, excluded from the returned time) and checks their answers.
  StatusOr<double> Ingest(Front* front, bool request_spans,
                          std::vector<double>* commit_ms,
                          std::vector<double>* query_us);
  /// Queries every user, checks each answer, and keeps the answers of
  /// the durability sample (in sample order). \p overall_alpha gets the
  /// max of every answer's max_tpl: the service's OverallAlpha.
  Status QueryAll(Front* front, std::vector<double>* query_us,
                  std::vector<UserReport>* sample_reports,
                  double* overall_alpha);
  Status CheckAnswer(const UserReport& report, std::uint32_t user,
                     std::size_t horizon) const;
  Status CheckReference(const std::vector<UserReport>& sample_reports);
  /// Request/tick counters (a fresh service only) and per-shard
  /// horizon, users and WAL records against the benchmark's model.
  Status CheckCounts(ShardedReleaseService* service, bool fresh,
                     bool durable);
  /// A fresh follower against a LogStreamServer on \p primary_dir, up
  /// to the primary's release horizon; then the replica's bytes are
  /// checked and, with \p promote, the promoted service's overall
  /// alpha against \p primary_alpha.
  Status CatchUp(const std::string& primary_dir, bool promote,
                 double primary_alpha, double* seconds, LayerValues* layers);

  double ComputeSlack() const {
    double budget = 0.0;
    for (std::uint32_t u = 0; u < w_.spec.users; ++u) {
      budget = std::max(budget, model_.BudgetOf(u, model_.horizon()));
    }
    return ToleranceFor(AlphaResolution(), model_.horizon(), budget).above;
  }
  static double AlphaResolution() {
    return tcdp::TemporalLossCache::Options().alpha_resolution;
  }
  std::vector<std::uint32_t> DurabilitySample() const {
    std::vector<std::uint32_t> sample = w_.reference_sample;
    for (std::uint32_t u = 0; u < w_.spec.users; u += 97) sample.push_back(u);
    return sample;
  }

  const Workload w_;
  const StreamModel model_;
  const std::string work_dir_;
  Tally tally_;
  SpanRecorder spans_;
  /// Allowance for the cache's upward alpha snapping in the bound
  /// checks (BPL_t and TPL_t against the budget).
  const double slack_;
  std::uint64_t request_id_ = 0;
  /// BPL values the reference visited for the first sampled user: the
  /// alpha arguments its backward loss was evaluated at.
  std::vector<double> visited_alphas_;
};

Status Runner::Open(const std::string& dir, bool workload_sync,
                    bool loopback, Stack* stack) {
  ScopedSpan span(&spans_, "open");
  TCDP_ASSIGN_OR_RETURN(
      stack->service,
      tally_.Count(ShardedReleaseService::Create(
          dir, ServiceOptions(w_.spec, workload_sync))));
  if (loopback) {
    TCDP_ASSIGN_OR_RETURN(stack->loopback,
                          Loopback::Start(stack->service.get()));
    tcdp::net::NetClientOptions options;
    options.pipeline_depth = w_.spec.pipeline_depth;
    TCDP_ASSIGN_OR_RETURN(
        stack->client,
        tally_.Count(tcdp::net::NetClient::Connect(
            "127.0.0.1", stack->loopback->port(), options)));
    stack->front = std::make_unique<Front>(stack->client.get());
  } else {
    stack->front = std::make_unique<Front>(stack->service.get());
  }
  ScopedSpan enrol(&spans_, "enrol");
  for (std::size_t u = 0; u < w_.spec.users; ++u) {
    TCDP_RETURN_IF_ERROR(tally_.Count(stack->front->Join(
        w_.names[u], w_.profiles[w_.user_profile[u]].correlations)));
  }
  return tally_.Count(stack->front->Flush());
}

StatusOr<double> Runner::Ingest(Front* front, bool request_spans,
                                std::vector<double>* commit_ms,
                                std::vector<double>* query_us) {
  ScopedSpan span(&spans_, "ingest");
  double busy = 0.0;
  for (std::size_t c = 0; c < w_.commits.size(); ++c) {
    const Commit& commit = w_.commits[c];
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan commit_span(&spans_, "commit", c);
      for (const ReleaseRequest& request : commit.releases) {
        ScopedSpan release_span(
            request_spans ? &spans_ : nullptr, "release", ++request_id_);
        TCDP_RETURN_IF_ERROR(tally_.Count(
            front->Release(w_.names[request.user], request.epsilon)));
      }
      ScopedSpan flush_span(&spans_, "flush", c);
      TCDP_RETURN_IF_ERROR(tally_.Count(front->Flush()));
    }
    const double seconds = SecondsSince(start);
    busy += seconds;
    if (commit_ms != nullptr) commit_ms->push_back(seconds * 1e3);
    if (query_us == nullptr || commit.query_user < 0) continue;
    const auto user = static_cast<std::uint32_t>(commit.query_user);
    const Clock::time_point query_start = Clock::now();
    StatusOr<UserReport> report = [&] {
      ScopedSpan query_span(&spans_, "query", user);
      return tally_.Count(front->Query(w_.names[user]));
    }();
    query_us->push_back(SecondsSince(query_start) * 1e6);
    TCDP_RETURN_IF_ERROR(report.status());
    TCDP_RETURN_IF_ERROR(
        CheckAnswer(*report, user, model_.horizon_after_commit[c]));
  }
  return busy;
}

Status Runner::QueryAll(Front* front, std::vector<double>* query_us,
                        std::vector<UserReport>* sample_reports,
                        double* overall_alpha) {
  ScopedSpan span(&spans_, "query_all");
  const std::vector<std::uint32_t> sample = DurabilitySample();
  sample_reports->assign(sample.size(), UserReport{});
  double service_total = 0.0;
  double expected_total = 0.0;
  *overall_alpha = 0.0;
  for (std::uint32_t u = 0; u < w_.spec.users; ++u) {
    const Clock::time_point start = Clock::now();
    StatusOr<UserReport> report = [&] {
      ScopedSpan query_span(&spans_, "query", u);
      return tally_.Count(front->Query(w_.names[u]));
    }();
    if (query_us != nullptr) {
      query_us->push_back(SecondsSince(start) * 1e6);
    }
    TCDP_RETURN_IF_ERROR(report.status());
    TCDP_RETURN_IF_ERROR(CheckAnswer(*report, u, model_.horizon()));
    service_total += report->user_level_tpl;
    *overall_alpha = std::max(*overall_alpha, report->max_tpl);
    expected_total += model_.BudgetOf(u, model_.horizon());
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (sample[i] == u) (*sample_reports)[i] = *report;
    }
  }
  if (service_total != expected_total) {
    return Status::FailedPrecondition(
        "sum of user_level_tpl over all users differs from the benchmark's "
        "tally of the requests it sent");
  }
  return Status::OK();
}

Status Runner::CheckAnswer(const UserReport& report, std::uint32_t user,
                           std::size_t horizon) const {
  if (report.name != w_.names[user] || report.join_release != 0 ||
      report.horizon != horizon) {
    return Status::FailedPrecondition(
        w_.names[user] + ": answer for '" + report.name + "' at join " +
        std::to_string(report.join_release) + ", horizon " +
        std::to_string(report.horizon) + "; expected horizon " +
        std::to_string(horizon));
  }
  TCDP_RETURN_IF_ERROR(CheckSpends(report, model_.SpendsOf(user, horizon),
                                   model_.BudgetOf(user, horizon)));
  return CheckProperties(report, slack_);
}

Status Runner::CheckReference(const std::vector<UserReport>& sample_reports) {
  ScopedSpan span(&spans_, "reference_check");
  const std::size_t n = w_.spec.n;
  double worst_above = 0.0;
  double worst_below = 0.0;
  for (std::size_t i = 0; i < w_.reference_sample.size(); ++i) {
    const std::uint32_t user = w_.reference_sample[i];
    const Profile& profile = w_.profiles[w_.user_profile[user]];
    const std::vector<double> spends =
        model_.SpendsOf(user, model_.horizon());
    const ReferenceSeries reference =
        ReferenceRecurrences(ReferenceLoss(profile.backward, n),
                             ReferenceLoss(profile.forward, n), spends);
    TCDP_RETURN_IF_ERROR(CheckBplBound(reference.bpl, spends, slack_));
    const double magnitude =
        reference.tpl.empty()
            ? 0.0
            : *std::max_element(reference.tpl.begin(), reference.tpl.end());
    TCDP_RETURN_IF_ERROR(CheckAgainstReference(
        sample_reports[i], reference,
        ToleranceFor(AlphaResolution(), model_.horizon(), magnitude)));
    for (std::size_t t = 0; t < reference.tpl.size(); ++t) {
      const double diff = sample_reports[i].tpl_series[t] - reference.tpl[t];
      worst_above = std::max(worst_above, diff);
      worst_below = std::max(worst_below, -diff);
    }
    if (i == 0) visited_alphas_ = reference.bpl;
  }
  std::fprintf(stderr,
               "reference: %zu users agree; worst service-reference "
               "+%.3g / -%.3g\n",
               w_.reference_sample.size(), worst_above, worst_below);
  return Status::OK();
}

Status Runner::CheckCounts(ShardedReleaseService* service, bool fresh,
                           bool durable) {
  if (fresh) {
    const tcdp::server::ServiceStats stats = service->stats();
    TCDP_RETURN_IF_ERROR(CheckCount("server.global_releases",
                                    stats.global_releases, model_.horizon()));
    TCDP_RETURN_IF_ERROR(CheckCount("server.ticks", stats.ticks, model_.ticks));
    TCDP_RETURN_IF_ERROR(CheckCount("release requests",
                                    stats.release_requests,
                                    w_.release_requests()));
    TCDP_RETURN_IF_ERROR(
        CheckCount("join requests", stats.join_requests, w_.spec.users));
  }
  for (std::size_t s = 0; s < w_.spec.shards; ++s) {
    const tcdp::server::ShardStats shard = service->shard_stats(s);
    const std::string label = "shard " + std::to_string(s);
    TCDP_RETURN_IF_ERROR(
        CheckCount(label + " horizon", shard.horizon, model_.horizon()));
    TCDP_RETURN_IF_ERROR(CheckCount(label + " users", shard.users,
                                    model_.users_per_shard[s]));
    if (durable) {
      TCDP_RETURN_IF_ERROR(CheckCount(label + " server.wal_records",
                                      shard.wal_records,
                                      model_.WalRecords(s)));
    }
  }
  return Status::OK();
}

Status Runner::CatchUp(const std::string& primary_dir, bool promote,
                       double primary_alpha, double* seconds,
                       LayerValues* layers) {
  ScopedSpan span(&spans_, "catchup");
  const std::string replica_dir = primary_dir + "-replica";
  std::filesystem::remove_all(replica_dir);
  TCDP_ASSIGN_OR_RETURN(std::unique_ptr<Stream> stream,
                        Stream::Start(primary_dir));
  std::uint64_t expected_records = 0;
  for (std::size_t s = 0; s < w_.spec.shards; ++s) {
    expected_records += model_.WalRecords(s);
  }

  const Clock::time_point start = Clock::now();
  tcdp::replication::FollowerOptions options;
  options.primary_port = stream->port();
  options.log_dir = replica_dir;
  TCDP_ASSIGN_OR_RETURN(
      std::unique_ptr<tcdp::replication::Follower> follower,
      tally_.Count(tcdp::replication::Follower::Open(options)));
  TCDP_RETURN_IF_ERROR(tally_.Count(follower->Start()));
  tcdp::replication::FollowerStatus status;
  for (;;) {
    status = follower->status();
    if (status.diverged) {
      return tally_.Count(Status::FailedPrecondition(
          "follower diverged: " + status.last_error.ToString()));
    }
    std::uint64_t durable = 0;
    for (std::uint64_t records : status.durable_records) durable += records;
    if (status.release_horizon >= model_.horizon() &&
        durable == expected_records) {
      break;
    }
    if (SecondsSince(start) > 120.0) {
      return tally_.Count(Status::Internal(
          "follower did not catch up within 120 s"));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  *seconds = SecondsSince(start);
  ++tally_.attempted;  // the catch-up itself

  if (layers != nullptr) {
    // The stream publishes its counters once per poll round.
    tcdp::replication::LogStreamStats stats = stream->stats();
    while (stats.records_sent < expected_records &&
           SecondsSince(start) < 120.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      stats = stream->stats();
    }
    TCDP_RETURN_IF_ERROR(CheckCount("replication.records",
                                    status.records_applied,
                                    expected_records));
    (*layers)["replication.records"] =
        static_cast<double>(status.records_applied);
    (*layers)["replication.batches"] = static_cast<double>(stats.batches_sent);
    (*layers)["replication.bytes"] = static_cast<double>(stats.bytes_sent);
  }
  follower->Stop();
  TCDP_RETURN_IF_ERROR(stream->Stop());
  TCDP_RETURN_IF_ERROR(
      CheckSameLogFiles(primary_dir, replica_dir, w_.spec.shards));
  if (!promote) {
    std::filesystem::remove_all(replica_dir);
    return Status::OK();
  }
  TCDP_ASSIGN_OR_RETURN(std::unique_ptr<ShardedReleaseService> promoted,
                        tally_.Count(follower->Promote()));
  TCDP_ASSIGN_OR_RETURN(double promoted_alpha,
                        tally_.Count(promoted->OverallAlpha()));
  if (promoted_alpha != primary_alpha) {
    return Status::FailedPrecondition(
        "the service promoted from the follower reports OverallAlpha " +
        std::to_string(promoted_alpha) + ", the primary " +
        std::to_string(primary_alpha));
  }
  TCDP_RETURN_IF_ERROR(promoted->Close());
  std::filesystem::remove_all(replica_dir);
  return Status::OK();
}

Status Runner::RunRound(bool first, Clock::time_point setup_start,
                        RoundSamples* out) {
  const std::string primary = Dir("primary");
  std::filesystem::remove_all(primary);
  Stack stack;
  TCDP_RETURN_IF_ERROR(Open(primary, /*workload_sync=*/true,
                            /*loopback=*/true, &stack));
  out->setup_s = SecondsSince(setup_start);

  TCDP_ASSIGN_OR_RETURN(out->ingest_s, Ingest(stack.front.get(), false,
                                              &out->commit_ms,
                                              &out->query_us));
  std::vector<UserReport> before;
  double alpha = 0.0;
  TCDP_RETURN_IF_ERROR(
      QueryAll(stack.front.get(), &out->query_us, &before, &alpha));
  out->peak_rss_mb = PeakRssMb();
  if (first) TCDP_RETURN_IF_ERROR(CheckReference(before));
  TCDP_ASSIGN_OR_RETURN(tcdp::net::WireServiceStats wire,
                        tally_.Count(stack.client->Stats()));
  TCDP_RETURN_IF_ERROR(CheckCount("server.global_releases (wire)",
                                  wire.global_releases, model_.horizon()));
  TCDP_RETURN_IF_ERROR(stack.client->Close());
  TCDP_RETURN_IF_ERROR(stack.loopback->Stop());
  TCDP_RETURN_IF_ERROR(CheckCounts(stack.service.get(), /*fresh=*/true,
                                   /*durable=*/true));
  const tcdp::server::ServiceStats stats = stack.service->stats();
  out->loss_evals = static_cast<double>(stats.cache_misses);
  TCDP_RETURN_IF_ERROR(tally_.Count(stack.service->Close()));
  out->log_bytes = static_cast<double>(DirBytes(primary));

  const Clock::time_point recover_start = Clock::now();
  TCDP_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedReleaseService> recovered,
      tally_.Count(ShardedReleaseService::Recover(primary)));
  out->recover_s = SecondsSince(recover_start);
  TCDP_RETURN_IF_ERROR(CheckCounts(recovered.get(), /*fresh=*/false,
                                   /*durable=*/true));
  // The rounds replay one stream, so the checks that cost a loss
  // evaluation per step (answers after recovery, the promoted
  // follower's alpha) run once per run, on the first round.
  if (first) {
    const std::vector<std::uint32_t> sample = DurabilitySample();
    for (std::size_t i = 0; i < sample.size(); ++i) {
      TCDP_ASSIGN_OR_RETURN(
          UserReport after,
          tally_.Count(recovered->Query(w_.names[sample[i]])));
      TCDP_RETURN_IF_ERROR(CheckSameReport(before[i], after));
    }
  }
  TCDP_RETURN_IF_ERROR(
      CatchUp(primary, /*promote=*/first, alpha, &out->catchup_s, nullptr));
  if (w_.spec.compact_after_catchup) {
    TCDP_RETURN_IF_ERROR(tally_.Count(recovered->Compact()));
    out->log_bytes = static_cast<double>(DirBytes(primary));
  }
  TCDP_RETURN_IF_ERROR(tally_.Count(recovered->Close()));
  std::filesystem::remove_all(primary);
  return Status::OK();
}

Status Runner::RunLadder(LayerValues* out) {
  spans_.Clear();  // the trace file holds the last pass
  LayerValues& v = *out;
  const WorkloadSpec& spec = w_.spec;
  const std::size_t shards = spec.shards;

  // Rung 1: the banks alone, one per shard on its own thread, fed the
  // benchmark's own batching of the stream.
  double bank_s = 0.0;
  {
    ScopedSpan rung(&spans_, "rung.bank");
    std::vector<tcdp::AccountantBank> banks(shards);
    std::vector<std::size_t> local(spec.users);
    std::vector<std::size_t> shard_of(spec.users);
    for (std::uint32_t u = 0; u < spec.users; ++u) {
      shard_of[u] = ShardedReleaseService::ShardOf(w_.names[u], shards);
      local[u] = banks[shard_of[u]].AddUser(
          w_.profiles[w_.user_profile[u]].correlations);
    }
    // members[t][s]: shard-local participants of global release t.
    std::vector<std::vector<std::vector<std::size_t>>> members(
        model_.horizon(), std::vector<std::vector<std::size_t>>(shards));
    for (std::uint32_t u = 0; u < spec.users; ++u) {
      for (std::uint32_t t : model_.user_releases[u]) {
        members[t][shard_of[u]].push_back(local[u]);
      }
    }
    std::vector<Status> results(shards);
    const Clock::time_point start = Clock::now();
    {
      std::vector<std::thread> threads;
      for (std::size_t s = 0; s < shards; ++s) {
        threads.emplace_back([&, s] {
          for (std::size_t t = 0; t < model_.horizon() && results[s].ok();
               ++t) {
            results[s] =
                banks[s].RecordRelease(model_.schedule[t], members[t][s]);
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    bank_s = SecondsSince(start);
    double cohorts = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
      TCDP_RETURN_IF_ERROR(tally_.Count(results[s]));
      TCDP_RETURN_IF_ERROR(CheckCount("core.bank.releases (shard " +
                                          std::to_string(s) + ")",
                                      banks[s].horizon(), model_.horizon()));
      cohorts += static_cast<double>(banks[s].num_cohorts());
    }
    for (std::uint32_t u : w_.reference_sample) {
      TCDP_RETURN_IF_ERROR(CheckBplBound(
          banks[shard_of[u]].BplSeriesFor(local[u]),
          model_.SpendsOf(u, model_.horizon()), slack_));
    }
    v["core.bank.record_s"] = bank_s;
    v["core.bank.releases"] = static_cast<double>(banks[0].horizon());
    v["core.bank.cohorts"] = cohorts;
  }

  // Rung 2: an ephemeral service in process.
  double ephemeral_s = 0.0;
  {
    ScopedSpan rung(&spans_, "rung.ephemeral");
    Stack stack;
    TCDP_RETURN_IF_ERROR(Open("", false, false, &stack));
    TCDP_ASSIGN_OR_RETURN(ephemeral_s,
                          Ingest(stack.front.get(), false, nullptr, nullptr));
    TCDP_RETURN_IF_ERROR(CheckCounts(stack.service.get(), true, false));
    const tcdp::server::ServiceStats stats = stack.service->stats();
    double hwm = 0.0;
    double blocks = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
      const tcdp::server::ShardStats shard = stack.service->shard_stats(s);
      hwm = std::max(hwm, static_cast<double>(shard.queue_depth_hwm));
      blocks += static_cast<double>(shard.enqueue_blocks);
    }
    v["server.dispatch_s"] = ephemeral_s - bank_s;
    v["server.ticks"] = static_cast<double>(stats.ticks);
    v["server.global_releases"] = static_cast<double>(stats.global_releases);
    v["server.queue_hwm"] = hwm;
    v["server.enqueue_blocks"] = blocks;
    TCDP_RETURN_IF_ERROR(tally_.Count(stack.Close()));
  }

  // Rung 3: durable without fsync, with the obs registry on, then off.
  double nosync_s = 0.0;
  {
    ScopedSpan rung(&spans_, "rung.durable_nosync");
    double off_s = 0.0;
    for (bool metrics : {true, false}) {
      tcdp::obs::SetMetricsEnabled(metrics);
      const std::string dir = Dir(metrics ? "nosync" : "nosync-nometrics");
      std::filesystem::remove_all(dir);
      Stack stack;
      Status status = Open(dir, false, false, &stack);
      StatusOr<double> seconds =
          status.ok() ? Ingest(stack.front.get(), false, nullptr, nullptr)
                      : StatusOr<double>(status);
      tcdp::obs::SetMetricsEnabled(true);
      TCDP_RETURN_IF_ERROR(seconds.status());
      TCDP_RETURN_IF_ERROR(CheckCounts(stack.service.get(), true, true));
      if (metrics) {
        nosync_s = *seconds;
        double records = 0.0;
        double bytes = 0.0;
        for (std::size_t s = 0; s < shards; ++s) {
          const tcdp::server::ShardStats shard = stack.service->shard_stats(s);
          records += static_cast<double>(shard.wal_records);
          bytes += static_cast<double>(shard.wal_bytes);
        }
        v["server.wal_records"] = records;
        v["server.wal_bytes"] = bytes;
      } else {
        off_s = *seconds;
      }
      TCDP_RETURN_IF_ERROR(tally_.Count(stack.Close()));
      std::filesystem::remove_all(dir);
    }
    v["server.wal_s"] = nosync_s - ephemeral_s;
    v["obs.metrics_cost_s"] = nosync_s - off_s;
  }

  // Rung 4: the workload's sync policy; then in-process queries,
  // compaction when the workload compacts, and recovery.
  double sync_s = nosync_s;
  {
    ScopedSpan rung(&spans_, "rung.durable_sync");
    const std::string dir = Dir("sync");
    std::filesystem::remove_all(dir);
    Stack stack;
    TCDP_RETURN_IF_ERROR(Open(dir, true, false, &stack));
    const std::uint64_t fsyncs_before = HistogramCount("tcdp_wal_fsync_seconds");
    TCDP_ASSIGN_OR_RETURN(sync_s,
                          Ingest(stack.front.get(), false, nullptr, nullptr));
    TCDP_RETURN_IF_ERROR(stack.service->Flush());
    v["server.fsyncs"] = static_cast<double>(
        HistogramCount("tcdp_wal_fsync_seconds") - fsyncs_before);
    if (spec.sync_every == 0) sync_s = nosync_s;  // the same configuration
    v["server.fsync_s"] = sync_s - nosync_s;

    std::vector<double> query_us;
    std::vector<UserReport> sample_reports;
    double alpha = 0.0;
    TCDP_RETURN_IF_ERROR(
        QueryAll(stack.front.get(), &query_us, &sample_reports, &alpha));
    v["server.query_us"] = Median(query_us);

    double snapshots = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
      snapshots += static_cast<double>(
          stack.service->shard_stats(s).snapshots_written);
    }
    v["server.snapshots"] = snapshots;
    double compact_s = 0.0;
    double compactions = 0.0;
    if (spec.compact_after_catchup) {
      const Clock::time_point start = Clock::now();
      TCDP_RETURN_IF_ERROR(tally_.Count(stack.service->Compact()));
      compact_s = SecondsSince(start);
      for (std::size_t s = 0; s < shards; ++s) {
        compactions += static_cast<double>(
            stack.service->shard_stats(s).compactions);
      }
    }
    v["server.compact_s"] = compact_s;
    v["server.compactions"] = compactions;
    TCDP_RETURN_IF_ERROR(tally_.Count(stack.Close()));

    TCDP_ASSIGN_OR_RETURN(
        std::unique_ptr<ShardedReleaseService> recovered,
        tally_.Count(ShardedReleaseService::Recover(dir)));
    double replayed = 0.0;
    for (std::size_t s = 0; s < shards; ++s) {
      replayed +=
          static_cast<double>(recovered->shard_stats(s).replayed_records);
    }
    v["server.replayed_records"] = replayed;
    TCDP_RETURN_IF_ERROR(tally_.Count(recovered->Close()));
    std::filesystem::remove_all(dir);
  }

  // Rung 5: loopback, once with a span per request and once without;
  // then the follower on the traced pass's log.
  {
    ScopedSpan rung(&spans_, "rung.loopback");
    double traced_s = 0.0;
    double untraced_s = 0.0;
    for (bool traced : {true, false}) {
      const std::string dir = Dir(traced ? "loopback" : "loopback-untraced");
      std::filesystem::remove_all(dir);
      Stack stack;
      TCDP_RETURN_IF_ERROR(Open(dir, true, true, &stack));
      TCDP_ASSIGN_OR_RETURN(
          double seconds, Ingest(stack.front.get(), traced, nullptr, nullptr));
      (traced ? traced_s : untraced_s) = seconds;
      if (!traced) {
        TCDP_RETURN_IF_ERROR(tally_.Count(stack.Close()));
        std::filesystem::remove_all(dir);
        continue;
      }
      std::vector<UserReport> sample_reports;
      double alpha = 0.0;
      TCDP_RETURN_IF_ERROR(
          QueryAll(stack.front.get(), nullptr, &sample_reports, &alpha));
      TCDP_RETURN_IF_ERROR(CheckReference(sample_reports));
      TCDP_RETURN_IF_ERROR(stack.client->Close());
      TCDP_RETURN_IF_ERROR(stack.loopback->Stop());
      const tcdp::net::NetServerStats& net = stack.loopback->stats();
      v["net.requests"] = static_cast<double>(net.requests);
      v["net.bytes_in"] = static_cast<double>(net.bytes_in);
      v["net.bytes_out"] = static_cast<double>(net.bytes_out);
      v["net.backpressure_pauses"] =
          static_cast<double>(net.backpressure_pauses);
      const tcdp::server::ServiceStats stats = stack.service->stats();
      const double lookups =
          static_cast<double>(stats.cache_hits + stats.cache_misses);
      v["core.loss.evals"] = static_cast<double>(stats.cache_misses);
      v["core.loss.lookups"] = lookups;
      v["core.loss.hit_ratio"] =
          lookups > 0.0 ? static_cast<double>(stats.cache_hits) / lookups
                        : 0.0;
      v["core.loss.cache_entries"] = static_cast<double>(stats.cache_entries);
      TCDP_RETURN_IF_ERROR(tally_.Count(stack.Close()));
      double catchup_s = 0.0;
      TCDP_RETURN_IF_ERROR(CatchUp(dir, /*promote=*/true, alpha, &catchup_s, &v));
      std::filesystem::remove_all(dir);
    }
    v["net.wire_s"] = untraced_s - sync_s;
    v["trace.overhead_ratio"] = traced_s / untraced_s - 1.0;
  }

  // Loss evaluation alone, at the alphas the reference visited.
  {
    ScopedSpan rung(&spans_, "rung.loss");
    const std::uint32_t user = w_.reference_sample[0];
    const tcdp::TemporalLossFunction loss(
        w_.profiles[w_.user_profile[user]].correlations.backward());
    std::vector<double> eval_us;
    const std::size_t stride =
        std::max<std::size_t>(1, visited_alphas_.size() / 256);
    double sink = 0.0;
    for (std::size_t i = 0; i < visited_alphas_.size(); i += stride) {
      const Clock::time_point start = Clock::now();
      sink += loss.Evaluate(visited_alphas_[i]);
      eval_us.push_back(SecondsSince(start) * 1e6);
    }
    if (!(sink >= 0.0)) {
      return Status::FailedPrecondition("negative loss evaluation");
    }
    v["core.loss.eval_us"] = Median(eval_us);
  }
  return Status::OK();
}

// ---------------------------------------------------------------- main

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string ResultJson(bool correct, const Tally& tally,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

/// Sample i of each round, at its fastest round. The rounds replay one
/// stream, so sample i is the same request on the same state in every
/// round; its fastest time is its cost with the least interference
/// from the host (README.md, "Noise on this host").
std::vector<double> FastestPerSample(
    const std::vector<RoundSamples>& rounds,
    std::vector<double> RoundSamples::*samples) {
  std::vector<double> fastest = rounds.front().*samples;
  for (const RoundSamples& r : rounds) {
    for (std::size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], (r.*samples).at(i));
    }
  }
  return fastest;
}

/// The fastest round's value of a once-per-round time.
double FastestRound(const std::vector<RoundSamples>& rounds,
                    double RoundSamples::*seconds) {
  double fastest = rounds.front().*seconds;
  for (const RoundSamples& r : rounds) fastest = std::min(fastest, r.*seconds);
  return fastest;
}

std::vector<Metric> EndToEnd(const std::vector<RoundSamples>& rounds,
                             std::size_t releases_per_round) {
  const std::vector<double> commit_ms =
      FastestPerSample(rounds, &RoundSamples::commit_ms);
  const std::vector<double> query_us =
      FastestPerSample(rounds, &RoundSamples::query_us);
  // Ingest time is the sum of the commit batches' times.
  double ingest_s = 0.0;
  for (double ms : commit_ms) ingest_s += ms / 1e3;
  return {
      {"setup_s", "s", rounds.front().setup_s},
      {"ingest_rps", "req/s",
       static_cast<double>(releases_per_round) / ingest_s},
      {"commit_p50_ms", "ms", Percentile(commit_ms, 0.50)},
      {"commit_p95_ms", "ms", Percentile(commit_ms, 0.95)},
      {"query_p50_us", "us", Percentile(query_us, 0.50)},
      {"query_p95_us", "us", Percentile(query_us, 0.95)},
      {"recover_s", "s", FastestRound(rounds, &RoundSamples::recover_s)},
      {"repl_catchup_s", "s", FastestRound(rounds, &RoundSamples::catchup_s)},
      {"peak_rss_mb", "MB", rounds.front().peak_rss_mb},
      {"log_bytes", "bytes", rounds.front().log_bytes},
  };
}

/// Unit of each per-layer metric.
std::string LayerUnit(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("_s")) return "s";
  if (ends_with("_us")) return "us";
  if (ends_with("_ratio")) return "ratio";
  if (ends_with("bytes") || ends_with("bytes_in") || ends_with("bytes_out")) {
    return "bytes";
  }
  return "count";
}

int Main(int argc, char** argv) {
  StatusOr<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "servicebench: %s\n",
                 args.status().ToString().c_str());
    return 2;
  }
  StatusOr<Workload> workload = MakeWorkload(args->workload, args->seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "servicebench: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  const std::size_t releases_per_round = workload->release_requests();
  const std::string work_dir = ".bench_build/servicebench-work/" +
                               args->workload + "-" +
                               std::to_string(::getpid());
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);
  Runner runner(std::move(workload).value(), work_dir, args->trace);

  Status status;
  std::vector<Metric> metrics;
  const Clock::time_point measure_start = Clock::now();
  if (!args->trace) {
    std::vector<RoundSamples> rounds;
    do {
      RoundSamples round;
      status = runner.RunRound(rounds.empty(),
                               rounds.empty() ? kProcessStart : Clock::now(),
                               &round);
      if (!status.ok()) break;
      std::fprintf(stderr,
                   "round %zu: setup %.3f s, ingest %.3f s, query p50 %.0f "
                   "p95 %.0f us, recover %.3f s, catch-up %.3f s, %.0f loss "
                   "evaluations\n",
                   rounds.size() + 1, round.setup_s, round.ingest_s,
                   Percentile(round.query_us, 0.50),
                   Percentile(round.query_us, 0.95), round.recover_s,
                   round.catchup_s, round.loss_evals);
      rounds.push_back(std::move(round));
    } while (SecondsSince(measure_start) < args->seconds);
    if (status.ok()) metrics = EndToEnd(rounds, releases_per_round);
  } else {
    std::vector<LayerValues> passes;
    do {
      LayerValues pass;
      status = runner.RunLadder(&pass);
      if (!status.ok()) break;
      passes.push_back(std::move(pass));
    } while (SecondsSince(measure_start) < args->seconds);
    if (status.ok()) {
      for (const auto& [name, value] : passes.front()) {
        std::vector<double> values;
        for (const LayerValues& pass : passes) values.push_back(pass.at(name));
        metrics.push_back({name, LayerUnit(name), Median(values)});
      }
      const std::string trace_dir = ".bench_build/servicebench-trace";
      std::filesystem::create_directories(trace_dir);
      const std::string path = trace_dir + "/" + args->workload + ".json";
      status = runner.spans().WriteJson(path);
      std::fprintf(stderr, "%zu spans written to %s\n", runner.spans().size(),
                   path.c_str());
    }
  }
  std::filesystem::remove_all(work_dir);

  const bool correct = status.ok() && runner.tally().failed == 0;
  if (!correct) {
    std::fprintf(stderr, "servicebench: %s\n", status.ToString().c_str());
    metrics.clear();
  }
  std::printf("%s\n", ResultJson(correct, runner.tally(), metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servicebench

int main(int argc, char** argv) { return servicebench::Main(argc, argv); }
