// campaign: an in-process CampaignDaemon with the shipped defaults (poll
// 50 ms, batch 64, cache capacity 32) plus a journal and a checkpoint
// directory, fed by a closed loop of logical clients from one generator
// thread. Each client publishes its next request into the spool once its
// previous terminal row is durable in the results stream, as
// deft_campaign_client does.
//
// A round is a fixed list of requests generated from the seed. Most are
// short, low-rate runs drawn from a small pool of design keys warmed at
// set-up; a fixed handful are fresh-seed, static-fault, fault-timeline,
// malformed, checkpointed (long) and the golden MTR wedge requests.
#include <fcntl.h>
#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "digest.hpp"
#include "fault/scenario.hpp"
#include "service/daemon.hpp"
#include "sim/snapshot.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace deft;
namespace fs = std::filesystem;

/// Round-0 digest at kDefaultSeed.
constexpr std::uint64_t kPinnedDigest = 0x4e8f23525ae671ffULL;

/// Round composition. The malformed (10%) and wedge (2%) shares are those
/// of deft_campaign_chaos's default mix (i % 10 == 3 and i % 50 == 7). The
/// others are assumed, not measured: that tool has no fresh-key,
/// fault-timeline or (under the shipped checkpoint_min_cycles) checkpointed
/// class, and the repository holds no recorded campaign mix. One fresh DeFT
/// key per round stalls the daemon for a VL-table build and, with it, every
/// client's row in that pass (about 2% of a round's rows), so row_p99_ms
/// lands inside that stall rather than on its edge.
constexpr std::size_t kRoundSize = 200;
constexpr std::size_t kFresh = 2;
constexpr std::size_t kStaticFaults = 8;
constexpr std::size_t kTimelines = 8;
constexpr std::size_t kMalformed = 20;
constexpr std::size_t kLong = 2;
constexpr std::size_t kWedge = 4;
/// A round fails when no row arrives for this long (the longest request
/// takes well under a second), so a stuck daemon still ends the run
/// inside its time limit.
constexpr std::int64_t kRowTimeoutNs = 100'000'000'000;
/// Context seed of the golden MTR wedge (tools/deft_campaign_chaos.cpp).
constexpr std::uint64_t kWedgeSeed = 7;

enum class Kind { pool, fresh, faults, timeline, malformed, long_run, wedge };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::pool:
      return "pool";
    case Kind::fresh:
      return "fresh-key";
    case Kind::faults:
      return "static-fault";
    case Kind::timeline:
      return "fault-timeline";
    case Kind::malformed:
      return "malformed";
    case Kind::long_run:
      return "checkpointed";
    case Kind::wedge:
      return "wedge";
  }
  return "?";
}

struct Request {
  Kind kind = Kind::pool;
  std::string text;
  const char* expect = "ok";  ///< expected terminal outcome
};

/// The design-key pool every short request draws from.
struct KeyPool {
  std::uint64_t seed4 = 0;
  std::uint64_t seed6 = 0;
};

/// A request's context seed; the config grammar caps seeds at LONG_MAX.
std::uint64_t request_seed(std::uint64_t seed, std::uint64_t stream) {
  return derive_seed(seed, stream) % 1'000'000'007ULL;
}

KeyPool key_pool(std::uint64_t seed) {
  return KeyPool{request_seed(seed, 40), request_seed(seed, 60)};
}

/// "<vl>v" / "<vl>^" token of a unidirectional VL channel.
std::string channel_token(const Topology& topo, int channel) {
  for (int v = 0; v < topo.num_vls(); ++v) {
    const auto& vl = topo.vl(static_cast<VlId>(v));
    if (vl.down_vl_channel() == channel) {
      return std::to_string(v) + "v";
    }
    if (vl.up_vl_channel() == channel) {
      return std::to_string(v) + "^";
    }
  }
  return "?";
}

/// The golden wedge: MTR on 6 chiplets whose four channels fail in two
/// waves (the fault pattern the dynamic-fault goldens pin as leaving MTR
/// unable to drain); it ends `timeout` by drain-budget exhaustion.
std::string wedge_text(const Topology& topo6) {
  Rng rng = Rng(42).fork(0xFA17ULL + 4);
  const auto pattern = sample_fault_scenario(topo6, 4, rng);
  std::vector<std::string> tokens;
  for (const VlChannelId c : pattern->channels()) {
    tokens.push_back(channel_token(topo6, c));
  }
  std::string events;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    events += (i == 0 ? "" : " ");
    events += (i < tokens.size() / 2 ? "800:" : "1100:") + tokens[i];
  }
  return "chiplets = 6\nalgorithm = mtr\ntraffic = uniform\nrate = 0.01\n"
         "warmup = 500\nmeasure = 1500\ndrain_max = 6000\nseed = " +
         std::to_string(kWedgeSeed) +
         "\nfault_policy = drop\nfault_events = " + events + "\n";
}

/// Generates round `round`'s requests. Only the workload seed and the
/// round index feed the generator; the topologies are used to name fault
/// channels. The mix is stratified - every round has the same count of
/// each (chiplets, algorithm, traffic) class and rates spread evenly over
/// ten strata - so the seed changes which requests run, not how much work
/// a round holds.
std::vector<Request> make_round(std::uint64_t seed, std::size_t round,
                                const Topology& topo4, const Topology& topo6) {
  const KeyPool pool = key_pool(seed);
  Rng rng(derive_seed(seed, 1000 + round));
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform(n));
  };
  struct Class {
    int chiplets;
    const char* algorithm;
    const char* traffic;
  };
  // MTR runs on the 4-chiplet key only: the pool warms one MTR plan (the
  // 6-chiplet plan costs as much as its VL tables).
  static const Class kClasses[] = {
      {4, "deft", "uniform"}, {4, "mtr", "localized"}, {4, "rc", "hotspot"},
      {6, "deft", "localized"}, {6, "rc", "uniform"},
      {4, "deft", "localized"}, {4, "mtr", "hotspot"}, {4, "rc", "uniform"},
      {6, "deft", "hotspot"}, {6, "rc", "localized"},
      {4, "deft", "hotspot"}, {4, "mtr", "uniform"}, {4, "rc", "localized"},
      {6, "deft", "uniform"}, {6, "rc", "hotspot"},
  };
  std::size_t slot = 0;
  const auto short_run = [&](int chiplets, std::uint64_t key_seed,
                             const char* algorithm, const char* traffic) {
    const double stratum = static_cast<double>(slot++ % 10);
    const double rate = 0.001 + 0.0003 * (stratum + rng.uniform_real());
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "chiplets = %d\nalgorithm = %s\ntraffic = %s\n"
                  "rate = %.6f\nwarmup = 200\nmeasure = 800\nseed = %llu\n",
                  chiplets, algorithm, traffic, rate,
                  static_cast<unsigned long long>(key_seed));
    return std::string(buf);
  };

  std::vector<Request> reqs;
  for (std::size_t i = 0; i < kFresh; ++i) {
    // A key no other request shares: one DeFT request (VL-table build on
    // the cache miss) and one MTR request (turn-restriction plan).
    const std::uint64_t fresh = request_seed(seed, 500'000 + round * 16 + i);
    reqs.push_back({Kind::fresh, short_run(4, fresh, i == 0 ? "deft" : "mtr",
                                           "uniform")});
  }
  for (std::size_t i = 0; i < kStaticFaults + kTimelines; ++i) {
    const bool six = i % 2 == 1;
    const Topology& topo = six ? topo6 : topo4;
    const int k = 1 + static_cast<int>(i / 2 % 4);
    const auto faults = sample_fault_scenario(topo, k, rng);
    std::string spec;
    for (const VlChannelId c : faults->channels()) {
      spec += spec.empty() ? "" : " ";
      spec += channel_token(topo, c);
    }
    const std::string text = short_run(six ? 6 : 4,
                                       six ? pool.seed6 : pool.seed4, "deft",
                                       "uniform");
    if (i < kStaticFaults) {
      reqs.push_back({Kind::faults, text + "faults = " + spec + "\n"});
    } else {
      // The same channels fail mid-measurement and half of them recover.
      std::string events;
      const auto channels = faults->channels();
      for (std::size_t c = 0; c < channels.size(); ++c) {
        const std::string tok = channel_token(topo, channels[c]);
        events += events.empty() ? "400:" : " 400:";
        events += tok;
        if (c % 2 == 0) {
          events += " 700:" + tok + ":repair";
        }
      }
      reqs.push_back({Kind::timeline,
                      text + "fault_events = " + events +
                          "\nfault_policy = " +
                          (i / 2 % 2 == 0 ? "drop" : "reroute") + "\n"});
    }
  }
  const char* malformed[] = {"rate = fast\n", "chiplets = 5\n",
                             "algorithm = xy\n", "bogus_key = 1\n",
                             "faults = 99v\n", "warmup = -4\n"};
  for (std::size_t i = 0; i < kMalformed; ++i) {
    reqs.push_back({Kind::malformed,
                    short_run(4, pool.seed4, "deft", "uniform") +
                        malformed[i % 6],
                    "rejected"});
  }
  for (std::size_t i = 0; i < kLong; ++i) {
    // Passes checkpoint_min_cycles (100000), so the engine writes one
    // durable checkpoint while it runs.
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "chiplets = 4\nalgorithm = deft\ntraffic = uniform\n"
                  "rate = 0.001\nwarmup = 20000\nmeasure = 85000\n"
                  "seed = %llu\n",
                  static_cast<unsigned long long>(pool.seed4));
    reqs.push_back({Kind::long_run, buf});
  }
  for (std::size_t i = 0; i < kWedge; ++i) {
    reqs.push_back({Kind::wedge, wedge_text(topo6), "timeout"});
  }
  for (std::size_t i = 0; reqs.size() < kRoundSize; ++i) {
    const Class& c = kClasses[i % std::size(kClasses)];
    reqs.push_back({Kind::pool,
                    short_run(c.chiplets,
                              c.chiplets == 6 ? pool.seed6 : pool.seed4,
                              c.algorithm, c.traffic)});
  }
  // Deterministic Fisher-Yates shuffle spreads the special requests.
  for (std::size_t i = reqs.size() - 1; i > 0; --i) {
    std::swap(reqs[i], reqs[pick(i + 1)]);
  }
  return reqs;
}

/// Warm-up requests: one per (key, artifact) the pool shares.
std::vector<std::string> warm_requests(std::uint64_t seed) {
  const KeyPool pool = key_pool(seed);
  std::vector<std::string> out;
  const auto req = [&](int chiplets, std::uint64_t key, const char* alg) {
    out.push_back("chiplets = " + std::to_string(chiplets) +
                  "\nalgorithm = " + alg +
                  "\nrate = 0.001\nwarmup = 10\nmeasure = 20\nseed = " +
                  std::to_string(key) + "\n");
  };
  req(4, pool.seed4, "deft");
  req(4, pool.seed4, "mtr");
  req(6, pool.seed6, "deft");
  req(6, kWedgeSeed, "mtr");
  return out;
}

/// Extracts the first `"key": <value>` (string or bare) of a result row.
std::string json_field(const std::string& row, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = row.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  std::size_t i = at + needle.size();
  if (i < row.size() && row[i] == '"') {
    const std::size_t end = row.find('"', i + 1);
    return row.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < row.size() && row[end] != ',' && row[end] != '}') {
    ++end;
  }
  return row.substr(i, end - i);
}

/// A running daemon plus its results-stream reader.
class Service {
 public:
  Service(const fs::path& dir, int workers, Tracer* tracer)
      : dir_(dir), spool_(dir / "spool"), tracer_(tracer) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    DaemonOptions options;
    options.spool_dir = spool_;
    options.results_path = dir_ / "results.jsonl";
    options.manifest_path = dir_ / "manifest.txt";
    options.journal_path = dir_ / "journal.log";
    options.engine.workers = workers;
    options.engine.checkpoint_dir = dir_ / "checkpoints";
    poll_ms_ = options.poll_ms;
    daemon_ = std::make_unique<CampaignDaemon>(options);
    results_fd_ = ::open(options.results_path.c_str(), O_RDONLY);
    if (results_fd_ < 0) {
      throw std::runtime_error("cannot read " + options.results_path.string());
    }
    // Without the watch the generator would fall back to a sleeping poll,
    // the known-unsteady path (wait_for_rows), so that is a set-up error.
    watch_fd_ = inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
    if (watch_fd_ < 0 ||
        inotify_add_watch(watch_fd_, options.results_path.c_str(),
                          IN_MODIFY) < 0) {
      ::close(results_fd_);
      if (watch_fd_ >= 0) {
        ::close(watch_fd_);
      }
      throw std::runtime_error("cannot watch " +
                               options.results_path.string() +
                               " with inotify");
    }
    thread_ = std::thread([this] { loop(); });
  }

  ~Service() {
    stop_ = 1;
    if (thread_.joinable()) {
      thread_.join();
    }
    if (results_fd_ >= 0) {
      ::close(results_fd_);
    }
    if (watch_fd_ >= 0) {
      ::close(watch_fd_);
    }
    daemon_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  const fs::path& spool() const { return spool_; }
  CampaignDaemon& daemon() { return *daemon_; }

  /// Appends every complete new line of the results stream to `out`.
  void poll_rows(std::vector<std::string>& out) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::pread(results_fd_, buf, sizeof buf, offset_);
      if (n <= 0) {
        break;
      }
      offset_ += n;
      pending_.append(buf, static_cast<std::size_t>(n));
    }
    std::size_t nl;
    while ((nl = pending_.find('\n')) != std::string::npos) {
      out.push_back(pending_.substr(0, nl));
      pending_.erase(0, nl + 1);
    }
  }

  /// Blocks until the results stream is appended to, or 100 ms pass.
  /// Woken by inotify as soon as the daemon writes a row, so a client's
  /// next request is in the spool before the daemon's next scan. A
  /// sleeping poll lost that race to the scan a varying share of the time
  /// (the daemon then idles its 50 ms poll interval), which made a round's
  /// makespan spread 0.23 over ten seeds.
  void wait_for_rows() {
    pollfd p{watch_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) > 0) {
      char events[4096];
      while (::read(watch_fd_, events, sizeof events) > 0) {
      }
    }
  }

  /// Pass spans (traced service only) of passes that wrote rows.
  std::vector<double> pass_ms() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return pass_ms_;
  }

 private:
  /// CampaignDaemon::run's loop; the traced service wraps each pass in a
  /// span, which run() cannot offer from outside. An exception stops the
  /// loop; the generator then times out waiting for rows and reports it.
  void loop() {
    try {
      loop_body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: campaign daemon stopped: %s\n",
                   e.what());
    }
  }

  void loop_body() {
    if (tracer_ == nullptr) {
      daemon_->run(&stop_);
      return;
    }
    while (stop_ == 0) {
      const std::int64_t t0 = now_ns();
      const int span = tracer_->begin("service.pass");
      const std::size_t written = daemon_->run_pass();
      tracer_->end(span);
      if (written > 0) {
        const std::lock_guard<std::mutex> lock(mu_);
        pass_ms_.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      }
      if (written == 0 && daemon_->queue_size() == 0 && stop_ == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms_));
      }
    }
    daemon_->shutdown();
  }

  fs::path dir_;
  fs::path spool_;
  Tracer* tracer_;
  int poll_ms_ = 0;
  std::unique_ptr<CampaignDaemon> daemon_;
  int results_fd_ = -1;
  int watch_fd_ = -1;
  off_t offset_ = 0;
  std::string pending_;
  mutable std::mutex mu_;
  std::vector<double> pass_ms_;  // guarded by mu_
  // The type CampaignDaemon::run polls (it is built for a signal handler);
  // the destructor's store is followed by join(), which orders the rest.
  volatile std::sig_atomic_t stop_ = 0;
  std::thread thread_;
};

struct RowResult {
  std::string outcome;
  std::string sim;  ///< the row's "sim" object, verbatim
  double latency_ms = 0.0;
  double seconds = 0.0;
};

struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<RowResult> rows;  ///< by request index
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> row_digests;
  std::uint64_t cycles = 0;
  double latency_sum = 0.0;  ///< network latency x packets, ok rows
  std::uint64_t latency_packets = 0;
};

/// Runs `requests` through the closed loop of `clients` and waits for
/// every terminal row. With a tracer, each request text also gets a timed
/// side call of validate_request before it is published.
Round run_round(Service& service, const std::vector<Request>& requests,
                const std::string& prefix, int clients, Tracer* tracer) {
  Round round;
  round.rows.resize(requests.size());
  std::map<std::string, std::pair<std::size_t, std::int64_t>> in_flight;
  std::size_t next = 0;
  std::size_t done = 0;
  const fs::path spool = service.spool();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  const auto submit = [&] {
    const std::size_t i = next++;
    const std::string id = prefix + "-" + std::to_string(i);
    if (tracer != nullptr) {
      const ScopedSpan span(tracer, "service.validate", -1, id);
      (void)validate_request(requests[i].text, RunBudget{});
    }
    in_flight[id] = {i, now_ns()};
    if (!atomic_write_file(spool / (id + kSpoolExtension), requests[i].text)) {
      throw std::runtime_error("cannot publish request " + id);
    }
  };
  for (int c = 0; c < clients && next < requests.size(); ++c) {
    submit();
  }
  std::vector<std::string> lines;
  std::int64_t last_row = now_ns();
  while (done < requests.size()) {
    lines.clear();
    service.poll_rows(lines);
    if (lines.empty()) {
      if (now_ns() - last_row > kRowTimeoutNs) {
        throw std::runtime_error("campaign: no result row for 100 s");
      }
      service.wait_for_rows();
      continue;
    }
    const std::int64_t t = now_ns();
    last_row = t;
    for (const std::string& line : lines) {
      const auto it = in_flight.find(json_field(line, "id"));
      const std::string outcome = json_field(line, "outcome");
      if (it == in_flight.end() || outcome == "overloaded") {
        continue;
      }
      RowResult& row = round.rows[it->second.first];
      row.outcome = outcome;
      row.latency_ms = static_cast<double>(t - it->second.second) * 1e-6;
      row.seconds = std::atof(json_field(line, "seconds").c_str());
      const std::size_t sim = line.find("\"sim\": {");
      if (sim != std::string::npos) {
        row.sim = line.substr(sim, line.find('}', sim) - sim + 1);
      }
      in_flight.erase(it);
      ++done;
      if (next < requests.size()) {
        submit();
      }
    }
  }
  round.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  round.cpu_s = process_cpu_s() - cpu0;
  Digest digest;
  for (const RowResult& row : round.rows) {
    Digest rd;
    rd.add(row.outcome);
    rd.add(row.sim);
    round.row_digests.push_back(rd.value());
    digest.add(rd.value());
    if (!row.sim.empty()) {
      round.cycles += std::strtoull(json_field(row.sim, "cycles").c_str(),
                                    nullptr, 10);
      if (row.outcome == "ok") {
        const double packets = std::atof(
            json_field(row.sim, "packets_delivered").c_str());
        round.latency_sum +=
            std::atof(json_field(row.sim, "latency_mean").c_str()) * packets;
        round.latency_packets += static_cast<std::uint64_t>(packets);
      }
    }
  }
  round.digest = digest.value();
  return round;
}

/// Set-up: daemon construction (including its recovery pass) and warming
/// the design-key pool through the daemon itself.
std::unique_ptr<Service> set_up(const Options& options, const fs::path& dir,
                                Tracer* tracer) {
  auto service = std::make_unique<Service>(dir, options.threads, tracer);
  std::vector<Request> warm;
  for (const std::string& text : warm_requests(options.seed)) {
    warm.push_back({Kind::pool, text});
  }
  const Round r = run_round(*service, warm, "warm", options.threads, nullptr);
  for (const RowResult& row : r.rows) {
    if (row.outcome != "ok") {
      throw std::runtime_error("campaign warm-up request ended " +
                               row.outcome);
    }
  }
  return service;
}

void check_round(const Round& round, const std::vector<Request>& requests,
                 const Round* reference, bool pinned, Checker& checker) {
  checker.attempt(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    checker.expect(round.rows[i].outcome == requests[i].expect,
                   std::string(kind_name(requests[i].kind)) + " request " +
                       std::to_string(i) + " ended " + round.rows[i].outcome +
                       ", expected " + requests[i].expect);
    if (reference != nullptr) {
      checker.expect(round.row_digests[i] == reference->row_digests[i],
                     "request " + std::to_string(i) + " differs from the "
                     "reference run");
    }
  }
  if (pinned) {
    checker.expect(round.digest == kPinnedDigest,
                   "campaign digest " + hex64(round.digest) + " != pinned " +
                       hex64(kPinnedDigest),
                   requests.size());
  }
}

std::string mix_note(const std::vector<Request>& requests) {
  std::map<Kind, std::size_t> counts;
  for (const Request& r : requests) {
    ++counts[r.kind];
  }
  std::string note = "mix per round of " + std::to_string(requests.size()) +
                     ":";
  for (const auto& [kind, n] : counts) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s %.1f%%", kind_name(kind),
                  100.0 * static_cast<double>(n) /
                      static_cast<double>(requests.size()));
    note += buf;
  }
  return note + " (pool: 3 design keys warmed at set-up, plus the wedge key)";
}

/// Checks a replayed run against the `sim` object of the daemon's row,
/// field by field at the precision the row prints.
void expect_same_sim(const SimResults& r, const RowResult& row,
                     const std::string& what, Checker& checker) {
  char mean[32];
  char p95[32];
  std::snprintf(mean, sizeof mean, "%.3f", r.network_latency.mean);
  std::snprintf(p95, sizeof p95, "%.3f", r.network_latency.p95);
  const std::pair<const char*, std::string> fields[] = {
      {"outcome", run_outcome_name(r.outcome)},
      {"drained", r.drained ? "true" : "false"},
      {"cycles", std::to_string(r.cycles_run)},
      {"packets_created", std::to_string(r.packets_created_measured)},
      {"packets_delivered", std::to_string(r.packets_delivered_measured)},
      {"packets_lost", std::to_string(r.packets_lost)},
      {"latency_mean", mean},
      {"latency_p95", p95},
  };
  // The row's "sim" object starts with its own "outcome" key, so the
  // lookups run inside it, not on the request outcome.
  std::string diff;
  for (const auto& [key, value] : fields) {
    const std::string got = json_field(row.sim, key);
    if (got != value) {
      diff += std::string(" ") + key + " " + value + " vs " + got + ";";
    }
  }
  checker.expect(diff.empty(), what + " differs from the daemon's row:" + diff);
}

/// Side replay for the traced run: every request that validates is run
/// again outside the daemon, through decorated routing and traffic and a
/// SimStepper, so the layers inside the engine get counts and times. Each
/// replay must reproduce the daemon's row for that request (`rows`, by
/// request index), or the counts would describe other work; a mismatch or
/// an exception counts as a failure.
void side_replay(const std::vector<Request>& requests,
                 const std::vector<RowResult>& rows, Tracer& tracer,
                 LayerMetrics& layers, Checker& checker) {
  const RunBudget budget = DaemonOptions{}.engine.budget;
  std::map<std::pair<int, std::uint64_t>, std::unique_ptr<ExperimentContext>>
      contexts;
  std::set<std::pair<int, std::uint64_t>> with_tables;
  std::set<std::pair<int, std::uint64_t>> with_plan;
  std::uint64_t tables = 0;
  std::int64_t tables_ns = 0;
  std::int64_t plan_ns = 0;
  std::uint64_t runs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::int64_t advance_ns = 0;
  reset_counters();
  SimWorkspace ws;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    const std::string what = std::string("side replay of ") +
                             kind_name(req.kind) + " request " +
                             std::to_string(i);
    const ValidatedRequest v = validate_request(req.text, budget);
    if (!v.ok()) {
      continue;  // the daemon rejects it; check_round checks that
    }
    checker.attempt();
    const SimulationConfig& config = v.config;
    const std::pair<int, std::uint64_t> key{config.chiplets,
                                            config.knobs.seed};
    auto& ctx = contexts[key];
    // The engine's prepare stage: a failure here rejects the request.
    VlFaultSet faults;
    FaultTimeline timeline;
    std::unique_ptr<TrafficGenerator> traffic;
    try {
      if (!ctx) {
        ctx = std::make_unique<ExperimentContext>(
            ExperimentContext::reference(config.chiplets, config.knobs.seed));
      }
      faults = config.faults(ctx->topo());
      timeline = config.fault_events(ctx->topo());
      traffic = config.make_traffic(ctx->topo());
    } catch (const std::exception& e) {
      checker.expect(rows[i].outcome == "rejected",
                     what + ": prepare stage threw (" + e.what() +
                         ") but the daemon's row is " + rows[i].outcome);
      continue;
    }
    try {
      if (config.algorithm == Algorithm::deft &&
          config.vl_strategy == VlStrategy::table &&
          with_tables.insert(key).second) {
        const std::int64_t t = now_ns();
        ctx->vl_tables();
        tables_ns += now_ns() - t;
        ++tables;
      }
      if (config.algorithm == Algorithm::mtr && with_plan.insert(key).second) {
        const std::int64_t t = now_ns();
        ctx->mtr_plan();
        plan_ns += now_ns() - t;
      }
      std::unique_ptr<RoutingAlgorithm> alg;
      {
        const ScopedSpan span(&tracer, "routing.make_algorithm");
        alg = ctx->make_algorithm(config.algorithm, faults,
                                  config.knobs.num_vcs, config.vl_strategy);
      }
      CountingRouting routing(*alg);
      CountingTraffic counted(*traffic);
      Simulator sim(ctx->topo(), routing, counted, config.knobs, faults,
                    timeline.empty() ? nullptr : &timeline,
                    config.fault_policy);
      SimStepper stepper;
      {
        const ScopedSpan span(&tracer, "sim.start");
        stepper.start(sim, ws);
      }
      const std::int64_t a0 = now_ns();
      {
        const ScopedSpan span(&tracer, "sim.advance");
        stepper.advance();
      }
      advance_ns += now_ns() - a0;
      const ScopedSpan span(&tracer, "sim.finish");
      const SimResults& r = stepper.finish();
      ++runs;
      cycles += static_cast<std::uint64_t>(r.cycles_run);
      delivered += r.packets_delivered_measured;
      lost += r.packets_lost;
      expect_same_sim(r, rows[i], what, checker);
    } catch (const std::exception& e) {
      checker.expect(false, what + " threw: " + e.what());
    }
  }
  const CallCounters calls = sum_counters();
  set_call_metrics(layers, calls);
  const char* side = "side replay of the round's valid requests";
  layers.set("vlsel.tables_built", static_cast<double>(tables), 0, side);
  layers.set("vlsel.tables_s", static_cast<double>(tables_ns) * 1e-9, tables,
             side);
  layers.set("routing.mtr_plan_s", static_cast<double>(plan_ns) * 1e-9, 0,
             side);
  const std::size_t algs = tracer.count("routing.make_algorithm");
  layers.set("routing.make_algorithm_calls", static_cast<double>(algs), 0,
             side);
  layers.set("routing.make_algorithm_ms",
             static_cast<double>(tracer.total_ns("routing.make_algorithm")) *
                 1e-6 / static_cast<double>(std::max<std::size_t>(1, algs)),
             algs, "mean per call, side replay");
  layers.set("fault.packets_lost", static_cast<double>(lost), 0, side);
  layers.set("sim.runs", static_cast<double>(runs), 0, side);
  layers.set("sim.cycles", static_cast<double>(cycles), 0, side);
  layers.set("sim.packets_delivered", static_cast<double>(delivered), 0, side);
  layers.set("sim.start_us",
             static_cast<double>(tracer.total_ns("sim.start")) * 1e-3 /
                 static_cast<double>(std::max<std::uint64_t>(1, runs)),
             runs, "mean per run, side replay");
  layers.set("sim.finish_us",
             static_cast<double>(tracer.total_ns("sim.finish")) * 1e-3 /
                 static_cast<double>(std::max<std::uint64_t>(1, runs)),
             runs, "mean per run, side replay");
  const double call_ns = static_cast<double>(calls.route_ns + calls.prepare_ns +
                                             calls.traffic_ns +
                                             calls.set_faults_ns);
  layers.set("sim.advance_self_s",
             (static_cast<double>(advance_ns) - call_ns) * 1e-9, runs,
             "advance() minus decorated calls, side replay");
  layers.set("sim.ns_per_cycle",
             static_cast<double>(advance_ns) /
                 static_cast<double>(std::max<std::uint64_t>(1, cycles)),
             0, "advance() per cycle, side replay (mostly idle cycles)");
  std::vector<double> run_ms;
  for (const double ns : tracer.durations_ns("sim.advance")) {
    run_ms.push_back(ns * 1e-6);
  }
  const Tail tail = tail_percentile(run_ms);
  layers.set("sim.run_ms_p50", percentile(run_ms, 50), run_ms.size(),
             "advance() per run, side replay");
  layers.set("sim.run_ms_p99", tail.value, tail.samples,
             "p" + std::to_string(static_cast<int>(tail.percentile)) +
                 " with " + std::to_string(tail.beyond) + " beyond");
  layers.note("sim.flit_hops", "not measurable: result rows carry no flit "
                               "hops");
  layers.note("sim.ns_per_flit_hop", "not measurable: as sim.flit_hops");

  // Snapshot of a paused stepper of the long (checkpointed) scenario.
  for (const Request& req : requests) {
    if (req.kind != Kind::long_run) {
      continue;
    }
    const SimulationConfig config = validate_request(req.text, budget).config;
    const ExperimentContext& ctx =
        *contexts.at({config.chiplets, config.knobs.seed});
    const auto make = [&](std::unique_ptr<RoutingAlgorithm>& alg,
                          std::unique_ptr<TrafficGenerator>& traffic) {
      alg = ctx.make_algorithm(config.algorithm, {}, config.knobs.num_vcs,
                               config.vl_strategy);
      traffic = config.make_traffic(ctx.topo());
      return std::make_unique<Simulator>(ctx.topo(), *alg, *traffic,
                                         config.knobs);
    };
    std::unique_ptr<RoutingAlgorithm> alg;
    std::unique_ptr<TrafficGenerator> traffic;
    auto sim = make(alg, traffic);
    SimWorkspace ws_a;
    SimStepper stepper;
    stepper.start(*sim, ws_a);
    stepper.advance(100'000);
    std::int64_t t = now_ns();
    const std::vector<std::uint8_t> image = save_snapshot(stepper);
    const double save_us = static_cast<double>(now_ns() - t) * 1e-3;
    std::unique_ptr<RoutingAlgorithm> alg_b;
    std::unique_ptr<TrafficGenerator> traffic_b;
    auto sim_b = make(alg_b, traffic_b);
    SimWorkspace ws_b;
    SimStepper restored;
    t = now_ns();
    restore_snapshot(image, *sim_b, restored, ws_b);
    const double restore_us = static_cast<double>(now_ns() - t) * 1e-3;
    layers.set("snapshot.save_us", save_us, 1,
               "save_snapshot at cycle 100000 of the checkpointed scenario");
    layers.set("snapshot.restore_us", restore_us, 1,
               "restore_snapshot of that image");
    layers.set("snapshot.bytes", static_cast<double>(image.size()), 1);
    break;
  }
}

}  // namespace

Outcome run_campaign(const Options& options) {
  Outcome out;
  Checker checker;
  const bool pinned = options.seed == kDefaultSeed;
  const int clients = options.threads;
  const Topology topo4(make_reference_spec(4));
  const Topology topo6(make_reference_spec(6));
  const fs::path root = options.workdir / "campaign";

  if (options.trace) {
    Tracer tracer;
    const std::vector<Request> requests =
        make_round(options.seed, 0, topo4, topo6);
    Round plain;
    {
      auto service = set_up(options, root / "untraced", nullptr);
      plain = run_round(*service, requests, "r0", clients, nullptr);
    }
    LayerMetrics layers;
    Round traced;
    {
      auto service = set_up(options, root / "traced", &tracer);
      const ArtifactCache::Counters c0 =
          service->daemon().engine().cache().counters();
      traced = run_round(*service, requests, "r0", clients, &tracer);
      const ArtifactCache::Counters c1 =
          service->daemon().engine().cache().counters();
      layers.set("service.cache_context_hits",
                 static_cast<double>(c1.context_hits - c0.context_hits));
      layers.set("service.cache_context_misses",
                 static_cast<double>(c1.context_misses - c0.context_misses));
      layers.set("service.cache_algorithm_hits",
                 static_cast<double>(c1.algorithm_hits - c0.algorithm_hits));
      layers.set("service.cache_algorithm_misses",
                 static_cast<double>(c1.algorithm_misses -
                                     c0.algorithm_misses));
      const std::vector<double> passes = service->pass_ms();
      layers.set("service.pass_ms", median(passes), passes.size(),
                 "median run_pass that wrote rows");
    }
    check_round(plain, requests, nullptr, pinned, checker);
    check_round(traced, requests, &plain, pinned, checker);
    out.notes.push_back("untraced digest " + hex64(plain.digest) +
                        ", traced digest " + hex64(traced.digest) +
                        (plain.digest == traced.digest ? " (identical)"
                                                       : " (DIFFERENT)"));
    const std::size_t validates = tracer.count("service.validate");
    layers.set("service.validate_us",
               static_cast<double>(tracer.total_ns("service.validate")) *
                   1e-3 / static_cast<double>(std::max<std::size_t>(1, validates)),
               validates, "side call per request text");
    double sim_s = 0.0;
    double row_s = 0.0;
    for (const RowResult& row : plain.rows) {
      sim_s += row.seconds;
      row_s += row.latency_ms * 1e-3;
    }
    layers.set("service.sim_share", sim_s / row_s, plain.rows.size(),
               "untraced: sum of row seconds / sum of row latency");
    layers.set("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0, 1,
               "traced round makespan / untraced - 1");
    side_replay(requests, traced.rows, tracer, layers, checker);
    layers.note("core.pool_busy_frac",
                "not measurable: the engine's pool is internal");
    out.metrics = layers.all();
    tracer.write_json(options.workdir / "trace_campaign.json");
  } else {
    std::vector<double> setups;
    std::unique_ptr<Service> service;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      service.reset();
      const std::int64_t s0 = now_ns();
      service = set_up(options, root / ("setup" + std::to_string(rep)),
                       nullptr);
      setups.push_back(static_cast<double>(now_ns() - s0) * 1e-9);
    }
    std::vector<Round> rounds;
    std::vector<std::vector<Request>> inputs;
    const auto run_next = [&] {
      inputs.push_back(make_round(options.seed, rounds.size(), topo4, topo6));
      rounds.push_back(run_round(*service, inputs.back(),
                                 "r" + std::to_string(rounds.size()), clients,
                                 nullptr));
      check_round(rounds.back(), inputs.back(), nullptr,
                  pinned && rounds.size() == 1, checker);
    };
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
    // At least 1000 rows, so row_p99_ms is a true 99th percentile with 10
    // rows beyond it. Peak RSS is read after that fixed amount of work:
    // every fresh key stays cached, so later rounds would make it depend
    // on how many rounds fit in the time.
    while (rounds.size() * kRoundSize < 1000) {
      run_next();
    }
    const double rss = peak_rss_mb();
    while (now_ns() < deadline) {
      run_next();
    }
    service.reset();
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> cycles_per_s;
    std::vector<double> runs_per_s;
    std::vector<double> row_ms;
    for (const Round& r : rounds) {
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
      cycles_per_s.push_back(static_cast<double>(r.cycles) / r.wall_s);
      runs_per_s.push_back(static_cast<double>(r.rows.size()) / r.wall_s);
      for (const RowResult& row : r.rows) {
        row_ms.push_back(row.latency_ms);
      }
    }
    const Round& first = rounds.front();
    const Tail tail = tail_percentile(row_ms);
    const std::size_t n = rounds.size();
    out.metrics = {
        over_rounds("setup_s", setups, "s",
                    "daemon construction + recovery pass + warming the key "
                    "pool"),
        over_rounds("wall_s", wall, "s",
                    "makespan of one round of " + std::to_string(kRoundSize) +
                        " requests"),
        over_rounds("cpu_s", cpu, "s", "process user+sys per round"),
        {"peak_rss_mb", rss, "MB", 1,
         "process peak RSS after set-up and the first 1000 rows"},
        over_rounds("sim_cycles_per_s", cycles_per_s, "1/s",
                    "simulated cycles of all rows per host second"),
        over_rounds("runs_per_s", runs_per_s, "1/s",
                    "terminal rows per second"),
        {"row_p99_ms", tail.value, "ms", row_ms.size(),
         "submit to durable terminal row, " + tail_note(tail)},
    };
    out.extra = {
        {"row_p50_ms", percentile(row_ms, 50), "ms", row_ms.size(),
         "submit to durable terminal row"},
        {"sim_latency_cycles",
         first.latency_sum / static_cast<double>(first.latency_packets),
         "cycles", 0,
         "simulated: mean network latency of measured packets, ok rows of "
         "round 0 (rows carry network, not total, latency)"}};
    out.notes.push_back(mix_note(inputs.front()));
    out.notes.push_back("closed loop: " + std::to_string(clients) +
                        " clients, " + std::to_string(n) + " rounds; round-0 "
                        "digest " + hex64(first.digest));
  }
  std::error_code ec;
  fs::remove_all(root, ec);
  out.attempted = checker.attempted();
  out.failed = checker.failed();
  out.notes.insert(out.notes.end(), checker.messages().begin(),
                   checker.messages().end());
  return out;
}

}  // namespace perfbench
