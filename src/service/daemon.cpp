#include "service/daemon.hpp"

#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <fstream>
#include <stdexcept>

namespace deft {

namespace fs = std::filesystem;

namespace {

/// Minimal JSONL field read (rows come from ResultRow::to_json).
std::string json_string_field(const std::string& row, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = row.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  std::string out;
  for (std::size_t i = at + needle.size(); i < row.size(); ++i) {
    if (row[i] == '\\' && i + 1 < row.size()) {
      out += row[i + 1];
      ++i;
      continue;
    }
    if (row[i] == '"') {
      break;
    }
    out += row[i];
  }
  return out;
}

bool outcome_name_terminal(const std::string& outcome) {
  return outcome == "ok" || outcome == "failed" || outcome == "deadlocked" ||
         outcome == "timeout" || outcome == "rejected";
}

/// Lines of a regular file. A missing file, or a device or pipe standing
/// in for one, has no durable lines to replay.
std::vector<std::string> replay_lines(const fs::path& path) {
  std::vector<std::string> lines;
  std::error_code ec;
  if (!fs::is_regular_file(path, ec)) {
    return lines;
  }
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

/// inotify watch for request files landing in the spool directory: an
/// atomic publish (rename) or a direct write. fd() is -1 when the watch
/// cannot be set up; the daemon's idle wait is then bounded by poll_ms
/// alone.
class SpoolWatch {
 public:
  explicit SpoolWatch(const fs::path& dir)
      : fd_(inotify_init1(IN_CLOEXEC | IN_NONBLOCK)) {
    if (fd_ >= 0 &&
        inotify_add_watch(fd_, dir.c_str(), IN_MOVED_TO | IN_CLOSE_WRITE) <
            0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~SpoolWatch() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  SpoolWatch(const SpoolWatch&) = delete;
  SpoolWatch& operator=(const SpoolWatch&) = delete;

  int fd() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

CampaignDaemon::CampaignDaemon(DaemonOptions options)
    : options_(std::move(options)), engine_(options_.engine) {
  std::error_code ec;
  fs::create_directories(options_.spool_dir, ec);
  if (!options_.engine.checkpoint_dir.empty()) {
    fs::create_directories(options_.engine.checkpoint_dir, ec);
  }
  recover();
  if (!results_.open(options_.results_path)) {
    throw std::runtime_error("campaignd: cannot open results stream " +
                             options_.results_path.string());
  }
  if (!options_.journal_path.empty() &&
      !journal_.open(options_.journal_path)) {
    throw std::runtime_error("campaignd: cannot open journal " +
                             options_.journal_path.string());
  }
}

fs::path CampaignDaemon::checkpoint_path(const std::string& id) const {
  return options_.engine.checkpoint_dir / (id + kCheckpointExtension);
}

void CampaignDaemon::journal(const std::string& record) {
  if (journal_.is_open()) {
    journal_.append_line(record);
  }
}

void CampaignDaemon::recover() {
  // A SIGKILL mid-append can leave a torn final line in either stream;
  // the partial row's request is then *not* terminal (its spool file is
  // still present, so it simply re-runs) and the partial journal record
  // is redundant with the results scan below.
  truncate_partial_trailing_line(options_.results_path);
  if (!options_.journal_path.empty()) {
    truncate_partial_trailing_line(options_.journal_path);
  }

  // The durable terminal rows are the source of truth for completion:
  // a row is fsync'd before its "committed" record and before the spool
  // unlink, so anything those later steps missed is reconciled here.
  for (const std::string& line : replay_lines(options_.results_path)) {
    if (outcome_name_terminal(json_string_field(line, "outcome"))) {
      done_ids_.insert(json_string_field(line, "id"));
    }
  }

  std::set<std::string> committed;
  if (!options_.journal_path.empty()) {
    for (const std::string& line : replay_lines(options_.journal_path)) {
      if (line.rfind("committed ", 0) == 0) {
        committed.insert(line.substr(10));
      }
    }
  }

  // Reconcile: a spool file whose id already has a durable terminal row
  // was killed between the row fsync and the unlink - finish the unlink
  // now (and journal the commit it never got) instead of re-running it
  // into a duplicate row. Spool files without terminal rows are left for
  // the normal scan; the engine resumes them from their checkpoints.
  DurableAppender recovery_journal;
  for (const fs::path& file : scan_spool(options_.spool_dir)) {
    const std::string id = file.stem().string();
    if (done_ids_.count(id) == 0) {
      continue;
    }
    std::error_code ec;
    fs::remove(file, ec);
    fs::remove(checkpoint_path(id), ec);
    if (!options_.journal_path.empty() && committed.count(id) == 0 &&
        (recovery_journal.is_open() ||
         recovery_journal.open(options_.journal_path))) {
      recovery_journal.append_line("committed " + id);
    }
    ++recovered_;
  }
  // Checkpoints of completed requests whose spool file was already gone.
  if (!options_.engine.checkpoint_dir.empty()) {
    std::error_code ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(options_.engine.checkpoint_dir, ec)) {
      if (ec || entry.path().extension() != kCheckpointExtension) {
        continue;
      }
      if (done_ids_.count(entry.path().stem().string()) != 0) {
        std::error_code remove_ec;
        fs::remove(entry.path(), remove_ec);
      }
    }
  }
}

void CampaignDaemon::emit(const ResultRow& row) {
  // Durable append (write + fsync): once emit returns, the row survives
  // SIGKILL - which is what licenses unlinking the request's spool file.
  // A failed append is fail-stop: throwing here, before the journal's
  // `committed` and the unlink, leaves the request in the spool for the
  // restart's recovery pass to re-run.
  if (!results_.append_line(row.to_json())) {
    throw std::runtime_error("campaignd: cannot make the row of '" + row.id +
                             "' durable in " +
                             options_.results_path.string());
  }
  ++rows_written_;
}

void CampaignDaemon::ingest() {
  // Accept spool files up to the high-water mark; defer the rest with an
  // explicit overloaded row (once per request). Transient read failures
  // are retried with backoff inside read_file_with_retry; a file that
  // stays unreadable is rejected as data, not thrown over.
  for (const fs::path& file : scan_spool(options_.spool_dir)) {
    const std::string path = file.string();
    if (queued_paths_.count(path) != 0 || read_failed_.count(path) != 0) {
      continue;
    }
    const std::string id = file.stem().string();
    if (done_ids_.count(id) != 0) {
      // Already has a durable terminal row (a re-published id, or a file
      // that re-appeared after recovery): never a second row.
      std::error_code ec;
      fs::remove(file, ec);
      continue;
    }
    if (queue_.size() >= options_.queue_high_water) {
      if (deferred_notified_.insert(path).second) {
        ResultRow row;
        row.id = id;
        row.outcome = RequestOutcome::overloaded;
        row.error = "queue high-water mark (" +
                    std::to_string(options_.queue_high_water) +
                    ") reached; request deferred";
        emit(row);
      }
      continue;
    }
    std::optional<std::string> text = read_file_with_retry(
        file, options_.read_attempts, options_.read_backoff_ms);
    if (!text.has_value()) {
      read_failed_.insert(path);
      ResultRow row;
      row.id = id;
      row.outcome = RequestOutcome::rejected;
      row.errors.push_back(
          {0, "spool read failed after " +
                  std::to_string(options_.read_attempts) + " attempts"});
      emit(row);
      continue;
    }
    deferred_notified_.erase(path);
    queued_paths_.insert(path);
    queue_.push_back(CampaignRequest{id, path, std::move(*text)});
  }
}

// The write-ahead order is the whole durability story, per request:
// journal `started` -> run -> results row fsync'd -> journal `committed`
// -> spool unlink + checkpoint removal. A crash between any two steps is
// recovered without losing a request or duplicating a row (see
// recover()).
void CampaignDaemon::dispatch() {
  while (!queue_.empty() && engine_.in_flight() < options_.batch_max) {
    journal("started " + queue_.front().id);
    engine_.submit(std::move(queue_.front()));
    queue_.pop_front();
  }
}

std::size_t CampaignDaemon::commit() {
  const std::vector<CompletedRun> finished = engine_.take_completed();
  for (const CompletedRun& run : finished) {
    emit(run.row);
    done_ids_.insert(run.row.id);
    journal("committed " + run.row.id);
    queued_paths_.erase(run.request.path);
    std::error_code ec;
    if (!run.request.path.empty()) {
      fs::remove(run.request.path, ec);  // best effort; dedupe via done_ids_
    }
    if (!options_.engine.checkpoint_dir.empty()) {
      fs::remove(checkpoint_path(run.request.id), ec);
    }
  }
  return finished.size();
}

void CampaignDaemon::wait(int watch_fd, int timeout_ms) {
  pollfd fds[2] = {{engine_.completion_fd(), POLLIN, 0},
                   {watch_fd, POLLIN, 0}};  // a negative fd is ignored
  if (::poll(fds, 2, timeout_ms) > 0 && (fds[1].revents & POLLIN) != 0) {
    // The events only say "rescan"; the next ingest reads the directory.
    char events[4096];
    while (::read(watch_fd, events, sizeof events) > 0) {
    }
  }
}

void CampaignDaemon::finish_in_flight() {
  while (engine_.in_flight() > 0) {
    wait(-1, -1);
    commit();
  }
}

std::size_t CampaignDaemon::run_pass() {
  const std::size_t rows_before = rows_written_;
  ingest();
  dispatch();
  finish_in_flight();
  return rows_written_ - rows_before;
}

void CampaignDaemon::shutdown() {
  // Everything unstarted is still physically in the spool: the queued
  // requests' files were never unlinked and deferred requests were never
  // read. One scan is the complete resumable set.
  std::vector<fs::path> unstarted;
  for (const fs::path& file : scan_spool(options_.spool_dir)) {
    if (read_failed_.count(file.string()) != 0) {
      continue;  // already terminally rejected
    }
    unstarted.push_back(file);
  }
  write_manifest(options_.manifest_path, unstarted);
}

std::size_t CampaignDaemon::run(const volatile std::sig_atomic_t* stop) {
  const auto stopping = [stop] { return stop != nullptr && *stop != 0; };
  const SpoolWatch watch(options_.spool_dir);
  while (!stopping()) {
    ingest();
    dispatch();
    if (commit() == 0 && !stopping()) {
      wait(watch.fd(), options_.poll_ms);
    }
  }
  // Dispatch has stopped; the runs in flight finish and commit. What
  // remains is queued or still spooled: record it and go down clean.
  finish_in_flight();
  shutdown();
  return rows_written_;
}

}  // namespace deft
