// Spool-directory plumbing for the campaign daemon: request discovery,
// transient-I/O-tolerant reads, atomic publication and the resumable
// shutdown manifest.
//
// Protocol: one request per "<id>.cfg" file in the spool directory.
// Producers publish atomically (write "<id>.cfg.tmp", then rename), so
// the daemon never observes a half-written request. A request file stays
// on disk until its result row has been flushed - the spool itself is the
// durable queue, which is what makes the shutdown manifest resumable:
// whatever the manifest lists is still sitting in the spool.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

namespace deft {

/// Extension of ready request files.
inline constexpr const char* kSpoolExtension = ".cfg";

/// Sorted (by filename) list of ready request files in `dir`. A missing
/// or unreadable directory yields an empty list - the daemon treats that
/// as "nothing to do", not as a crash.
std::vector<std::filesystem::path> scan_spool(
    const std::filesystem::path& dir);

/// Reads a whole file, retrying transient failures (`attempts` total
/// tries) with exponential backoff starting at `base_backoff_ms`.
/// Returns nullopt once every attempt failed.
std::optional<std::string> read_file_with_retry(
    const std::filesystem::path& path, int attempts = 4,
    int base_backoff_ms = 5);

/// Atomic publish: writes "<path>.tmp" and renames it over `path`.
/// Returns false (never throws) when any step fails.
bool atomic_write_file(const std::filesystem::path& path,
                       const std::string& content);

/// Writes the resumable shutdown manifest: one absolute request-file path
/// per line, atomically. Re-submitting those files (or pointing a fresh
/// daemon at the same spool) resumes the campaign.
bool write_manifest(const std::filesystem::path& manifest,
                    const std::vector<std::filesystem::path>& unstarted);

/// Append-only line stream whose appends are *durable*: append_line()
/// returns true only after the bytes and an fsync have both completed, so
/// a line the caller acted on (unlinking a spool file, journalling a
/// commit) survives SIGKILL and power loss. A plain ofstream::flush()
/// only drains userspace buffers into the page cache - the failure mode
/// this class exists to close.
class DurableAppender {
 public:
  DurableAppender() = default;
  ~DurableAppender() { close(); }
  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;

  /// Opens (creating if missing) `path` for appending. Returns false on
  /// failure; the appender stays closed.
  bool open(const std::filesystem::path& path);
  bool is_open() const { return fd_ >= 0; }

  /// Appends `line` plus a newline and fsyncs. Returns false when any
  /// step fails (short write, fsync error) - the caller must not treat
  /// the line as durable then.
  bool append_line(const std::string& line);

  void close();

 private:
  int fd_ = -1;
};

/// Repairs a line-oriented file after a torn final append (a crash mid
/// write): truncates `path` back to its last newline. Returns the number
/// of bytes dropped (0 when the file is absent, empty, intact or not a
/// regular file).
std::size_t truncate_partial_trailing_line(const std::filesystem::path& path);

}  // namespace deft
