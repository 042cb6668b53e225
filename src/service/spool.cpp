#include "service/spool.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

namespace deft {

namespace fs = std::filesystem;

std::vector<fs::path> scan_spool(const fs::path& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) {
      continue;
    }
    if (entry.path().extension() == kSpoolExtension) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::optional<std::string> read_file_with_retry(const fs::path& path,
                                                int attempts,
                                                int base_backoff_ms) {
  int backoff_ms = base_backoff_ms;
  for (int attempt = 0; attempt < std::max(1, attempts); ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) {
      continue;
    }
    std::ostringstream content;
    content << in.rdbuf();
    if (in.bad()) {
      continue;  // a failed read mid-stream is retried like a failed open
    }
    return content.str();
  }
  return std::nullopt;
}

bool atomic_write_file(const fs::path& path, const std::string& content) {
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      return false;
    }
    out << content;
    out.flush();
    if (!out.good()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

bool DurableAppender::open(const fs::path& path) {
  close();
  int fd = -1;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  } while (fd < 0 && errno == EINTR);
  fd_ = fd;
  return fd_ >= 0;
}

bool DurableAppender::append_line(const std::string& line) {
  if (fd_ < 0) {
    return false;
  }
  std::string buf = line;
  buf += '\n';
  std::size_t written = 0;
  while (written < buf.size()) {
    const ::ssize_t n =
        ::write(fd_, buf.data() + written, buf.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  int rc = 0;
  do {
    rc = ::fsync(fd_);
  } while (rc < 0 && errno == EINTR);
  return rc == 0;
}

void DurableAppender::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::size_t truncate_partial_trailing_line(const fs::path& path) {
  std::error_code ec;
  if (!fs::is_regular_file(path, ec)) {
    return 0;  // nothing to repair in a device or pipe (and no end to read)
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return 0;
  }
  std::ostringstream content_stream;
  content_stream << in.rdbuf();
  const std::string content = content_stream.str();
  in.close();
  if (content.empty() || content.back() == '\n') {
    return 0;
  }
  const std::size_t keep = content.rfind('\n') + 1;  // npos + 1 == 0
  const std::size_t dropped = content.size() - keep;
  if (::truncate(path.c_str(), static_cast<::off_t>(keep)) != 0) {
    return 0;
  }
  return dropped;
}

bool write_manifest(const fs::path& manifest,
                    const std::vector<fs::path>& unstarted) {
  std::string content;
  for (const fs::path& p : unstarted) {
    content += p.string();
    content += '\n';
  }
  return atomic_write_file(manifest, content);
}

}  // namespace deft
