#include "sim/io/file_sink.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "sim/metric_names.hpp"
#include "sim/sim_context.hpp"

#if defined(_WIN32)
#include <fcntl.h>
#include <io.h>
#include <sys/stat.h>
#else
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace tracemod::sim::io {

// --- errors and counters ----------------------------------------------------

std::string IoError::describe() const {
  std::string out = std::string(to_string(op)) + " failed on " + path + ": ";
  out += err != 0 ? std::strerror(err) : "unknown error";
  if (!detail.empty()) out += " (" + detail + ")";
  return out;
}

IoResult IoResult::failure(IoOp op, int err, std::string path,
                           std::string detail) {
  IoResult r;
  r.ok = false;
  r.error = IoError{op, err, std::move(path), std::move(detail)};
  return r;
}

IoCounters& io_counters() {
  static IoCounters counters;
  return counters;
}

namespace {

std::mutex g_notes_mu;
std::vector<std::string>& notes_locked() {
  static std::vector<std::string> notes;
  return notes;
}

void count_failure(const IoResult& r) {
  if (r.ok) return;
  if (r.error.op == IoOp::kFsync) {
    io_counters().fsync_failures.fetch_add(1, std::memory_order_relaxed);
  } else {
    io_counters().write_errors.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void note_degraded_plane(const std::string& plane, const IoError& error) {
  io_counters().degraded_planes.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_notes_mu);
  notes_locked().push_back(plane + " plane degraded: " + error.describe());
}

std::vector<std::string> degraded_plane_notes() {
  std::lock_guard<std::mutex> lock(g_notes_mu);
  return notes_locked();
}

void export_io_metrics(MetricsRegistry& metrics) {
  const IoCounters& c = io_counters();
  metrics.counter(metric::kIoWriteErrors) =
      c.write_errors.load(std::memory_order_relaxed);
  metrics.counter(metric::kIoFsyncFailures) =
      c.fsync_failures.load(std::memory_order_relaxed);
  metrics.counter(metric::kIoDegradedPlanes) =
      c.degraded_planes.load(std::memory_order_relaxed);
  metrics.counter(metric::kStatusPublishFailed) =
      c.status_publish_failures.load(std::memory_order_relaxed);
}

// --- portability shims ------------------------------------------------------

namespace {

#if defined(_WIN32)

int sys_open(const char* path, bool append) {
  int fd = -1;
  ::_sopen_s(&fd, path,
             _O_WRONLY | _O_CREAT | _O_BINARY |
                 (append ? _O_APPEND : _O_TRUNC),
             _SH_DENYNO, _S_IREAD | _S_IWRITE);
  return fd;
}
long sys_write(int fd, const void* data, std::size_t size) {
  return ::_write(fd, data, static_cast<unsigned>(size));
}
long sys_pwrite(int fd, const void* data, std::size_t size,
                std::uint64_t offset) {
  if (::_lseeki64(fd, static_cast<long long>(offset), SEEK_SET) < 0) {
    return -1;
  }
  return ::_write(fd, data, static_cast<unsigned>(size));
}
int sys_fdatasync(int fd) { return ::_commit(fd); }
int sys_ftruncate(int fd, std::uint64_t size) {
  return ::_chsize_s(fd, static_cast<long long>(size));
}
int sys_close(int fd) { return ::_close(fd); }
std::int64_t sys_end_offset(int fd) {
  return ::_lseeki64(fd, 0, SEEK_END);
}

#else

int sys_open(const char* path, bool append) {
  return ::open(path, O_WRONLY | O_CREAT | (append ? 0 : O_TRUNC), 0644);
}
long sys_write(int fd, const void* data, std::size_t size) {
  return static_cast<long>(::write(fd, data, size));
}
long sys_pwrite(int fd, const void* data, std::size_t size,
                std::uint64_t offset) {
  return static_cast<long>(
      ::pwrite(fd, data, size, static_cast<off_t>(offset)));
}
int sys_fdatasync(int fd) {
#if defined(__APPLE__)
  return ::fsync(fd);
#else
  return ::fdatasync(fd);
#endif
}
int sys_ftruncate(int fd, std::uint64_t size) {
  return ::ftruncate(fd, static_cast<off_t>(size));
}
int sys_close(int fd) { return ::close(fd); }
std::int64_t sys_end_offset(int fd) {
  return static_cast<std::int64_t>(::lseek(fd, 0, SEEK_END));
}

#endif

}  // namespace

// --- FileSink ---------------------------------------------------------------

FileSink::~FileSink() {
  if (fd_ >= 0) sys_close(fd_);
}

IoResult FileSink::open(const std::string& path, Mode mode, FaultPlan* plan) {
  if (fd_ >= 0) {
    sys_close(fd_);
    fd_ = -1;
  }
  path_ = path;
  plan_ = resolve_plan(plan);
  offset_ = 0;

  if (plan_ != nullptr) {
    const FaultDecision d = plan_->next(IoOp::kOpen, path, 0);
    if (d.fault() && d.kind != FaultKind::kEintr) {
      auto r = IoResult::failure(IoOp::kOpen, d.err, path,
                                 std::string("injected ") +
                                     to_string(d.kind));
      count_failure(r);
      return r;
    }
  }
  fd_ = sys_open(path.c_str(), mode == Mode::kAppend);
  if (fd_ < 0) {
    auto r = IoResult::failure(IoOp::kOpen, errno, path);
    count_failure(r);
    return r;
  }
  if (mode == Mode::kAppend) {
    const std::int64_t end = sys_end_offset(fd_);
    if (end < 0) {
      auto r = IoResult::failure(IoOp::kOpen, errno, path, "seek to end");
      count_failure(r);
      sys_close(fd_);
      fd_ = -1;
      return r;
    }
    offset_ = static_cast<std::uint64_t>(end);
  }
  return IoResult::success();
}

IoResult FileSink::write(const void* data, std::size_t size) {
  if (fd_ < 0) {
    return IoResult::failure(IoOp::kWrite, EBADF, path_, "sink not open");
  }
  const char* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < size) {
    std::size_t chunk = size - done;
    if (plan_ != nullptr) {
      const FaultDecision d = plan_->next(IoOp::kWrite, path_, chunk);
      switch (d.kind) {
        case FaultKind::kNone:
          break;
        case FaultKind::kEintr:
          continue;  // interrupted before transfer; retry is a fresh op
        case FaultKind::kShortWrite:
        case FaultKind::kCrash: {
          // A prefix lands for real (the bytes a torn write leaves on
          // disk), then the operation reports failure.
          std::size_t landed = 0;
          while (landed < d.write_len) {
            const long n =
                sys_write(fd_, p + done + landed, d.write_len - landed);
            if (n <= 0) break;
            landed += static_cast<std::size_t>(n);
          }
          done += landed;
          offset_ += landed;
          auto r = IoResult::failure(
              IoOp::kWrite, d.err, path_,
              "short write: " + std::to_string(done) + " of " +
                  std::to_string(size) + " bytes landed (injected " +
                  to_string(d.kind) + ")");
          count_failure(r);
          return r;
        }
        default: {
          auto r = IoResult::failure(IoOp::kWrite, d.err, path_,
                                     "short write: " + std::to_string(done) +
                                         " of " + std::to_string(size) +
                                         " bytes landed (injected " +
                                         to_string(d.kind) + ")");
          count_failure(r);
          return r;
        }
      }
    }
    const long n = sys_write(fd_, p + done, chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      auto r = IoResult::failure(IoOp::kWrite, errno, path_,
                                 "short write: " + std::to_string(done) +
                                     " of " + std::to_string(size) +
                                     " bytes landed");
      count_failure(r);
      return r;
    }
    done += static_cast<std::size_t>(n);
    offset_ += static_cast<std::size_t>(n);
  }
  return IoResult::success();
}

IoResult FileSink::write_at(std::uint64_t offset, const void* data,
                            std::size_t size) {
  if (fd_ < 0) {
    return IoResult::failure(IoOp::kWrite, EBADF, path_, "sink not open");
  }
  const char* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < size) {
    if (plan_ != nullptr) {
      const FaultDecision d = plan_->next(IoOp::kWrite, path_, size - done);
      if (d.kind == FaultKind::kEintr) continue;
      if (d.fault()) {
        std::size_t landed = 0;
        while (landed < d.write_len) {
          const long n = sys_pwrite(fd_, p + done + landed,
                                    d.write_len - landed,
                                    offset + done + landed);
          if (n <= 0) break;
          landed += static_cast<std::size_t>(n);
        }
        auto r = IoResult::failure(IoOp::kWrite, d.err, path_,
                                   std::string("positional write (injected ") +
                                       to_string(d.kind) + ")");
        count_failure(r);
        return r;
      }
    }
    const long n = sys_pwrite(fd_, p + done, size - done, offset + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      auto r = IoResult::failure(IoOp::kWrite, errno, path_,
                                 "positional write");
      count_failure(r);
      return r;
    }
    done += static_cast<std::size_t>(n);
  }
  return IoResult::success();
}

IoResult FileSink::datasync() {
  if (fd_ < 0) {
    return IoResult::failure(IoOp::kFsync, EBADF, path_, "sink not open");
  }
  if (plan_ != nullptr) {
    const FaultDecision d = plan_->next(IoOp::kFsync, path_, 0);
    if (d.fault() && d.kind != FaultKind::kEintr) {
      auto r = IoResult::failure(IoOp::kFsync, d.err, path_,
                                 std::string("injected ") +
                                     to_string(d.kind));
      count_failure(r);
      return r;
    }
  }
  if (sys_fdatasync(fd_) != 0) {
    auto r = IoResult::failure(IoOp::kFsync, errno, path_);
    count_failure(r);
    return r;
  }
  return IoResult::success();
}

IoResult FileSink::truncate_to(std::uint64_t size) {
  if (fd_ < 0) {
    return IoResult::failure(IoOp::kTruncate, EBADF, path_, "sink not open");
  }
  if (plan_ != nullptr) {
    const FaultDecision d = plan_->next(IoOp::kTruncate, path_, 0);
    if (d.fault() && d.kind != FaultKind::kEintr) {
      auto r = IoResult::failure(IoOp::kTruncate, d.err, path_,
                                 std::string("injected ") +
                                     to_string(d.kind));
      count_failure(r);
      return r;
    }
  }
  if (sys_ftruncate(fd_, size) != 0) {
    auto r = IoResult::failure(IoOp::kTruncate, errno, path_);
    count_failure(r);
    return r;
  }
  if (offset_ > size) offset_ = size;
  return IoResult::success();
}

IoResult FileSink::close() {
  if (fd_ < 0) return IoResult::success();
  if (plan_ != nullptr) {
    const FaultDecision d = plan_->next(IoOp::kClose, path_, 0);
    if (d.kind == FaultKind::kCrash || d.kind == FaultKind::kCrashed) {
      // The process "died" with the descriptor open; the kernel closes it
      // for real, but nothing after this call may assume success.
      sys_close(fd_);
      fd_ = -1;
      auto r = IoResult::failure(IoOp::kClose, d.err, path_,
                                 std::string("injected ") +
                                     to_string(d.kind));
      count_failure(r);
      return r;
    }
  }
  const int rc = sys_close(fd_);
  fd_ = -1;
  if (rc != 0) {
    auto r = IoResult::failure(IoOp::kClose, errno, path_);
    count_failure(r);
    return r;
  }
  return IoResult::success();
}

// --- path operations --------------------------------------------------------

IoResult rename_path(const std::string& from, const std::string& to,
                     FaultPlan* plan) {
  FaultPlan* p = resolve_plan(plan);
  if (p != nullptr) {
    const FaultDecision d = p->next(IoOp::kRename, to, 0);
    if (d.fault() && d.kind != FaultKind::kEintr) {
      auto r = IoResult::failure(IoOp::kRename, d.err, to,
                                 std::string("injected ") +
                                     to_string(d.kind) + " renaming " + from);
      count_failure(r);
      return r;
    }
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    auto r = IoResult::failure(IoOp::kRename, errno, to, "renaming " + from);
    count_failure(r);
    return r;
  }
  return IoResult::success();
}

IoResult remove_path(const std::string& path, FaultPlan* plan) {
  FaultPlan* p = resolve_plan(plan);
  if (p != nullptr) {
    const FaultDecision d = p->next(IoOp::kUnlink, path, 0);
    if (d.fault() && d.kind != FaultKind::kEintr) {
      return IoResult::failure(IoOp::kUnlink, d.err, path,
                               std::string("injected ") + to_string(d.kind));
    }
  }
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    return IoResult::failure(IoOp::kUnlink, errno, path);
  }
  return IoResult::success();
}

IoResult sync_parent_dir(const std::string& path, FaultPlan* plan) {
#if defined(_WIN32)
  (void)path;
  (void)plan;
  return IoResult::success();  // no directory fds on Windows
#else
  std::string dir = path;
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  if (dir.empty()) dir.push_back('/');

  FaultPlan* p = resolve_plan(plan);
  if (p != nullptr) {
    const FaultDecision d = p->next(IoOp::kFsync, dir, 0);
    if (d.fault() && d.kind != FaultKind::kEintr) {
      auto r = IoResult::failure(IoOp::kFsync, d.err, dir,
                                 std::string("injected ") +
                                     to_string(d.kind) + " (directory)");
      count_failure(r);
      return r;
    }
  }
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    auto r = IoResult::failure(IoOp::kFsync, errno, dir, "open directory");
    count_failure(r);
    return r;
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    auto r = IoResult::failure(IoOp::kFsync, err, dir, "directory fsync");
    count_failure(r);
    return r;
  }
  return IoResult::success();
#endif
}

}  // namespace tracemod::sim::io
