#include "util/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/error.h"
#include "util/telemetry.h"

namespace vbs {

namespace {

thread_local IoFaultInjector* g_io_faults = nullptr;

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw std::runtime_error(what + ": " + path + ": " +
                           std::strerror(errno));
}

// Raw full write with EINTR/short-write retry; no injection.
void write_all(int fd, const char* data, std::size_t n,
               const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed", path);
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

IoFaultInjector::WriteOutcome IoFaultInjector::on_write() {
  const long long op = next_op("write");
  WriteOutcome out{op, false, false};
  if (plan_ == nullptr) return out;
  out.crash = plan_->crashes_at(op);
  if (!out.crash) {
    out.torn = plan_->write_fails(static_cast<std::uint64_t>(op));
  }
  return out;
}

void IoFaultInjector::on_sync() {
  const long long op = next_op("sync");
  if (plan_ == nullptr) return;
  if (plan_->crashes_at(op)) throw CrashInjected{op, "sync"};
  if (plan_->sync_fails(static_cast<std::uint64_t>(op))) {
    throw VbsError(VbsErrc::kFaultInjected, "injected fsync failure");
  }
}

void IoFaultInjector::on_rename() {
  const long long op = next_op("rename");
  if (plan_ == nullptr) return;
  if (plan_->crashes_at(op)) throw CrashInjected{op, "rename"};
  if (plan_->rename_fails(static_cast<std::uint64_t>(op))) {
    throw VbsError(VbsErrc::kFaultInjected, "injected rename failure");
  }
}

void IoFaultInjector::on_remove() {
  const long long op = next_op("remove");
  if (plan_ != nullptr && plan_->crashes_at(op)) {
    throw CrashInjected{op, "remove"};
  }
}

long long IoFaultInjector::next_op(const char*) { return ops_++; }

IoFaultInjector* current_io_faults() { return g_io_faults; }

ScopedIoFaults::ScopedIoFaults(IoFaultInjector* inj) : prev_(g_io_faults) {
  g_io_faults = inj;
}

ScopedIoFaults::~ScopedIoFaults() { g_io_faults = prev_; }

void checked_write(int fd, const void* data, std::size_t n,
                   const std::string& path, IoFaultInjector* faults) {
  const char* bytes = static_cast<const char*>(data);
  telem::counter_add("io.write.ops");
  if (faults != nullptr) {
    const IoFaultInjector::WriteOutcome out = faults->on_write();
    if (out.crash || out.torn) {
      // Tear the write in half: the prefix IS durable (it hit the file),
      // the rest never happened — exactly what death mid-write leaves.
      write_all(fd, bytes, n / 2, path);
      telem::counter_add("io.write.bytes", static_cast<long long>(n / 2));
      if (out.crash) {
        telem::counter_add("io.fault.crash");
        throw CrashInjected{out.op, "write"};
      }
      telem::counter_add("io.fault.torn");
      throw VbsError(VbsErrc::kTornWrite, "injected short write: " + path);
    }
  }
  write_all(fd, bytes, n, path);
  telem::counter_add("io.write.bytes", static_cast<long long>(n));
}

void checked_sync(int fd, const std::string& path, IoFaultInjector* faults) {
  telem::counter_add("io.sync.ops");
  if (faults != nullptr) {
    try {
      faults->on_sync();
    } catch (const CrashInjected&) {
      telem::counter_add("io.fault.crash");
      throw;
    } catch (const VbsError&) {
      telem::counter_add("io.fault.sync_fail");
      throw;
    }
  }
  if (::fsync(fd) != 0) throw_errno("fsync failed", path);
}

void checked_rename(const std::string& from, const std::string& to,
                    IoFaultInjector* faults) {
  telem::counter_add("io.rename.ops");
  if (faults != nullptr) {
    try {
      faults->on_rename();
    } catch (const CrashInjected&) {
      telem::counter_add("io.fault.crash");
      throw;
    } catch (const VbsError&) {
      telem::counter_add("io.fault.rename_fail");
      throw;
    }
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    throw_errno("rename failed", from + " -> " + to);
  }
}

void checked_remove(const std::string& path, IoFaultInjector* faults) {
  telem::counter_add("io.remove.ops");
  if (faults != nullptr) {
    try {
      faults->on_remove();
    } catch (const CrashInjected&) {
      telem::counter_add("io.fault.crash");
      throw;
    }
  }
  std::remove(path.c_str());  // missing file is fine
}

void append_bytes(const std::string& path, const std::string& data,
                  IoFaultInjector* faults) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) throw_errno("cannot open for append", path);
  try {
    checked_write(fd, data.data(), data.size(), path, faults);
    checked_sync(fd, path, faults);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("cannot open for reading", path);
  std::string out;
  struct stat st{};
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out.reserve(static_cast<std::size_t>(st.st_size));
  }
  char chunk[1 << 14];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      const int err = errno;
      ::close(fd);
      errno = err;
      throw_errno("read failed", path);
    }
  }
  ::close(fd);
  return out;
}

AtomicFile::AtomicFile(const std::string& path, IoFaultInjector* faults)
    : path_(path),
      tmp_path_(path + ".tmp"),
      faults_(faults != nullptr ? faults : current_io_faults()) {
  // A device or pipe (say --out /dev/null) must not be renamed over and
  // has no old contents to keep: it is written in place.
  struct stat st{};
  in_place_ = ::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
  if (in_place_) tmp_path_ = path;
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) throw_errno("cannot open for writing", tmp_path_);
}

AtomicFile::~AtomicFile() {
  if (fd_ >= 0) ::close(fd_);
  // A simulated crash leaves the temp file behind, exactly as real process
  // death would: readers must tolerate (and may clean) orphaned *.tmp.
  if (!committed_ && !crashed_ && !in_place_) std::remove(tmp_path_.c_str());
}

void AtomicFile::write(const void* data, std::size_t n) {
  try {
    checked_write(fd_, data, n, tmp_path_, faults_);
  } catch (const CrashInjected&) {
    crashed_ = true;
    throw;
  }
}

void AtomicFile::commit() {
  if (in_place_) {
    ::close(fd_);
    fd_ = -1;
    committed_ = true;
    return;
  }
  try {
    checked_sync(fd_, tmp_path_, faults_);
    ::close(fd_);
    fd_ = -1;
    checked_rename(tmp_path_, path_, faults_);
  } catch (const CrashInjected&) {
    crashed_ = true;
    throw;
  }
  committed_ = true;
}

}  // namespace vbs
