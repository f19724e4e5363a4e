#include "minidb/vfs.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>

namespace perftrack::minidb {

using util::StorageError;

namespace {

constexpr std::size_t kSectorSize = 512;

class PosixFile final : public VfsFile {
 public:
  PosixFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::size_t read(std::uint64_t offset, void* buf, std::size_t n) override {
    std::size_t total = 0;
    auto* out = static_cast<std::uint8_t*>(buf);
    while (total < n) {
      const ssize_t got = ::pread(fd_, out + total, n - total,
                                  static_cast<off_t>(offset + total));
      if (got < 0) {
        if (errno == EINTR) continue;
        throw StorageError("read failed on " + path_ + ": " + std::strerror(errno));
      }
      if (got == 0) break;  // end of file
      total += static_cast<std::size_t>(got);
    }
    return total;
  }

  void write(std::uint64_t offset, const void* buf, std::size_t n) override {
    std::size_t total = 0;
    const auto* in = static_cast<const std::uint8_t*>(buf);
    while (total < n) {
      const ssize_t put = ::pwrite(fd_, in + total, n - total,
                                   static_cast<off_t>(offset + total));
      if (put < 0) {
        if (errno == EINTR) continue;
        throw StorageError("write failed on " + path_ + ": " + std::strerror(errno));
      }
      total += static_cast<std::size_t>(put);
    }
  }

  void sync() override {
    // EINTR retry matters in ptserverd: SIGTERM during the drain lands on
    // whichever worker is mid-commit, and durability must survive it.
    while (::fsync(fd_) != 0) {
      if (errno == EINTR) continue;
      throw StorageError("fsync failed on " + path_ + ": " + std::strerror(errno));
    }
  }

  void truncate(std::uint64_t size) override {
    while (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      if (errno == EINTR) continue;
      throw StorageError("truncate failed on " + path_ + ": " + std::strerror(errno));
    }
  }

  std::uint64_t size() override {
    const off_t end = ::lseek(fd_, 0, SEEK_END);
    if (end < 0) {
      throw StorageError("seek failed on " + path_ + ": " + std::strerror(errno));
    }
    return static_cast<std::uint64_t>(end);
  }

  bool tryLockExclusive() override {
    // flock locks belong to the open file description, so a second open of
    // the same path conflicts even within one process.
    while (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      if (errno == EINTR) continue;
      if (errno == EWOULDBLOCK) return false;
      throw StorageError("lock failed on " + path_ + ": " + std::strerror(errno));
    }
    return true;
  }

 private:
  int fd_;
  std::string path_;
};

}  // namespace

std::unique_ptr<VfsFile> PosixVfs::open(const std::string& path, bool create) {
  const int flags = O_RDWR | (create ? O_CREAT : 0);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    throw StorageError("cannot open " + path + ": " + std::strerror(errno));
  }
  return std::make_unique<PosixFile>(fd, path);
}

bool PosixVfs::exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

void PosixVfs::remove(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    throw StorageError("cannot remove " + path + ": " + std::strerror(errno));
  }
}

PosixVfs& PosixVfs::instance() {
  static PosixVfs vfs;
  return vfs;
}

// --- fault injection ---------------------------------------------------------

class FaultInjectingFile final : public VfsFile {
 public:
  FaultInjectingFile(FaultInjectingVfs& owner, std::unique_ptr<VfsFile> base)
      : owner_(&owner), base_(std::move(base)) {}

  std::size_t read(std::uint64_t offset, void* buf, std::size_t n) override {
    ++owner_->reads_;
    std::size_t got = base_->read(offset, buf, n);
    if (owner_->plan_.short_read_at != 0 &&
        owner_->reads_ == owner_->plan_.short_read_at && got > 0) {
      got /= 2;  // deliver a short read: half of what the disk returned
    }
    return got;
  }

  void write(std::uint64_t offset, const void* buf, std::size_t n) override {
    owner_->checkCrashed("write");
    if (owner_->countMutatingOp()) {
      // Torn write: a prefix of whole sectors reaches the platter before the
      // "power loss".
      if (owner_->plan_.torn_write && n > 0) {
        std::size_t keep = owner_->plan_.torn_bytes != 0 ? owner_->plan_.torn_bytes
                                                         : n / 2;
        keep = std::min(keep, n);
        keep -= keep % kSectorSize;
        if (keep > 0) base_->write(offset, buf, keep);
      }
      owner_->fire("write");
    }
    base_->write(offset, buf, n);
  }

  void sync() override {
    owner_->checkCrashed("sync");
    if (owner_->countMutatingOp()) owner_->fire("sync");
    base_->sync();
  }

  void truncate(std::uint64_t size) override {
    owner_->checkCrashed("truncate");
    if (owner_->countMutatingOp()) owner_->fire("truncate");
    base_->truncate(size);
  }

  std::uint64_t size() override { return base_->size(); }

  bool tryLockExclusive() override { return base_->tryLockExclusive(); }

 private:
  FaultInjectingVfs* owner_;
  std::unique_ptr<VfsFile> base_;
};

std::unique_ptr<VfsFile> FaultInjectingVfs::open(const std::string& path,
                                                 bool create) {
  checkCrashed("open");
  return std::make_unique<FaultInjectingFile>(*this, base_->open(path, create));
}

void FaultInjectingVfs::remove(const std::string& path) {
  checkCrashed("remove");
  if (countMutatingOp()) fire("remove");
  base_->remove(path);
}

bool FaultInjectingVfs::countMutatingOp() {
  ++mutating_ops_;
  return plan_.fail_at_op != 0 && mutating_ops_ == plan_.fail_at_op;
}

void FaultInjectingVfs::fire(const std::string& what) {
  if (plan_.action == FaultAction::Kill) {
    ::raise(SIGKILL);  // a genuine crash; no cleanup, no destructors
  }
  crashed_ = true;
  throw InjectedFault("injected fault at op " + std::to_string(mutating_ops_) +
                      " (" + what + ")");
}

void FaultInjectingVfs::checkCrashed(const std::string& what) {
  if (crashed_) {
    throw InjectedFault("post-crash " + what + ": the simulated machine is down");
  }
}

}  // namespace perftrack::minidb
