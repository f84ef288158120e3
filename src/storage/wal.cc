#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "faults/crash_points.h"
#include "storage/crc32.h"
#include "storage/io_util.h"

namespace prorp::storage {
namespace {

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out.insert(out.end(), p, p + 4);
}

void PutI64(std::vector<uint8_t>& out, int64_t v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out.insert(out.end(), p, p + 8);
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

int64_t GetI64(const uint8_t* p) {
  int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::vector<uint8_t> EncodePayload(const WalRecord& r) {
  std::vector<uint8_t> payload;
  payload.push_back(static_cast<uint8_t>(r.type));
  PutI64(payload, r.key);
  if (r.type == WalRecord::Type::kDeleteRange) {
    PutI64(payload, r.key2);
  }
  if (r.type == WalRecord::Type::kInsert ||
      r.type == WalRecord::Type::kUpdate) {
    PutU32(payload, static_cast<uint32_t>(r.value.size()));
    payload.insert(payload.end(), r.value.begin(), r.value.end());
  }
  return payload;
}

std::vector<uint8_t> EncodeFrame(const WalRecord& r) {
  std::vector<uint8_t> payload = EncodePayload(r);
  std::vector<uint8_t> frame;
  frame.reserve(payload.size() + 8);
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  PutU32(frame, Crc32(payload.data(), payload.size()));
  return frame;
}

Result<WalRecord> DecodePayload(const uint8_t* p, size_t len) {
  if (len < 9) return Status::Corruption("WAL payload too short");
  WalRecord r;
  r.type = static_cast<WalRecord::Type>(p[0]);
  r.key = GetI64(p + 1);
  size_t off = 9;
  switch (r.type) {
    case WalRecord::Type::kDelete:
      break;
    case WalRecord::Type::kDeleteRange:
      if (len < off + 8) return Status::Corruption("truncated range record");
      r.key2 = GetI64(p + off);
      off += 8;
      break;
    case WalRecord::Type::kInsert:
    case WalRecord::Type::kUpdate: {
      if (len < off + 4) return Status::Corruption("truncated value length");
      uint32_t vlen = GetU32(p + off);
      off += 4;
      if (len < off + vlen) return Status::Corruption("truncated value");
      r.value.assign(p + off, p + off + vlen);
      off += vlen;
      break;
    }
    default:
      return Status::Corruption("unknown WAL record type");
  }
  if (off != len) return Status::Corruption("trailing bytes in WAL record");
  return r;
}

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("open WAL failed: " +
                           std::string(strerror(errno)));
  }
  return std::unique_ptr<WriteAheadLog>(new WriteAheadLog(fd, path));
}

WriteAheadLog::~WriteAheadLog() {
  // Drain any in-flight commit round before closing the fd.  Callers are
  // expected to have joined their appender threads; this only guards
  // against closing mid-write.
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !committing_; });
  }
  if (fd_ >= 0) ::close(fd_);
}

void WriteAheadLog::AcquireCommitSlot(std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [&] { return !committing_; });
  committing_ = true;
}

void WriteAheadLog::ReleaseCommitSlot(std::unique_lock<std::mutex>& lock) {
  committing_ = false;
  lock.unlock();
  cv_.notify_all();
}

Status WriteAheadLog::Append(const WalRecord& record) {
  std::unique_lock<std::mutex> lock(mu_);
  AcquireCommitSlot(lock);
  lock.unlock();
  Status s = AppendExclusive(record);
  lock.lock();
  ReleaseCommitSlot(lock);
  return s;
}

Status WriteAheadLog::AppendExclusive(const WalRecord& record) {
  std::vector<uint8_t> frame = EncodeFrame(record);

  // Crash simulation: the process dies mid-append.  A prefix of the frame
  // (chosen by the armed payload) reaches the file and nothing cleans it
  // up — exactly the torn tail recovery must cope with.
  if (Status crash = faults::HitCrashPoint(faults::kWalAppendPartial);
      !crash.ok()) {
    uint64_t cut =
        faults::CrashPointRegistry::Global().payload() % frame.size();
    if (cut > 0) (void)!::write(fd_, frame.data(), cut);
    return crash;
  }

  size_t intend = frame.size();
  bool disk_full = false;
  if (fault_plan_ != nullptr) {
    if (auto d = fault_plan_->Next(faults::FaultOp::kWalAppend)) {
      switch (d->kind) {
        case faults::FaultKind::kIoError:
          return Status::IoError("injected WAL append fault");
        case faults::FaultKind::kTornWrite:
          intend = d->arg % frame.size();  // live short write, not a crash
          break;
        case faults::FaultKind::kDiskFull:
          // ENOSPC mid-frame: a prefix reaches the medium, then space
          // runs out.  Fail-stop contract: roll back, ack nothing, and
          // surface a distinguishable disk-full error.
          intend = d->arg % frame.size();
          disk_full = true;
          break;
        case faults::FaultKind::kBitFlip: {
          uint64_t bit = d->arg % (frame.size() * 8);
          frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
          break;
        }
        case faults::FaultKind::kMsgDrop:
        case faults::FaultKind::kMsgDuplicate:
        case faults::FaultKind::kMsgDelay:
          break;  // message-only kinds; meaningless at a WAL site
      }
    }
  }

  off_t start = ::lseek(fd_, 0, SEEK_END);
  if (start < 0) return Status::IoError("WAL lseek failed");
  Status written = io::WriteFull(fd_, frame.data(), intend, "WAL append");
  if (!written.ok() || intend != frame.size()) {
    // Roll the file back to the pre-append offset.  Leaving the partial
    // frame in place would make every subsequent append land behind a
    // torn record, unreachable at replay time.
    if (::ftruncate(fd_, start) != 0) {
      return Status::IoError("WAL append failed and rollback failed");
    }
    if (disk_full) {
      return Status::IoError("WAL append failed: disk full (ENOSPC)");
    }
    return written.ok() ? Status::IoError("WAL append failed: short write")
                        : written;
  }
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::AppendDurable(const WalRecord& record) {
  Pending pending;
  pending.frame = EncodeFrame(record);

  std::unique_lock<std::mutex> lock(mu_);
  pending.lsn = ++next_lsn_;
  queue_.push_back(&pending);
  for (;;) {
    if (pending.done) break;
    if (committing_ || paused_for_test_) {
      cv_.wait(lock);
      continue;
    }
    // Leader handoff: this appender found the committer slot free, so it
    // drains the whole queue (its own record included) and commits the
    // batch with one write + one fsync while followers wait.
    committing_ = true;
    std::vector<Pending*> batch(queue_.begin(), queue_.end());
    queue_.clear();
    lock.unlock();

    CommitBatch(batch);

    lock.lock();
    ++stats_.commits;
    stats_.records += batch.size();
    stats_.max_batch = std::max<uint64_t>(stats_.max_batch, batch.size());
    for (Pending* p : batch) {
      if (p->result.ok()) {
        stats_.durable_lsn = std::max(stats_.durable_lsn, p->lsn);
      }
      p->done = true;
    }
    committing_ = false;
    cv_.notify_all();
  }
  if (!pending.result.ok()) return pending.result;
  return pending.lsn;
}

void WriteAheadLog::CommitBatch(const std::vector<Pending*>& batch) {
  auto fail_all = [&](const Status& s) {
    for (Pending* p : batch) {
      // Keep a more specific per-record verdict (injected IoError on an
      // excluded record) in place of the batch-wide one.
      if (p->result.ok()) p->result = s;
    }
  };
  auto fail_written = [&](const Status& s) {
    for (Pending* p : batch) {
      if (p->written && p->result.ok()) p->result = s;
    }
  };

  off_t start = ::lseek(fd_, 0, SEEK_END);
  if (start < 0) {
    fail_all(Status::IoError("WAL lseek failed"));
    return;
  }

  std::vector<uint8_t> buf;
  size_t total = 0;
  for (Pending* p : batch) total += p->frame.size();
  buf.reserve(total);

  for (Pending* p : batch) {
    // Crash simulation, per logical append: the process dies while the
    // batched write is in flight.  Earlier records' frames plus a prefix
    // of this record's frame reach the file — the multi-record torn tail
    // recovery must cope with.
    if (Status crash = faults::HitCrashPoint(faults::kWalAppendPartial);
        !crash.ok()) {
      uint64_t cut =
          faults::CrashPointRegistry::Global().payload() % p->frame.size();
      if (!buf.empty()) {
        (void)io::WriteFull(fd_, buf.data(), buf.size(), "WAL append");
      }
      if (cut > 0) (void)!::write(fd_, p->frame.data(), cut);
      fail_all(crash);
      return;
    }
    if (fault_plan_ != nullptr) {
      if (auto d = fault_plan_->Next(faults::FaultOp::kWalAppend)) {
        switch (d->kind) {
          case faults::FaultKind::kIoError:
            // No bytes of this record reach the medium; the rest of the
            // batch is unaffected.
            p->result = Status::IoError("injected WAL append fault");
            continue;
          case faults::FaultKind::kTornWrite:
          case faults::FaultKind::kDiskFull: {
            // The batched write dies inside this record's frame (torn
            // write or out of space).  The rollback must un-ack the whole
            // batch: acknowledging any record whose bytes were truncated
            // away would lose it.
            uint64_t cut = d->arg % p->frame.size();
            if (!buf.empty()) {
              (void)io::WriteFull(fd_, buf.data(), buf.size(), "WAL append");
            }
            if (cut > 0) (void)!::write(fd_, p->frame.data(), cut);
            if (::ftruncate(fd_, start) != 0) {
              fail_all(
                  Status::IoError("WAL append failed and rollback failed"));
            } else if (d->kind == faults::FaultKind::kDiskFull) {
              fail_all(
                  Status::IoError("WAL append failed: disk full (ENOSPC)"));
            } else {
              fail_all(Status::IoError("WAL append failed: short write"));
            }
            return;
          }
          case faults::FaultKind::kBitFlip: {
            uint64_t bit = d->arg % (p->frame.size() * 8);
            p->frame[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            break;
          }
          case faults::FaultKind::kMsgDrop:
          case faults::FaultKind::kMsgDuplicate:
          case faults::FaultKind::kMsgDelay:
            break;  // message-only kinds; meaningless at a WAL site
        }
      }
    }
    buf.insert(buf.end(), p->frame.begin(), p->frame.end());
    p->written = true;
  }

  // Every record was excluded by injection: nothing reached the file, so
  // there is nothing to sync.
  if (buf.empty()) return;

  Status written = io::WriteFull(fd_, buf.data(), buf.size(), "WAL append");
  if (!written.ok()) {
    // A failed batched write must not ack any record in the batch.
    if (::ftruncate(fd_, start) != 0) {
      fail_written(Status::IoError("WAL append failed and rollback failed"));
    } else {
      fail_written(written);
    }
    return;
  }

  // Crash simulation: the process dies after the batched write reached
  // the file but before the group fsync.  Every record in the round is
  // unacknowledged; its bytes may or may not survive to recovery.
  if (Status crash = faults::HitCrashPoint(faults::kWalGroupPreSync);
      !crash.ok()) {
    fail_all(crash);
    return;
  }
  // Parity with Sync(): one pre-sync crash point per physical fsync.
  if (Status crash = faults::HitCrashPoint(faults::kWalPreSync);
      !crash.ok()) {
    fail_all(crash);
    return;
  }
  if (fault_plan_ != nullptr) {
    // kWalSync fires once per logical record even though the physical
    // fsync is shared, so scripted "fail the Nth sync" triggers keep
    // their meaning under batching.
    for (Pending* p : batch) {
      if (!p->written) continue;
      if (auto d = fault_plan_->Next(faults::FaultOp::kWalSync)) {
        (void)d;
        // The bytes stay in the file but no record is acknowledged —
        // same contract as a failed serial Sync().
        fail_written(Status::IoError("injected WAL sync fault"));
        return;
      }
    }
  }
  if (::fsync(fd_) != 0) {
    fail_written(Status::IoError("WAL fsync failed"));
  }
}

Status WriteAheadLog::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  AcquireCommitSlot(lock);
  lock.unlock();
  Status s = SyncExclusive();
  lock.lock();
  ReleaseCommitSlot(lock);
  return s;
}

Status WriteAheadLog::SyncExclusive() {
  // Crash simulation: the process dies after appending but before the
  // data is forced to stable storage.
  PRORP_CRASH_POINT(faults::kWalPreSync);
  if (fault_plan_ != nullptr) {
    if (auto d = fault_plan_->Next(faults::FaultOp::kWalSync)) {
      (void)d;
      return Status::IoError("injected WAL sync fault");
    }
  }
  if (::fsync(fd_) != 0) return Status::IoError("WAL fsync failed");
  return Status::OK();
}

Status WriteAheadLog::Truncate() {
  std::unique_lock<std::mutex> lock(mu_);
  AcquireCommitSlot(lock);
  lock.unlock();
  Status s = Status::OK();
  if (::ftruncate(fd_, 0) != 0) {
    s = Status::IoError("WAL truncate failed");
  }
  lock.lock();
  ReleaseCommitSlot(lock);
  return s;
}

Result<uint64_t> WriteAheadLog::Replay(
    const std::string& path,
    const std::function<Status(const WalRecord&)>& apply) {
  // O_RDWR so a torn tail can be trimmed in place; fall back to read-only
  // (no trimming) if the file does not permit writing.
  bool writable = true;
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0 && errno != ENOENT) {
    writable = false;
    fd = ::open(path.c_str(), O_RDONLY);
  }
  if (fd < 0) {
    if (errno == ENOENT) return static_cast<uint64_t>(0);
    return Status::IoError("open WAL for replay failed");
  }
  uint64_t replayed = 0;
  off_t valid_end = 0;  // file offset just past the last intact record
  std::vector<uint8_t> buf;
  for (;;) {
    uint8_t lenbuf[4];
    Result<size_t> got = io::ReadUpTo(fd, lenbuf, 4, "WAL replay");
    if (!got.ok()) {
      ::close(fd);
      return got.status();
    }
    if (*got == 0) break;          // clean end
    if (*got != 4) break;          // torn tail
    uint32_t len = GetU32(lenbuf);
    if (len > (1u << 24)) break;   // implausible: treat as torn tail
    buf.resize(len + 4);
    got = io::ReadUpTo(fd, buf.data(), len + 4, "WAL replay");
    if (!got.ok()) {
      ::close(fd);
      return got.status();
    }
    if (*got != len + 4) break;    // torn tail
    uint32_t expect_crc = GetU32(buf.data() + len);
    if (Crc32(buf.data(), len) != expect_crc) break;  // torn tail
    Result<WalRecord> rec = DecodePayload(buf.data(), len);
    if (!rec.ok()) break;
    Status s = apply(*rec);
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
    ++replayed;
    valid_end += 4 + static_cast<off_t>(len) + 4;
  }
  // Trim the torn tail so post-recovery appends land directly behind the
  // last valid record.  Without this, an append-mode writer would stack
  // good frames behind unreachable garbage and silently lose them at the
  // next recovery.
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (writable && size > valid_end) {
    if (::ftruncate(fd, valid_end) != 0) {
      ::close(fd);
      return Status::IoError("trimming torn WAL tail failed");
    }
  }
  ::close(fd);
  return replayed;
}

Result<uint64_t> WriteAheadLog::SizeBytes() const {
  off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) return Status::IoError("lseek failed");
  return static_cast<uint64_t>(size);
}

uint64_t WriteAheadLog::FrameBytes(const WalRecord& record) {
  return EncodeFrame(record).size();
}

WriteAheadLog::GroupCommitStats WriteAheadLog::group_commit_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t WriteAheadLog::QueuedForTest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void WriteAheadLog::PauseGroupCommitForTest(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_for_test_ = paused;
  }
  cv_.notify_all();
}

}  // namespace prorp::storage
