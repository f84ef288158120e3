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

uint8_t* FrameBatch::Open(uint32_t payload_len) {
  open_at_ = bytes_.size();
  bytes_.resize(open_at_ + 4 + payload_len + 4);
  uint8_t* frame = bytes_.data() + open_at_;
  std::memcpy(frame, &payload_len, 4);
  return frame + 4;
}

void FrameBatch::Seal() {
  uint8_t* frame = bytes_.data() + open_at_;
  const uint32_t payload_len = GetU32(frame);
  const uint32_t crc = Crc32(frame + 4, payload_len);
  std::memcpy(frame + 4 + payload_len, &crc, 4);
  ends_.push_back(bytes_.size());
}

void FrameBatch::WriteInsertHeader(uint8_t* payload, int64_t key,
                                   uint32_t value_len) {
  payload[0] = static_cast<uint8_t>(WalRecord::Type::kInsert);
  std::memcpy(payload + 1, &key, 8);
  std::memcpy(payload + 9, &value_len, 4);
}

void FrameBatch::Add(const WalRecord& r) {
  const bool has_value = r.type == WalRecord::Type::kInsert ||
                         r.type == WalRecord::Type::kUpdate;
  const bool has_key2 = r.type == WalRecord::Type::kDeleteRange;
  const auto value_len = static_cast<uint32_t>(r.value.size());
  uint8_t* p = Open(1 + 8 + (has_key2 ? 8 : 0) +
                    (has_value ? 4 + value_len : 0));
  *p++ = static_cast<uint8_t>(r.type);
  std::memcpy(p, &r.key, 8);
  p += 8;
  if (has_key2) {
    std::memcpy(p, &r.key2, 8);
    p += 8;
  }
  if (has_value) {
    std::memcpy(p, &value_len, 4);
    if (value_len > 0) std::memcpy(p + 4, r.value.data(), value_len);
  }
  Seal();
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IoError("open WAL failed: " +
                           std::string(strerror(errno)));
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Status::IoError("WAL lseek failed");
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(fd, path, static_cast<uint64_t>(end)));
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

void WriteAheadLog::CountRound(size_t records) {
  ++stats_.commits;
  stats_.records += records;
  stats_.max_batch = std::max<uint64_t>(stats_.max_batch, records);
}

Status WriteAheadLog::Append(const WalRecord& record) {
  FrameBatch batch;
  batch.Add(record);
  return AppendBatch(batch, BatchOptions{});
}

Status WriteAheadLog::AppendBatch(FrameBatch& batch,
                                  const BatchOptions& options) {
  if (batch.empty()) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  AcquireCommitSlot(lock);
  lock.unlock();
  Status s = CommitBatch(batch, options, OnRecordError::kFailBatch, nullptr);
  lock.lock();
  CountRound(batch.frames());
  ReleaseCommitSlot(lock);
  return s;
}

Result<uint64_t> WriteAheadLog::AppendDurable(const WalRecord& record) {
  Pending pending;
  pending.record = &record;

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

    FrameBatch frames;
    for (Pending* p : batch) frames.Add(*p->record);
    std::vector<Status> results(batch.size());
    BatchOptions options;
    options.sync = true;
    CommitBatch(frames, options, OnRecordError::kSkipRecord, &results);

    lock.lock();
    CountRound(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      Pending* p = batch[i];
      p->result = std::move(results[i]);
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

void WriteAheadLog::WriteCrashTail(const uint8_t* data, size_t n) {
  if (n == 0) return;
  ssize_t wrote = ::write(fd_, data, n);
  if (wrote > 0) end_offset_ += static_cast<uint64_t>(wrote);
}

Status WriteAheadLog::CommitBatch(FrameBatch& batch,
                                  const BatchOptions& options,
                                  OnRecordError on_error,
                                  std::vector<Status>* per_frame) {
  // The batch-wide verdict: every frame without a more specific one of
  // its own (an injected error on a skipped frame) takes it.
  auto fail = [&](const Status& s) {
    if (per_frame != nullptr) {
      for (Status& r : *per_frame) {
        if (r.ok()) r = s;
      }
    }
    return s;
  };

  // Frames that will be written are compacted to the front of the batch
  // as they pass their faults: bytes [0, kept) go to the file.
  const uint64_t start = end_offset_;
  uint8_t* data = batch.bytes_.data();
  size_t kept = 0;
  size_t begin = 0;
  size_t written_frames = 0;
  for (size_t i = 0; i < batch.frames(); ++i) {
    const size_t end = batch.ends_[i];
    const size_t size = end - begin;
    uint8_t* frame = data + begin;
    begin = end;
    // Moves the first `n` bytes of this frame behind the kept frames and
    // writes them all, as a process dying mid-write would leave them.
    auto crash_tail = [&](size_t n) {
      std::memmove(data + kept, frame, n);
      WriteCrashTail(data, kept + n);
    };

    // Crash simulation, per logical append: the process dies while the
    // batched write is in flight.  Earlier frames plus a prefix of this
    // one reach the file — the multi-record torn tail recovery must cope
    // with.
    if (Status crash = faults::HitCrashPoint(faults::kWalAppendPartial);
        !crash.ok()) {
      crash_tail(faults::CrashPointRegistry::Global().payload() % size);
      return fail(crash);
    }
    if (fault_plan_ != nullptr) {
      if (auto d = fault_plan_->Next(faults::FaultOp::kWalAppend)) {
        switch (d->kind) {
          case faults::FaultKind::kIoError:
            // No bytes of this record reach the medium.
            if (on_error == OnRecordError::kFailBatch) {
              return fail(Status::IoError("injected WAL append fault"));
            }
            (*per_frame)[i] = Status::IoError("injected WAL append fault");
            continue;
          case faults::FaultKind::kTornWrite:
          case faults::FaultKind::kDiskFull: {
            // The batched write dies inside this record's frame (torn
            // write or out of space).  The rollback must un-ack the whole
            // batch: acknowledging any record whose bytes were truncated
            // away would lose it.
            crash_tail(d->arg % size);
            if (::ftruncate(fd_, static_cast<off_t>(start)) != 0) {
              return fail(
                  Status::IoError("WAL append failed and rollback failed"));
            }
            end_offset_ = start;
            if (d->kind == faults::FaultKind::kDiskFull) {
              return fail(
                  Status::IoError("WAL append failed: disk full (ENOSPC)"));
            }
            return fail(Status::IoError("WAL append failed: short write"));
          }
          case faults::FaultKind::kBitFlip: {
            uint64_t bit = d->arg % (size * 8);
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
    if (!options.frame_crash_point.empty()) {
      if (Status crash = faults::HitCrashPoint(options.frame_crash_point);
          !crash.ok()) {
        const uint64_t payload = faults::CrashPointRegistry::Global().payload();
        crash_tail(payload == 0 ? size : payload % size);
        return fail(crash);
      }
    }
    std::memmove(data + kept, frame, size);
    kept += size;
    ++written_frames;
  }

  // Every record was skipped by injection: nothing reached the file, so
  // there is nothing to sync.
  if (kept == 0) return Status::OK();

  Status written = io::WriteFull(fd_, data, kept, "WAL append");
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.writes;
  }
  if (!written.ok()) {
    // A failed batched write must not ack any record in the batch: roll
    // the file back so no torn frame makes later appends unreachable.
    if (::ftruncate(fd_, static_cast<off_t>(start)) != 0) {
      return fail(Status::IoError("WAL append failed and rollback failed"));
    }
    return fail(written);
  }
  end_offset_ = start + kept;
  if (!options.sync) return Status::OK();

  // Crash simulation: the process dies after the batched write reached
  // the file but before the group fsync.  Every record in the round is
  // unacknowledged; its bytes may or may not survive to recovery.
  if (Status crash = faults::HitCrashPoint(faults::kWalGroupPreSync);
      !crash.ok()) {
    return fail(crash);
  }
  // Parity with Sync(): one pre-sync crash point per physical fsync.
  if (Status crash = faults::HitCrashPoint(faults::kWalPreSync);
      !crash.ok()) {
    return fail(crash);
  }
  if (fault_plan_ != nullptr) {
    // kWalSync fires once per logical record even though the physical
    // fsync is shared, so scripted "fail the Nth sync" triggers keep
    // their meaning under batching.
    for (size_t i = 0; i < written_frames; ++i) {
      if (fault_plan_->Next(faults::FaultOp::kWalSync)) {
        // The bytes stay in the file but no record is acknowledged —
        // same contract as a failed serial Sync().
        return fail(Status::IoError("injected WAL sync fault"));
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.syncs;
  }
  if (::fsync(fd_) != 0) return fail(Status::IoError("WAL fsync failed"));
  return Status::OK();
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.syncs;
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
  } else {
    end_offset_ = 0;
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
