#ifndef PRORP_STORAGE_WAL_H_
#define PRORP_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "faults/fault_plan.h"

namespace prorp::storage {

/// Logical write-ahead-log record.  ProRP's history store is single-writer
/// and append-mostly, so logical redo logging (no undo, no pages in the
/// log) is sufficient: recovery = load last snapshot + replay the tail.
struct WalRecord {
  enum class Type : uint8_t {
    kInsert = 1,       // key + value bytes
    kDelete = 2,       // key
    kDeleteRange = 3,  // [lo, hi]
    kUpdate = 4,       // key + value bytes
  };

  Type type = Type::kInsert;
  int64_t key = 0;        // kInsert/kDelete/kUpdate; lo for kDeleteRange
  int64_t key2 = 0;       // hi for kDeleteRange
  std::vector<uint8_t> value;  // kInsert/kUpdate payload
};

/// Append-only write-ahead log on a single file.  Record framing:
///   [u32 payload_len][payload][u32 crc32(payload)]
/// Replay stops cleanly at the first truncated or corrupt record, which is
/// the expected state after a crash mid-append.
///
/// Thread safety: all mutating entry points are safe to call from
/// concurrent threads.  `AppendDurable` is the group-commit fast path:
/// concurrent appenders enqueue encoded frames and a leader (the first
/// appender to find no commit in flight) drains the whole queue, writes
/// it as one contiguous batch, and issues a single fsync; followers block
/// until their record's LSN is durable.  `Append` + `Sync` remain the
/// buffered path (durability deferred to the OS page cache) and take the
/// same committer slot, so mixed use stays serialized.
class WriteAheadLog {
 public:
  /// Counters of the group-commit path (test/bench visibility).
  struct GroupCommitStats {
    /// Physical commit rounds (one batched write + at most one fsync).
    uint64_t commits = 0;
    /// Logical records pushed through commit rounds.
    uint64_t records = 0;
    /// Largest batch coalesced into a single round.
    uint64_t max_batch = 0;
    /// Highest LSN known durable (0 before the first durable append).
    uint64_t durable_lsn = 0;
  };

  /// Opens (creating if necessary) the log file at `path` for appending.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends a record and flushes it to the OS (no fsync).  On a short
  /// write (disk full, injected fault) the file is rolled back to the
  /// pre-append offset so the torn frame cannot make later appends
  /// unreachable at replay time.
  Status Append(const WalRecord& record);

  /// Group-commit append: blocks until the record is on stable storage
  /// and returns its LSN.  Concurrent callers are coalesced into one
  /// batched write + one fsync; a failed batched write acknowledges no
  /// record in the batch (the file is rolled back to the batch start).
  Result<uint64_t> AppendDurable(const WalRecord& record);

  /// Forces the log to stable storage.
  Status Sync();

  /// Truncates the log (after a checkpoint has captured its effects).
  Status Truncate();

  /// Replays all intact records in `path` in order.  Returns the number of
  /// records replayed.  A trailing torn record is not an error: it is
  /// trimmed off the file so that appends issued after recovery land
  /// directly behind the last valid record instead of behind unreachable
  /// garbage.
  static Result<uint64_t> Replay(
      const std::string& path,
      const std::function<Status(const WalRecord&)>& apply);

  /// Current log size in bytes.
  Result<uint64_t> SizeBytes() const;

  /// Bytes one Append of `record` adds to the log (its whole frame).
  static uint64_t FrameBytes(const WalRecord& record);

  /// Attaches a fault plan consulted on every append/sync (kWalAppend and
  /// kWalSync ops fire once per logical record on both the serial and the
  /// group-commit path).  `plan` must outlive this log; pass nullptr to
  /// detach.
  void set_fault_plan(faults::FaultPlan* plan) { fault_plan_ = plan; }

  GroupCommitStats group_commit_stats() const;

  /// Test-only: while paused, no appender can become the commit leader,
  /// so concurrent AppendDurable callers pile up in the queue and
  /// un-pausing releases them as one deterministic batch.
  void PauseGroupCommitForTest(bool paused);

  /// Test-only: records currently enqueued and not yet committed.
  size_t QueuedForTest() const;

 private:
  /// One enqueued group-commit record.  Lives on its appender's stack;
  /// the appender blocks until `done`, so the pointer in the queue never
  /// dangles.
  struct Pending {
    std::vector<uint8_t> frame;  // encoded [len][payload][crc]
    uint64_t lsn = 0;
    Status result;
    bool done = false;
    bool written = false;  // reached the batched write (vs excluded)
  };

  WriteAheadLog(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  /// Serial append body (old behavior).  Caller holds the committer slot.
  Status AppendExclusive(const WalRecord& record);

  /// Sync body.  Caller holds the committer slot.
  Status SyncExclusive();

  /// Writes `batch` as one contiguous write and makes it durable with a
  /// single fsync, filling each entry's `result`.  Caller holds the
  /// committer slot; runs without `mu_` held.
  void CommitBatch(const std::vector<Pending*>& batch);

  /// Blocks until this thread owns the committer slot (no commit round or
  /// serial append in flight).
  void AcquireCommitSlot(std::unique_lock<std::mutex>& lock);
  void ReleaseCommitSlot(std::unique_lock<std::mutex>& lock);

  int fd_;
  std::string path_;
  faults::FaultPlan* fault_plan_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending*> queue_;
  bool committing_ = false;       // the committer slot
  bool paused_for_test_ = false;  // leaders blocked (batch buildup)
  uint64_t next_lsn_ = 0;
  GroupCommitStats stats_;
};

}  // namespace prorp::storage

#endif  // PRORP_STORAGE_WAL_H_
