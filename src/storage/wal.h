#ifndef PRORP_STORAGE_WAL_H_
#define PRORP_STORAGE_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
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

/// Frames staged for one batched write, encoded back to back in the log's
/// on-disk framing ([u32 payload_len][payload][u32 crc32(payload)]).
/// Frame i ends at byte offset ends_[i].  A batch is built by one thread
/// and handed to WriteAheadLog::AppendBatch; Clear() keeps the capacity,
/// so a reused batch stages frames without allocating.
class FrameBatch {
 public:
  /// Encodes `record` as the next frame.
  void Add(const WalRecord& record);

  /// Encodes a kInsert frame with key `key` whose `value_len`-byte value
  /// `fill(uint8_t* value)` writes in place.  The bytes equal those Add()
  /// produces for the same record, without building a WalRecord.
  template <typename Fill>
  void AddInsert(int64_t key, uint32_t value_len, Fill&& fill) {
    uint8_t* payload = Open(kInsertHeaderBytes + value_len);
    WriteInsertHeader(payload, key, value_len);
    fill(payload + kInsertHeaderBytes);
    Seal();
  }

  size_t frames() const { return ends_.size(); }
  size_t bytes() const { return bytes_.size(); }
  bool empty() const { return ends_.empty(); }
  const uint8_t* data() const { return bytes_.data(); }
  void Clear() {
    bytes_.clear();
    ends_.clear();
  }

 private:
  friend class WriteAheadLog;

  /// Payload bytes of a kInsert record ahead of its value: type, key,
  /// value length.
  static constexpr uint32_t kInsertHeaderBytes = 1 + 8 + 4;

  /// Appends an unsealed frame with room for `payload_len` payload bytes
  /// and returns where the payload starts.
  uint8_t* Open(uint32_t payload_len);
  /// Checksums the frame Open() started and closes it.
  void Seal();
  static void WriteInsertHeader(uint8_t* payload, int64_t key,
                                uint32_t value_len);

  std::vector<uint8_t> bytes_;
  std::vector<size_t> ends_;
  size_t open_at_ = 0;  // offset of the frame Open() started
};

/// Append-only write-ahead log on a single file.  Record framing:
///   [u32 payload_len][payload][u32 crc32(payload)]
/// Replay stops cleanly at the first truncated or corrupt record, which is
/// the expected state after a crash mid-append.
///
/// Every append path funnels into one batch writer: a batch of frames
/// goes to the file with one write(2) and, when the caller asks for
/// durability, one fsync.  The log keeps the file's end offset in memory
/// (read once at Open, reset by Truncate), so an append costs exactly its
/// write; a failed or short write truncates the file back to that offset.
///
/// Thread safety: all mutating entry points are safe to call from
/// concurrent threads.  `AppendDurable` is the group-commit fast path:
/// concurrent appenders enqueue their records and a leader (the first
/// appender to find no commit in flight) drains the whole queue, writes
/// it as one contiguous batch, and issues a single fsync; followers block
/// until their record's LSN is durable.  `Append`, `AppendBatch` and
/// `Sync` take the same committer slot, so mixed use stays serialized.
class WriteAheadLog {
 public:
  /// Counters of the batch writer (test/bench visibility).
  struct GroupCommitStats {
    /// Commit rounds of any append path (one batched write + at most one
    /// fsync).
    uint64_t commits = 0;
    /// Logical records pushed through commit rounds.
    uint64_t records = 0;
    /// Largest batch coalesced into a single round.
    uint64_t max_batch = 0;
    /// Highest LSN known durable (0 before the first durable append).
    uint64_t durable_lsn = 0;
    /// Batched writes issued: one per round that put frames in the file.
    uint64_t writes = 0;
    /// fsyncs issued, by commit rounds and by Sync().
    uint64_t syncs = 0;
  };

  /// Options of AppendBatch.
  struct BatchOptions {
    /// fsync the batch after writing it.
    bool sync = false;
    /// Crash point hit once per frame, after the frame's append faults
    /// were consulted: the process dies with the batch's earlier frames
    /// and a prefix of this frame in the file.  The armed payload picks
    /// the prefix: 0 keeps the whole frame, n > 0 keeps n % frame_size
    /// bytes.  Empty: no such point.
    std::string_view frame_crash_point;
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

  /// Appends every frame of `batch` with one write (and one fsync when
  /// `options.sync`).  All or nothing: a failure at frame k — an injected
  /// I/O error, a torn or out-of-space write — leaves none of the batch
  /// in the file and returns that failure.  Only a simulated crash leaves
  /// a prefix behind (as a real one would).  A failed fsync leaves the
  /// bytes in the file but fails the call.  Fault-plan ops and crash
  /// points fire per frame, exactly as for that many Append calls.
  Status AppendBatch(FrameBatch& batch, const BatchOptions& options);

  /// Group-commit append: blocks until the record is on stable storage
  /// and returns its LSN.  Concurrent callers are coalesced into one
  /// batched write + one fsync; a failed batched write acknowledges no
  /// record in the batch (the file is rolled back to the batch start),
  /// while an injected I/O error on one record fails only that record.
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

  /// Attaches a fault plan consulted on every append/sync (kWalAppend and
  /// kWalSync ops fire once per logical record on every append path).
  /// `plan` must outlive this log; pass nullptr to detach.
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
  /// the appender blocks until `done`, so the pointers in the queue never
  /// dangle.
  struct Pending {
    const WalRecord* record = nullptr;
    uint64_t lsn = 0;
    Status result;
    bool done = false;
  };

  /// How CommitBatch treats an injected I/O error on one frame.
  enum class OnRecordError {
    kSkipRecord,  // fail that frame alone; the rest of the batch commits
    kFailBatch,   // the whole batch fails and none of it is written
  };

  WriteAheadLog(int fd, std::string path, uint64_t end)
      : fd_(fd), path_(std::move(path)), end_offset_(end) {}

  /// The one batch writer.  Writes the frames of `batch` behind the end
  /// offset with one write and, when `options.sync`, one fsync.  With
  /// `per_frame` (size batch.frames()) each frame's verdict lands there;
  /// otherwise the first failure is returned.  Caller holds the committer
  /// slot; runs without `mu_` held.  Mutates `batch` (fault-injected bit
  /// flips, compaction of skipped frames).
  Status CommitBatch(FrameBatch& batch, const BatchOptions& options,
                     OnRecordError on_error, std::vector<Status>* per_frame);

  /// Writes the first `n` bytes of `data` behind the end offset without
  /// any cleanup, as a crashing process would leave them.
  void WriteCrashTail(const uint8_t* data, size_t n);

  /// Sync body.  Caller holds the committer slot.
  Status SyncExclusive();

  /// Counts one CommitBatch round of `records` records.  Caller holds mu_.
  void CountRound(size_t records);

  /// Blocks until this thread owns the committer slot (no commit round or
  /// serial append in flight).
  void AcquireCommitSlot(std::unique_lock<std::mutex>& lock);
  void ReleaseCommitSlot(std::unique_lock<std::mutex>& lock);

  int fd_;
  std::string path_;
  faults::FaultPlan* fault_plan_ = nullptr;
  /// The file's size as this log wrote it.  Owned by the committer slot.
  uint64_t end_offset_;

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
