#include "controlplane/journal.h"

#include <unistd.h>

#include <cstring>

#include "faults/crash_points.h"

namespace prorp::controlplane {
namespace {

/// Fixed record layout inside the WalRecord value:
///   [u8 event][u64 epoch][u32 db][u8 cls][u32 flags][i32 attempt]
///   [i64 time][i64 enqueued_at][i64 not_before][i64 deadline]
///   [i64 predicted_start][u64 stats[4]]
constexpr size_t kRecordBytes = 1 + 8 + 4 + 1 + 4 + 4 + 8 * 5 + 8 * 4;

template <typename T>
void Put(std::vector<uint8_t>& out, T v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T Get(const uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

storage::WalRecord Encode(uint64_t seq, const JournalRecord& r) {
  storage::WalRecord wr;
  wr.type = storage::WalRecord::Type::kInsert;
  wr.key = static_cast<int64_t>(seq);
  wr.value.reserve(kRecordBytes);
  Put<uint8_t>(wr.value, static_cast<uint8_t>(r.event));
  Put<uint64_t>(wr.value, r.epoch);
  Put<uint32_t>(wr.value, r.db);
  Put<uint8_t>(wr.value, r.cls);
  Put<uint32_t>(wr.value, r.flags);
  Put<int32_t>(wr.value, r.attempt);
  Put<int64_t>(wr.value, r.time);
  Put<int64_t>(wr.value, r.enqueued_at);
  Put<int64_t>(wr.value, r.not_before);
  Put<int64_t>(wr.value, r.deadline);
  Put<int64_t>(wr.value, r.predicted_start);
  for (uint64_t s : r.stats) Put<uint64_t>(wr.value, s);
  return wr;
}

Result<JournalRecord> Decode(const storage::WalRecord& wr) {
  if (wr.type != storage::WalRecord::Type::kInsert ||
      wr.value.size() != kRecordBytes) {
    return Status::Corruption("malformed control-plane journal record");
  }
  const uint8_t* p = wr.value.data();
  JournalRecord r;
  r.event = static_cast<JournalEvent>(Get<uint8_t>(p));
  r.epoch = Get<uint64_t>(p);
  r.db = Get<uint32_t>(p);
  r.cls = Get<uint8_t>(p);
  r.flags = Get<uint32_t>(p);
  r.attempt = Get<int32_t>(p);
  r.time = Get<int64_t>(p);
  r.enqueued_at = Get<int64_t>(p);
  r.not_before = Get<int64_t>(p);
  r.deadline = Get<int64_t>(p);
  r.predicted_start = Get<int64_t>(p);
  for (uint64_t& s : r.stats) s = Get<uint64_t>(p);
  return r;
}

}  // namespace

std::string_view JournalEventName(JournalEvent event) {
  switch (event) {
    case JournalEvent::kEpochStart:
      return "epoch_start";
    case JournalEvent::kMetaUpsert:
      return "meta_upsert";
    case JournalEvent::kMetaRemove:
      return "meta_remove";
    case JournalEvent::kAccepted:
      return "accepted";
    case JournalEvent::kAdmissionShed:
      return "admission_shed";
    case JournalEvent::kEvicted:
      return "evicted";
    case JournalEvent::kRetired:
      return "retired";
    case JournalEvent::kDispatched:
      return "dispatched";
    case JournalEvent::kOutcomeOk:
      return "outcome_ok";
    case JournalEvent::kOutcomeFailed:
      return "outcome_failed";
    case JournalEvent::kHedge:
      return "hedge";
    case JournalEvent::kCompleted:
      return "completed";
    case JournalEvent::kBreaker:
      return "breaker";
    case JournalEvent::kStormStart:
      return "storm_start";
    case JournalEvent::kStormEnd:
      return "storm_end";
    case JournalEvent::kIteration:
      return "iteration";
    case JournalEvent::kReconcileComplete:
      return "reconcile_complete";
    case JournalEvent::kReconcileRequeue:
      return "reconcile_requeue";
    case JournalEvent::kNodeDead:
      return "node_dead";
  }
  return "unknown";
}

Result<std::unique_ptr<ControlPlaneJournal>> ControlPlaneJournal::Open(
    const std::string& path, SyncMode mode) {
  PRORP_ASSIGN_OR_RETURN(auto wal, storage::WriteAheadLog::Open(path));
  return std::unique_ptr<ControlPlaneJournal>(
      new ControlPlaneJournal(std::move(wal), path, mode));
}

Status ControlPlaneJournal::Append(const JournalRecord& record) {
  if (!dead_.ok()) return dead_;
  storage::WalRecord wal_record = Encode(next_seq_, record);
  Status s = wal_->Append(wal_record);
  if (!s.ok()) {
    dead_ = s;
    return dead_;
  }
  // Crash simulation: the frame reached the journal file but the process
  // dies before the fsync (and before the transition is acknowledged).
  // The armed payload picks the surviving prefix: 0 keeps the whole frame
  // (durable but unacknowledged — recovery replays it), n > 0 keeps
  // n % frame_size bytes (a torn tail recovery must trim).
  if (Status crash = faults::HitCrashPoint(faults::kCpJournalPreSync);
      !crash.ok()) {
    uint64_t payload = faults::CrashPointRegistry::Global().payload();
    if (payload > 0) {
      // The frame ends the file, so it starts at the size minus its
      // length; the hot path pays no size query before each append.
      uint64_t frame = storage::WriteAheadLog::FrameBytes(wal_record);
      if (auto size = wal_->SizeBytes(); size.ok() && *size >= frame) {
        (void)!::truncate(path_.c_str(), static_cast<off_t>(
                                             *size - frame + payload % frame));
      }
    }
    dead_ = crash;
    return dead_;
  }
  if (mode_ == SyncMode::kDurable) {
    s = wal_->Sync();
    if (!s.ok()) {
      dead_ = s;
      return dead_;
    }
  }
  ++next_seq_;
  ++appended_;
  return Status::OK();
}

Status ControlPlaneJournal::Sync() {
  if (!dead_.ok()) return dead_;
  Status s = wal_->Sync();
  if (!s.ok()) dead_ = s;
  return s;
}

Status ControlPlaneJournal::TruncateAfterCheckpoint() {
  if (!dead_.ok()) return dead_;
  Status s = wal_->Truncate();
  if (!s.ok()) dead_ = s;
  return s;
}

Result<uint64_t> ControlPlaneJournal::Replay(
    const std::string& path,
    const std::function<Status(uint64_t seq, const JournalRecord&)>& apply) {
  return storage::WriteAheadLog::Replay(
      path, [&](const storage::WalRecord& wr) -> Status {
        PRORP_ASSIGN_OR_RETURN(JournalRecord rec, Decode(wr));
        return apply(static_cast<uint64_t>(wr.key), rec);
      });
}

}  // namespace prorp::controlplane
