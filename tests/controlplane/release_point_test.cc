// Release points of the staged control-plane journal (DESIGN.md section
// 10): records are batched in memory and written before anything that
// depends on them leaves the process — before the resume callback, before
// a public call returns, before a checkpoint.

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "controlplane/durable_control_plane.h"
#include "controlplane/journal.h"
#include "faults/crash_points.h"
#include "faults/fault_plan.h"
#include "storage/wal.h"

namespace prorp::controlplane {
namespace {

namespace fs = std::filesystem;
using policy::DbState;
using SyncMode = ControlPlaneJournal::SyncMode;

constexpr EpochSeconds kT0 = 1'000'000;
/// One journal record's frame on disk: 8 bytes of framing, a 13-byte
/// kInsert header and the 94-byte record.
constexpr uint64_t kFrameBytes = 115;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct Replayed {
  std::vector<uint64_t> seqs;
  std::vector<JournalRecord> records;
};

Replayed ReplayFile(const std::string& path) {
  Replayed out;
  auto n = ControlPlaneJournal::Replay(
      path, [&](uint64_t seq, const JournalRecord& rec) {
        out.seqs.push_back(seq);
        out.records.push_back(rec);
        return Status::OK();
      });
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  return out;
}

ControlPlaneConfig SmallConfig() {
  ControlPlaneConfig config;
  config.prewarm_interval = 300;
  config.resume_operation_period = 60;
  return config;
}

DurableControlPlane::Options PlaneOptions(const std::string& dir,
                                          SyncMode mode) {
  DurableControlPlane::Options opt;
  opt.dir = dir;
  opt.config = SmallConfig();
  opt.sync_mode = mode;
  opt.checkpoint_every = 0;
  return opt;
}

/// A plane whose resume callback plays the node side of a pre-warm: it
/// records the logical pause through the plane's metadata store, inside
/// the callback, as the fleet simulator's FSM does.
class PlaneFixture {
 public:
  PlaneFixture(const std::string& name, SyncMode mode)
      : dir_(FreshDir(name)) {
    auto plane = DurableControlPlane::Open(
        PlaneOptions(dir_, mode),
        [this](const ResumeAttempt& a, EpochSeconds now) {
          return Resume(a, now);
        },
        [](DbId) { return false; }, kT0);
    EXPECT_TRUE(plane.ok()) << plane.status().ToString();
    plane_ = std::move(*plane);
  }

  /// `n` physically paused databases whose predicted starts fall in the
  /// selection window of RunOnce(kT0).
  void AddDuePrewarms(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(plane_->metadata()
                      .UpsertState(static_cast<DbId>(10 + i),
                                   DbState::kPhysicallyPaused,
                                   kT0 + 300 + i)
                      .ok());
    }
  }

  DurableControlPlane& plane() { return *plane_; }
  const std::string& journal_path() const { return plane_->journal_path(); }

  /// Runs inside every resume callback before the node-side effect.
  std::function<void(const ResumeAttempt&)> on_resume;
  int resumes = 0;

 private:
  Status Resume(const ResumeAttempt& a, EpochSeconds) {
    if (on_resume) on_resume(a);
    ++resumes;
    return plane_->metadata().UpsertState(a.db, DbState::kLogicallyPaused, 0);
  }

  std::string dir_;
  std::unique_ptr<DurableControlPlane> plane_;
};

TEST(ReleasePointTest, ResumeCallbackFindsItsDispatchAndEveryEarlierRecord) {
  PlaneFixture f("rp_callback", SyncMode::kBuffered);
  f.AddDuePrewarms(4);
  int checked = 0;
  f.on_resume = [&](const ResumeAttempt& a) {
    // Every record journaled so far — this iteration's acceptances, the
    // previous dispatch's outcome and its node-side metadata upsert — is
    // in the file, ending with this dispatch's own kDispatched.
    Replayed r = ReplayFile(f.journal_path());
    ASSERT_FALSE(r.records.empty());
    EXPECT_EQ(r.seqs.back(), f.plane().journal().next_seq() - 1);
    EXPECT_EQ(r.records.back().event, JournalEvent::kDispatched);
    EXPECT_EQ(r.records.back().db, a.db);
    int accepted = 0;
    for (const JournalRecord& rec : r.records) {
      if (rec.event == JournalEvent::kAccepted) ++accepted;
    }
    EXPECT_EQ(accepted, 4);
    ++checked;
  };
  Result<uint64_t> resumed = f.plane().service().RunOnce(kT0);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(*resumed, 4u);
  EXPECT_EQ(checked, 4);
}

TEST(ReleasePointTest, EnqueueReactiveOkMeansAcceptedIsInTheFile) {
  PlaneFixture f("rp_reactive", SyncMode::kBuffered);
  ASSERT_TRUE(f.plane()
                  .metadata()
                  .UpsertState(7, DbState::kPhysicallyPaused, 0)
                  .ok());
  ASSERT_TRUE(f.plane().service().EnqueueReactive(7, kT0).ok());
  Replayed r = ReplayFile(f.journal_path());
  ASSERT_FALSE(r.records.empty());
  const JournalRecord& last = r.records.back();
  EXPECT_EQ(last.event, JournalEvent::kAccepted);
  EXPECT_EQ(last.db, 7u);
  EXPECT_NE(last.flags & kJfReactive, 0u);
}

TEST(ReleasePointTest, SizeBytesCoversEveryAppendedRecordAfterEachCall) {
  PlaneFixture f("rp_size", SyncMode::kBuffered);
  ControlPlaneJournal& journal = f.plane().journal();
  auto covered = [&](const char* after) {
    // A fresh directory: every record this journal ever appended is in
    // the file, and nothing is left staged.
    EXPECT_EQ(journal.appended_records(), journal.next_seq() - 1) << after;
    Result<uint64_t> size = journal.SizeBytes();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, journal.appended_records() * kFrameBytes) << after;
  };
  covered("Open");
  f.AddDuePrewarms(3);
  covered("UpsertState");
  ASSERT_TRUE(f.plane().service().EnqueueReactive(10, kT0).ok());
  covered("EnqueueReactive");
  f.plane().service().Pump(kT0);
  covered("Pump");
  ASSERT_TRUE(f.plane().service().RunOnce(kT0).ok());
  covered("RunOnce");
  ASSERT_TRUE(f.plane().metadata().Remove(11).ok());
  covered("Remove");
  EXPECT_EQ(ReplayFile(f.journal_path()).records.size(),
            journal.appended_records());
}

class ReleasePointWritesTest : public testing::TestWithParam<SyncMode> {};

TEST_P(ReleasePointWritesTest, RunOnceWithNDuePrewarmsWritesNPlusOneTimes) {
  constexpr int kDue = 5;
  const bool durable = GetParam() == SyncMode::kDurable;
  PlaneFixture f(durable ? "rp_writes_durable" : "rp_writes_buffered",
                 GetParam());
  f.AddDuePrewarms(kDue);
  const auto before = f.plane().journal().wal_stats();
  ASSERT_TRUE(f.plane().service().RunOnce(kT0).ok());
  const auto after = f.plane().journal().wal_stats();
  EXPECT_EQ(f.resumes, kDue);
  // One batch ahead of each dispatch, one when RunOnce returns.
  EXPECT_EQ(after.writes - before.writes, static_cast<uint64_t>(kDue + 1));
  EXPECT_EQ(after.syncs - before.syncs,
            durable ? static_cast<uint64_t>(kDue + 1) : 0u);
  // Each pre-warm still journals accepted, dispatched, outcome and the
  // node-side meta upsert, plus the iteration aggregate.
  EXPECT_EQ(after.records - before.records,
            static_cast<uint64_t>(4 * kDue + 1));
}

INSTANTIATE_TEST_SUITE_P(SyncModes, ReleasePointWritesTest,
                         testing::Values(SyncMode::kBuffered,
                                         SyncMode::kDurable),
                         [](const testing::TestParamInfo<SyncMode>& info) {
                           return info.param == SyncMode::kDurable
                                      ? std::string("Durable")
                                      : std::string("Buffered");
                         });

TEST(ReleasePointTest, IoErrorOnRecordKWritesNoneOfTheBatchOrItsDispatch) {
  constexpr int kDue = 3;
  // The first batch of RunOnce holds the kDue acceptances and the first
  // kDispatched.  Fail each of its records in turn.
  for (uint64_t k = 1; k <= kDue + 1; ++k) {
    PlaneFixture f("rp_ioerror_" + std::to_string(k), SyncMode::kBuffered);
    f.AddDuePrewarms(kDue);
    const uint64_t size_before = *f.plane().journal().SizeBytes();
    faults::FaultPlan plan(k);
    plan.FailNth(faults::FaultOp::kWalAppend, k, faults::FaultKind::kIoError);
    f.plane().journal().set_fault_plan(&plan);
    Result<uint64_t> ran = f.plane().service().RunOnce(kT0);
    EXPECT_FALSE(ran.ok()) << "k=" << k;
    EXPECT_EQ(f.resumes, 0) << "the guarded dispatch ran, k=" << k;
    EXPECT_FALSE(f.plane().healthy());
    EXPECT_EQ(*f.plane().journal().SizeBytes(), size_before) << "k=" << k;
    f.plane().journal().set_fault_plan(nullptr);
    for (const JournalRecord& rec : ReplayFile(f.journal_path()).records) {
      EXPECT_NE(rec.event, JournalEvent::kAccepted) << "k=" << k;
    }
  }
}

TEST(ReleasePointTest, FencedPlaneNeverWritesItsStagedRecords) {
  PlaneFixture f("rp_fence_discards", SyncMode::kBuffered);
  f.AddDuePrewarms(3);
  const uint64_t size_before = *f.plane().journal().SizeBytes();
  // The service dies right after staging its second record (the second
  // acceptance): nothing of the unreleased batch may reach the file.
  auto& registry = faults::CrashPointRegistry::Global();
  registry.Reset();
  registry.Arm(faults::kCpPostJournalPreApply, 2, 0);
  EXPECT_FALSE(f.plane().service().RunOnce(kT0).ok());
  registry.Reset();
  EXPECT_TRUE(f.plane().service().fenced());
  EXPECT_FALSE(f.plane().journal().healthy());
  EXPECT_EQ(f.resumes, 0);
  EXPECT_EQ(*f.plane().journal().SizeBytes(), size_before);
  // Later calls are refused instead of writing.
  EXPECT_FALSE(f.plane().metadata().UpsertState(99, DbState::kResumed, 0).ok());
  EXPECT_EQ(*f.plane().journal().SizeBytes(), size_before);
}

/// The journal's fixed record layout as the per-record writer encoded it
/// into a WalRecord value.
storage::WalRecord LegacyEncoding(uint64_t seq, const JournalRecord& r) {
  storage::WalRecord wr;
  wr.type = storage::WalRecord::Type::kInsert;
  wr.key = static_cast<int64_t>(seq);
  auto put = [&](const auto& v) {
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    wr.value.insert(wr.value.end(), p, p + sizeof(v));
  };
  put(static_cast<uint8_t>(r.event));
  put(r.epoch);
  put(r.db);
  put(r.cls);
  put(r.flags);
  put(r.attempt);
  put(r.time);
  put(r.enqueued_at);
  put(r.not_before);
  put(r.deadline);
  put(r.predicted_start);
  for (uint64_t s : r.stats) put(s);
  return wr;
}

/// The four records behind kParentJournal.
std::vector<JournalRecord> GoldenRecords() {
  JournalRecord accepted;
  accepted.event = JournalEvent::kAccepted;
  accepted.epoch = 7;
  accepted.db = 4242;
  accepted.cls = 1;
  accepted.flags = kJfReactive | kJfFirstWait;
  accepted.attempt = -1;
  accepted.time = 86'833'000;
  accepted.enqueued_at = accepted.time;
  accepted.deadline = accepted.time + 120;
  JournalRecord dispatched = accepted;
  dispatched.event = JournalEvent::kDispatched;
  dispatched.attempt = 1;
  dispatched.flags = kJfFirstWait;
  JournalRecord upsert;
  upsert.event = JournalEvent::kMetaUpsert;
  upsert.epoch = 7;
  upsert.db = 4242;
  upsert.cls = 2;
  upsert.predicted_start = 86'833'600;
  JournalRecord iteration;
  iteration.event = JournalEvent::kIteration;
  iteration.epoch = 7;
  iteration.time = 86'833'060;
  iteration.stats = {3, 17, 2, 8};
  iteration.flags = kJfSlowStart;
  return {accepted, dispatched, upsert, iteration};
}

/// GoldenRecords() with sequence numbers 41..44, as the per-record
/// journal writer that preceded the staged one wrote them.
const unsigned char kParentJournal[] = {
    0x6b, 0x00, 0x00, 0x00, 0x01, 0x29, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x5e, 0x00, 0x00, 0x00, 0x04, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x92, 0x10, 0x00, 0x00, 0x01, 0x80, 0x08, 0x00, 0x00, 0xff,
    0xff, 0xff, 0xff, 0x68, 0xf7, 0x2c, 0x05, 0x00, 0x00, 0x00, 0x00, 0x68,
    0xf7, 0x2c, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xe0, 0xf7, 0x2c, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xda, 0xf0, 0x03, 0x25, 0x6b, 0x00, 0x00, 0x00, 0x01,
    0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x5e, 0x00, 0x00, 0x00,
    0x08, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x92, 0x10, 0x00,
    0x00, 0x01, 0x80, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x68, 0xf7,
    0x2c, 0x05, 0x00, 0x00, 0x00, 0x00, 0x68, 0xf7, 0x2c, 0x05, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xf7,
    0x2c, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x43, 0xcc,
    0xab, 0xcb, 0x6b, 0x00, 0x00, 0x00, 0x01, 0x2b, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x5e, 0x00, 0x00, 0x00, 0x02, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x92, 0x10, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xc0, 0xf9, 0x2c, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x39, 0x68, 0xc1, 0x4a, 0x6b, 0x00, 0x00,
    0x00, 0x01, 0x2c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x5e, 0x00,
    0x00, 0x00, 0x10, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xa4, 0xf7, 0x2c, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xbe, 0x0a, 0x23, 0x5d,
};

TEST(ReleasePointTest, StagedFramesMatchTheWalEncoding) {
  const std::string dir = FreshDir("rp_encoding");
  const std::vector<JournalRecord> records = GoldenRecords();
  // The same records through the staged journal (one batch) and through
  // WriteAheadLog::Append of the per-record writer's encoding.
  {
    auto journal = ControlPlaneJournal::Open(dir + "/staged.wal",
                                             SyncMode::kBuffered);
    ASSERT_TRUE(journal.ok());
    (*journal)->set_next_seq(41);
    ControlPlaneJournal::Scope scope(journal->get());
    for (const JournalRecord& rec : records) {
      ASSERT_TRUE((*journal)->Append(rec).ok());
    }
    ASSERT_TRUE(scope.Close().ok());
    EXPECT_EQ((*journal)->wal_stats().writes, 1u);
  }
  {
    auto wal = storage::WriteAheadLog::Open(dir + "/legacy.wal");
    ASSERT_TRUE(wal.ok());
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE((*wal)->Append(LegacyEncoding(41 + i, records[i])).ok());
    }
  }
  const std::string staged = ReadFileBytes(dir + "/staged.wal");
  EXPECT_EQ(staged.size(), records.size() * kFrameBytes);
  EXPECT_EQ(staged, ReadFileBytes(dir + "/legacy.wal"));
}

TEST(ReleasePointTest, ParentJournalReplaysUnchangedAndIsRewrittenIdentically) {
  const std::string dir = FreshDir("rp_golden");
  const std::string parent(reinterpret_cast<const char*>(kParentJournal),
                           sizeof(kParentJournal));
  {
    std::ofstream out(dir + "/parent.wal", std::ios::binary);
    out << parent;
  }
  const std::vector<JournalRecord> want = GoldenRecords();
  Replayed r = ReplayFile(dir + "/parent.wal");
  ASSERT_EQ(r.records.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(r.seqs[i], 41 + i);
    const JournalRecord& got = r.records[i];
    EXPECT_EQ(got.event, want[i].event);
    EXPECT_EQ(got.epoch, want[i].epoch);
    EXPECT_EQ(got.db, want[i].db);
    EXPECT_EQ(got.cls, want[i].cls);
    EXPECT_EQ(got.flags, want[i].flags);
    EXPECT_EQ(got.attempt, want[i].attempt);
    EXPECT_EQ(got.time, want[i].time);
    EXPECT_EQ(got.enqueued_at, want[i].enqueued_at);
    EXPECT_EQ(got.not_before, want[i].not_before);
    EXPECT_EQ(got.deadline, want[i].deadline);
    EXPECT_EQ(got.predicted_start, want[i].predicted_start);
    EXPECT_EQ(got.stats, want[i].stats);
  }
  // Written again — once record by record, once as a single batch — the
  // file is byte for byte the parent's.
  for (bool batched : {false, true}) {
    const std::string path =
        dir + (batched ? "/batched.wal" : "/per_record.wal");
    auto journal = ControlPlaneJournal::Open(path, SyncMode::kBuffered);
    ASSERT_TRUE(journal.ok());
    (*journal)->set_next_seq(41);
    ControlPlaneJournal::Scope scope(batched ? journal->get() : nullptr);
    for (const JournalRecord& rec : want) {
      ASSERT_TRUE((*journal)->Append(rec).ok());
    }
    ASSERT_TRUE(scope.Close().ok());
    EXPECT_EQ((*journal)->wal_stats().writes, batched ? 1u : want.size());
    EXPECT_EQ(ReadFileBytes(path), parent) << (batched ? "batched" : "per record");
  }
}

}  // namespace
}  // namespace prorp::controlplane
