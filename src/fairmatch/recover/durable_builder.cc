#include "fairmatch/recover/durable_builder.h"

#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "fairmatch/recover/batch_codec.h"
#include "fairmatch/recover/snapshot.h"
#include "fairmatch/storage/fault_injector.h"

namespace fairmatch::recover {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string Join(const std::string& dir, const std::string& basename) {
  return dir + "/" + basename;
}

std::string SnapshotName(int64_t epoch) {
  return "snap-" + std::to_string(epoch) + ".fms";
}

std::string WalName(int64_t epoch) {
  return "wal-" + std::to_string(epoch) + ".log";
}

std::string ManifestPath(const std::string& dir) {
  return Join(dir, "MANIFEST");
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

void AppendDetail(std::string* detail, const std::string& piece) {
  if (!detail->empty()) *detail += "; ";
  *detail += piece;
}

}  // namespace

Status DurableBuilder::Bootstrap(
    serve::DatasetHandle base, const DurableOptions& options,
    std::unique_ptr<DurableBuilder>* out) {
  const std::string manifest_path = ManifestPath(options.dir);
  if (FileExists(manifest_path)) {
    return Status::FailedPrecondition(
        "bootstrap into " + options.dir +
        ": a manifest already exists (Recover() owns this directory)");
  }

  auto builder = std::unique_ptr<DurableBuilder>(new DurableBuilder());
  builder->options_ = options;
  builder->delta_ =
      std::make_unique<update::DeltaBuilder>(std::move(base), options.delta);

  Status status =
      ManifestWriter::Open(manifest_path, options.injector,
                           &builder->manifest_);
  if (!status.ok()) return status;

  const int64_t epoch = builder->delta_->epoch();
  const serve::DatasetHandle& dataset = builder->delta_->current();
  ManifestRecord record;
  record.seq = 1;
  record.epoch = epoch;
  record.snapshot_file = SnapshotName(epoch);
  record.wal_file = WalName(epoch);
  record.dataset = dataset->name();

  status = WriteSnapshot(Join(options.dir, record.snapshot_file), *dataset,
                         options.injector);
  if (!status.ok()) return status;
  status = WalWriter::Create(Join(options.dir, record.wal_file),
                             options.injector, &builder->wal_);
  if (!status.ok()) return status;
  status = builder->manifest_.Commit(record, options.injector);
  if (!status.ok()) return status;

  builder->committed_ = record;
  *out = std::move(builder);
  return Status::Ok();
}

Status DurableBuilder::Recover(const DurableOptions& options,
                               std::unique_ptr<DurableBuilder>* out,
                               RecoveryStats* stats) {
  RecoveryStats local;
  if (stats == nullptr) stats = &local;
  *stats = RecoveryStats{};
  const Clock::time_point t0 = Clock::now();

  std::vector<ManifestRecord> candidates;
  ManifestReadStats mstats;
  Status status =
      ReadManifest(ManifestPath(options.dir), &candidates, &mstats);
  stats->manifest_slots_corrupt = mstats.slots_corrupt;
  if (!mstats.detail.empty()) AppendDetail(&stats->detail, mstats.detail);
  if (!status.ok()) {
    stats->total_ms = MsSince(t0);
    return status;
  }

  for (const ManifestRecord& record : candidates) {
    const Clock::time_point slot_t0 = Clock::now();
    serve::DatasetHandle snapshot;
    status = LoadSnapshot(Join(options.dir, record.snapshot_file),
                          options.delta.dataset, &snapshot);
    if (!status.ok()) {
      ++stats->snapshot_fallbacks;
      AppendDetail(&stats->detail, "seq " + std::to_string(record.seq) + ": " +
                                       status.message);
      continue;
    }
    if (!record.dataset.empty() && snapshot->name() != record.dataset) {
      ++stats->snapshot_fallbacks;
      AppendDetail(&stats->detail,
                   "seq " + std::to_string(record.seq) +
                       ": snapshot names dataset '" + snapshot->name() +
                       "' but the manifest slot binds '" + record.dataset +
                       "'");
      continue;
    }

    std::vector<WalRecord> wal_records;
    WalReadStats wstats;
    status =
        ReadWal(Join(options.dir, record.wal_file), &wal_records, &wstats);
    if (!status.ok()) {
      // A committed WAL that is missing or whose committed prefix is
      // unreadable: this slot cannot converge, fail over.
      ++stats->snapshot_fallbacks;
      AppendDetail(&stats->detail, "seq " + std::to_string(record.seq) + ": " +
                                       status.message);
      continue;
    }
    const double load_ms = MsSince(slot_t0);

    // Replay runs through the exact apply path the live process used,
    // minus the delta-level injector (a replayed batch must not have
    // faults re-injected into it).
    update::DeltaOptions replay_options = options.delta;
    replay_options.injector = nullptr;
    auto delta = std::make_unique<update::DeltaBuilder>(std::move(snapshot),
                                                        replay_options);

    const Clock::time_point replay_t0 = Clock::now();
    int64_t replayed = 0;
    int64_t skipped = 0;
    int64_t rejected = 0;
    bool slot_ok = true;
    for (const WalRecord& wal_record : wal_records) {
      if (wal_record.epoch <= delta->epoch()) {
        // Already folded into the snapshot (or a duplicate append):
        // replay is idempotent, skip.
        ++skipped;
        continue;
      }
      if (wal_record.epoch != delta->epoch() + 1) {
        AppendDetail(&stats->detail,
                     "seq " + std::to_string(record.seq) +
                         ": WAL epoch gap (record for epoch " +
                         std::to_string(wal_record.epoch) + " after epoch " +
                         std::to_string(delta->epoch()) + ")");
        slot_ok = false;
        break;
      }
      update::UpdateBatch batch;
      int dims = 0;
      if (!DecodeBatch(wal_record.payload, &batch, &dims)) {
        AppendDetail(&stats->detail,
                     "seq " + std::to_string(record.seq) +
                         ": WAL record for epoch " +
                         std::to_string(wal_record.epoch) +
                         " passed its checksum but failed to decode");
        slot_ok = false;
        break;
      }
      const Status apply = delta->Apply(batch);
      if (apply.ok()) {
        ++replayed;
      } else if (apply.code == ErrorCode::kInvalidArgument) {
        // The live path logged this batch and then rejected it without
        // advancing the epoch; replay rejects it identically.
        ++rejected;
      } else {
        AppendDetail(&stats->detail, "seq " + std::to_string(record.seq) +
                                         ": replay of epoch " +
                                         std::to_string(wal_record.epoch) +
                                         " failed: " + apply.message);
        slot_ok = false;
        break;
      }
    }
    if (!slot_ok) {
      ++stats->snapshot_fallbacks;
      continue;
    }
    const double replay_ms = MsSince(replay_t0);

    auto builder = std::unique_ptr<DurableBuilder>(new DurableBuilder());
    builder->options_ = options;
    status = WalWriter::OpenForAppend(Join(options.dir, record.wal_file),
                                      wstats.bytes_used, options.injector,
                                      &builder->wal_);
    if (!status.ok()) return status;
    status = ManifestWriter::Open(ManifestPath(options.dir), options.injector,
                                  &builder->manifest_);
    if (!status.ok()) return status;
    builder->delta_ = std::move(delta);
    builder->committed_ = record;
    builder->records_since_snapshot_ = replayed + rejected;

    stats->recovered_epoch = builder->epoch();
    stats->snapshot_epoch = record.epoch;
    stats->manifest_seq = record.seq;
    stats->wal_records_replayed = replayed;
    stats->wal_records_skipped = skipped;
    stats->wal_records_rejected = rejected;
    stats->wal_torn_bytes = wstats.torn_bytes;
    stats->wal_torn_tail = wstats.torn_tail;
    stats->load_ms = load_ms;
    stats->replay_ms = replay_ms;
    stats->total_ms = MsSince(t0);
    *out = std::move(builder);
    return Status::Ok();
  }

  stats->total_ms = MsSince(t0);
  return Status::DataLoss(
      "no manifest slot of " + options.dir +
      " leads to a servable epoch (" + stats->detail + ")");
}

Status DurableBuilder::Apply(const update::UpdateBatch& batch,
                             update::UpdateStats* stats) {
  // WAL first: the record must be durable before any in-memory state
  // moves. Its fsync is the commit point.
  std::string payload;
  EncodeBatch(batch, delta_->current()->problem().dims, &payload);
  Status status =
      wal_.Append(delta_->epoch() + 1, payload, options_.injector);
  if (!status.ok()) return status;
  ++records_since_snapshot_;

  status = delta_->Apply(batch, stats);
  if (!status.ok()) return status;

  if (records_since_snapshot_ >= options_.snapshot_threshold) {
    return Checkpoint();
  }
  return Status::Ok();
}

Status DurableBuilder::Checkpoint() {
  const int64_t epoch = delta_->epoch();
  if (epoch <= committed_.epoch) {
    // Every record since the last checkpoint was rejected; there is no
    // new epoch to bind and re-snapshotting the committed one would
    // rotate away nothing but rejected records. Skip.
    return Status::Ok();
  }

  ManifestRecord next;
  next.seq = committed_.seq + 1;
  next.epoch = epoch;
  next.snapshot_file = SnapshotName(epoch);
  next.wal_file = WalName(epoch);
  next.dataset = delta_->current()->name();

  // Order matters: snapshot, fresh WAL, manifest commit. A crash at
  // any boundary before the commit's fsync leaves the old slot bound
  // to the old snapshot + old WAL — both still on disk and complete.
  Status status =
      WriteSnapshot(Join(options_.dir, next.snapshot_file),
                    *delta_->current(), options_.injector);
  if (!status.ok()) return status;
  WalWriter next_wal;
  status = WalWriter::Create(Join(options_.dir, next.wal_file),
                             options_.injector, &next_wal);
  if (!status.ok()) return status;
  status = manifest_.Commit(next, options_.injector);
  if (!status.ok()) return status;

  // Committed. The superseded files are unreferenced by both slots'
  // surviving histories; pruning them is best-effort cleanup.
  const ManifestRecord old = committed_;
  wal_ = std::move(next_wal);
  committed_ = next;
  records_since_snapshot_ = 0;
  if (old.snapshot_file != next.snapshot_file) {
    std::remove(Join(options_.dir, old.snapshot_file).c_str());
  }
  if (old.wal_file != next.wal_file) {
    std::remove(Join(options_.dir, old.wal_file).c_str());
  }
  return Status::Ok();
}

Status RecoverAndPublish(
    const DurableOptions& options, serve::DatasetRegistry* registry,
    serve::DatasetHandle* out, RecoveryStats* stats,
    std::unique_ptr<DurableBuilder>* builder_out) {
  std::unique_ptr<DurableBuilder> builder;
  Status status = DurableBuilder::Recover(options, &builder, stats);
  if (!status.ok()) return status;
  status = registry->PublishRecovered(builder->current());
  if (!status.ok()) return status;
  if (out != nullptr) *out = builder->current();
  if (builder_out != nullptr) *builder_out = std::move(builder);
  return Status::Ok();
}

}  // namespace fairmatch::recover
