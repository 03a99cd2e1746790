// Durable epoch manifest: a versioned superblock in double-slot A/B
// form.
//
// One 512-byte file, two fixed 256-byte slots:
//
//   offset 0    +---------------------------+
//               | slot A (256 B)            |
//   offset 256  +---------------------------+
//               | slot B (256 B)            |
//               +---------------------------+
//
//   slot := magic "FMMAN001" (8 B)
//           seq   u64   monotonic commit number (0 = never written)
//           epoch i64   the snapshot epoch this slot binds
//           snapshot_file  char[80]  NUL-padded basename
//           wal_file       char[80]  NUL-padded basename
//           dataset        char[64]  NUL-padded dataset name
//           reserved u32
//           crc      u32  CRC32 over the preceding 252 bytes
//
// Copy-on-write protocol: commit `seq` writes slot `seq % 2` — always
// the slot holding the OLDER state — with one positioned write (torn-
// able under a crash schedule) and one fsync. The newest committed
// state is therefore never overwritten in place: a torn slot write
// leaves the other slot intact and recovery simply fails over to it.
// Readers validate both slots independently (magic + CRC) and order
// the survivors by seq descending; an all-zero slot is "empty" (a
// fresh file), anything else that fails validation is "corrupt".
#ifndef FAIRMATCH_RECOVER_MANIFEST_H_
#define FAIRMATCH_RECOVER_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fairmatch/common/status.h"
#include "fairmatch/storage/durable_file.h"

namespace fairmatch {
class FaultInjector;
}

namespace fairmatch::recover {

/// One committed manifest state.
struct ManifestRecord {
  uint64_t seq = 0;
  int64_t epoch = 0;
  std::string snapshot_file;  // basename, relative to the log dir
  std::string wal_file;       // basename
  std::string dataset;        // dataset name (sanity-checked on boot)
};

/// What ReadManifest() observed per file.
struct ManifestReadStats {
  int slots_valid = 0;
  int slots_empty = 0;
  int slots_corrupt = 0;
  std::string detail;  // which slot failed which check
};

/// Serializes + durably commits manifest records. One writer per file.
class ManifestWriter {
 public:
  /// Opens (creating + zero-filling if absent) the manifest at `path`.
  /// Creation durably writes the 512 zero bytes (one write + one sync
  /// boundary) so slot writes never extend the file.
  static Status Open(const std::string& path,
                     FaultInjector* injector,
                     ManifestWriter* out);

  ManifestWriter() = default;
  ManifestWriter(ManifestWriter&&) = default;
  ManifestWriter& operator=(ManifestWriter&&) = default;

  bool valid() const { return file_.valid(); }

  /// Durably commits `record` into slot (record.seq % 2): one torn-able
  /// positioned write boundary + one sync boundary. record.seq must
  /// advance the last committed seq.
  Status Commit(const ManifestRecord& record, FaultInjector* injector);

 private:
  DurableFile file_;
};

/// Validates both slots of `path`, returning the survivors newest
/// first. Missing file -> kNotFound. A file with at least one valid
/// slot -> OK (stats says whether the other was empty or corrupt; a
/// corrupt one is the torn-write failover case). No valid slot at all
/// -> kNotFound when both are empty (nothing ever committed), typed
/// kDataLoss when anything was corrupt.
Status ReadManifest(const std::string& path,
                    std::vector<ManifestRecord>* records,
                    ManifestReadStats* stats);

}  // namespace fairmatch::recover

#endif  // FAIRMATCH_RECOVER_MANIFEST_H_
