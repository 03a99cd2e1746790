// Checksummed, length-prefixed write-ahead log of update batches.
//
// File layout:
//
//   +----------------------------+
//   | "FMWAL001"          (8 B)  |   file header (magic + version)
//   +----------------------------+
//   | record 0                   |
//   | record 1                   |
//   | ...                        |
//   +----------------------------+
//
//   record := epoch   i64   the epoch this batch produces when applied
//             len     u32   payload byte count
//             crc     u32   CRC32 over (epoch, len, payload)
//             payload u8[len]   EncodeBatch bytes (recover/batch_codec.h)
//
// Durability protocol: Append() lands the whole record with one durable
// write (torn-able under a crash schedule) and one fsync — the record
// is committed iff the fsync returned. The reader walks records until
// the first torn or checksum-failing one and STOPS there: a torn tail
// is the normal residue of a crash mid-append, truncated silently (the
// batch was never acknowledged, so it never happened); everything
// before it is intact by CRC. Damage in the header or in an interior
// record is a different matter — that means the committed prefix is
// unreadable — and comes back as typed kDataLoss so recovery can fail
// over to an older manifest slot.
#ifndef FAIRMATCH_RECOVER_WAL_H_
#define FAIRMATCH_RECOVER_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fairmatch/common/status.h"
#include "fairmatch/storage/durable_file.h"

namespace fairmatch {
class FaultInjector;
}

namespace fairmatch::recover {

/// One decoded WAL record (payload still encoded; recovery hands it to
/// DecodeBatch).
struct WalRecord {
  int64_t epoch = 0;
  std::string payload;
};

/// What a read pass observed.
struct WalReadStats {
  int64_t records = 0;
  int64_t bytes_total = 0;
  int64_t bytes_used = 0;  // header + intact records
  /// Bytes discarded at the tail (torn record residue), and whether
  /// any were.
  int64_t torn_bytes = 0;
  bool torn_tail = false;
};

/// Appends records durably. One writer per log file.
class WalWriter {
 public:
  /// Creates/truncates `path` and durably writes the file header (one
  /// write + one sync boundary). `injector` may be null; when armed
  /// its crash schedule fires at those boundaries.
  static Status Create(const std::string& path,
                       FaultInjector* injector, WalWriter* out);

  /// Opens an existing log for appending after its intact prefix was
  /// replayed. `intact_bytes` (from WalReadStats::bytes_used) becomes
  /// the append position: the file is first truncated there, so a torn
  /// tail record never has garbage appended after it.
  static Status OpenForAppend(const std::string& path,
                              int64_t intact_bytes,
                              FaultInjector* injector,
                              WalWriter* out);

  WalWriter() = default;
  WalWriter(WalWriter&&) = default;
  WalWriter& operator=(WalWriter&&) = default;

  bool valid() const { return file_.valid(); }
  const std::string& path() const { return file_.path(); }

  /// Durably appends one record: one (torn-able) write boundary with
  /// the full record bytes, one sync boundary. OK means committed.
  Status Append(int64_t epoch, const std::string& payload,
                FaultInjector* injector);

 private:
  DurableFile file_;
};

/// Reads the intact record prefix of `path` into `records`. A torn or
/// CRC-failing tail record truncates (OK + stats.torn_tail); a missing
/// file is kNotFound; a bad header or unreadable committed prefix is
/// kDataLoss.
Status ReadWal(const std::string& path,
               std::vector<WalRecord>* records,
               WalReadStats* stats);

}  // namespace fairmatch::recover

#endif  // FAIRMATCH_RECOVER_WAL_H_
