#include "fairmatch/recover/wal.h"

#include <cstdio>

#include "fairmatch/common/crc32.h"
#include "fairmatch/recover/wire.h"
#include "fairmatch/storage/fault_injector.h"

namespace fairmatch::recover {

namespace {

constexpr char kWalMagic[8] = {'F', 'M', 'W', 'A', 'L', '0', '0', '1'};
constexpr size_t kRecordHeader = 8 + 4 + 4;  // epoch + len + crc

uint32_t RecordCrc(int64_t epoch, const std::string& payload) {
  uint32_t state = 0xFFFFFFFFu;
  state = Crc32Update(state, &epoch, sizeof(epoch));
  const auto len = static_cast<uint32_t>(payload.size());
  state = Crc32Update(state, &len, sizeof(len));
  state = Crc32Update(state, payload.data(), payload.size());
  return state ^ 0xFFFFFFFFu;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

Status WalWriter::Create(const std::string& path,
                         FaultInjector* injector,
                         WalWriter* out) {
  std::string error;
  DurableFile file = DurableFile::Create(path, &error);
  if (!file.valid()) {
    return Status::Unavailable("wal create: " + error);
  }
  if (!file.Append(kWalMagic, sizeof(kWalMagic), injector, "wal header write",
                   &error) ||
      !file.Sync(injector, "wal header sync", &error)) {
    return Status::Unavailable("wal create: " + error);
  }
  out->file_ = std::move(file);
  return Status::Ok();
}

Status WalWriter::OpenForAppend(const std::string& path,
                                int64_t intact_bytes,
                                FaultInjector* injector,
                                WalWriter* out) {
  (void)injector;
  std::string error;
  // Cut the torn tail first: appending after torn residue would hide
  // every later record behind an unreadable one.
  if (!TruncateFile(path, intact_bytes, &error)) {
    return Status::Unavailable("wal reopen: " + error);
  }
  DurableFile file = DurableFile::OpenAppend(path, &error);
  if (!file.valid()) {
    return Status::Unavailable("wal reopen: " + error);
  }
  out->file_ = std::move(file);
  return Status::Ok();
}

Status WalWriter::Append(int64_t epoch,
                         const std::string& payload,
                         FaultInjector* injector) {
  std::string record;
  record.reserve(kRecordHeader + payload.size());
  PutI64(&record, epoch);
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU32(&record, RecordCrc(epoch, payload));
  record.append(payload);
  std::string error;
  if (!file_.Append(record.data(), record.size(), injector,
                    "wal record write", &error) ||
      !file_.Sync(injector, "wal record sync", &error)) {
    return Status::Unavailable("wal append: " + error);
  }
  return Status::Ok();
}

Status ReadWal(const std::string& path,
               std::vector<WalRecord>* records,
               WalReadStats* stats) {
  records->clear();
  *stats = WalReadStats{};
  if (!FileExists(path)) {
    return Status::NotFound("wal missing: " + path);
  }
  std::string bytes;
  std::string error;
  if (!ReadFileBytes(path, &bytes, &error)) {
    return Status::DataLoss("wal unreadable: " + error);
  }
  stats->bytes_total = static_cast<int64_t>(bytes.size());
  if (bytes.size() < sizeof(kWalMagic) ||
      std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::DataLoss("wal header corrupt: " + path);
  }
  size_t pos = sizeof(kWalMagic);
  while (pos < bytes.size()) {
    // An INCOMPLETE record at the end of the file is the torn tail —
    // the residue of a crash mid-append, whose batch was never
    // acknowledged: stop and truncate. A COMPLETE record whose CRC
    // fails is different: appends are single writes, so a torn prefix
    // can never produce a full-length record — those bytes rotted
    // after commit, and the committed history is unreadable.
    if (bytes.size() - pos < kRecordHeader) break;
    WireReader r(bytes.data() + pos, kRecordHeader);
    const int64_t epoch = r.GetI64();
    const uint32_t len = r.GetU32();
    const uint32_t crc = r.GetU32();
    if (bytes.size() - pos - kRecordHeader < len) break;
    std::string payload = bytes.substr(pos + kRecordHeader, len);
    if (RecordCrc(epoch, payload) != crc) {
      return Status::DataLoss(
          "wal record " + std::to_string(stats->records) +
          " checksum mismatch in " + path +
          " (committed history unreadable)");
    }
    records->push_back(WalRecord{epoch, std::move(payload)});
    pos += kRecordHeader + len;
    ++stats->records;
  }
  stats->bytes_used = static_cast<int64_t>(pos);
  stats->torn_bytes = stats->bytes_total - stats->bytes_used;
  stats->torn_tail = stats->torn_bytes > 0;
  return Status::Ok();
}

}  // namespace fairmatch::recover
