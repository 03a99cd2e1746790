#include "fairmatch/recover/manifest.h"

#include <cstdio>
#include <cstring>

#include "fairmatch/common/crc32.h"
#include "fairmatch/recover/wire.h"
#include "fairmatch/storage/fault_injector.h"

namespace fairmatch::recover {

namespace {

constexpr char kManifestMagic[8] = {'F', 'M', 'M', 'A', 'N', '0', '0', '1'};
constexpr size_t kSlotSize = 256;
constexpr size_t kNameField = 80;
constexpr size_t kDatasetField = 64;
constexpr size_t kCrcOffset = kSlotSize - 4;

void PutPadded(std::string* buffer, const std::string& value, size_t width) {
  std::string field = value.substr(0, width - 1);  // always NUL-terminated
  field.resize(width, '\0');
  buffer->append(field);
}

std::string TrimNul(const std::string& field) {
  const size_t nul = field.find('\0');
  return nul == std::string::npos ? field : field.substr(0, nul);
}

/// Serializes one slot (exactly kSlotSize bytes, CRC in the tail).
std::string EncodeSlot(const ManifestRecord& record) {
  std::string slot;
  slot.reserve(kSlotSize);
  slot.append(kManifestMagic, sizeof(kManifestMagic));
  PutU64(&slot, record.seq);
  PutI64(&slot, record.epoch);
  PutPadded(&slot, record.snapshot_file, kNameField);
  PutPadded(&slot, record.wal_file, kNameField);
  PutPadded(&slot, record.dataset, kDatasetField);
  PutU32(&slot, 0);  // reserved
  slot.resize(kCrcOffset, '\0');
  PutU32(&slot, Crc32Of(slot.data(), kCrcOffset));
  return slot;
}

enum class SlotState { kValid, kEmpty, kCorrupt };

SlotState DecodeSlot(const char* bytes, ManifestRecord* record,
                     std::string* why) {
  bool all_zero = true;
  for (size_t i = 0; i < kSlotSize; ++i) {
    if (bytes[i] != '\0') {
      all_zero = false;
      break;
    }
  }
  if (all_zero) return SlotState::kEmpty;
  if (std::memcmp(bytes, kManifestMagic, sizeof(kManifestMagic)) != 0) {
    *why = "bad magic";
    return SlotState::kCorrupt;
  }
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes + kCrcOffset, sizeof(stored_crc));
  if (Crc32Of(bytes, kCrcOffset) != stored_crc) {
    *why = "checksum mismatch (torn slot write)";
    return SlotState::kCorrupt;
  }
  WireReader r(bytes + sizeof(kManifestMagic),
               kSlotSize - sizeof(kManifestMagic));
  record->seq = r.GetU64();
  record->epoch = r.GetI64();
  record->snapshot_file = TrimNul(r.GetBytes(kNameField));
  record->wal_file = TrimNul(r.GetBytes(kNameField));
  record->dataset = TrimNul(r.GetBytes(kDatasetField));
  if (record->seq == 0) {
    *why = "zero seq under valid checksum";
    return SlotState::kCorrupt;
  }
  return SlotState::kValid;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

Status ManifestWriter::Open(const std::string& path,
                            FaultInjector* injector,
                            ManifestWriter* out) {
  std::string error;
  const bool fresh = !FileExists(path);
  DurableFile file = DurableFile::OpenRw(path, &error);
  if (!file.valid()) {
    return Status::Unavailable("manifest open: " + error);
  }
  if (fresh) {
    const std::string zeros(2 * kSlotSize, '\0');
    if (!file.WriteAt(zeros.data(), zeros.size(), 0, injector,
                      "manifest format write", &error) ||
        !file.Sync(injector, "manifest format sync", &error)) {
      return Status::Unavailable("manifest format: " + error);
    }
  }
  out->file_ = std::move(file);
  return Status::Ok();
}

Status ManifestWriter::Commit(const ManifestRecord& record,
                              FaultInjector* injector) {
  const std::string slot = EncodeSlot(record);
  const long long offset =
      static_cast<long long>((record.seq % 2) * kSlotSize);
  std::string error;
  if (!file_.WriteAt(slot.data(), slot.size(), offset, injector,
                     "manifest slot write", &error) ||
      !file_.Sync(injector, "manifest slot sync", &error)) {
    return Status::Unavailable("manifest commit: " + error);
  }
  return Status::Ok();
}

Status ReadManifest(const std::string& path,
                    std::vector<ManifestRecord>* records,
                    ManifestReadStats* stats) {
  records->clear();
  *stats = ManifestReadStats{};
  if (!FileExists(path)) {
    return Status::NotFound("manifest missing: " + path);
  }
  std::string bytes;
  std::string error;
  if (!ReadFileBytes(path, &bytes, &error)) {
    return Status::DataLoss("manifest unreadable: " + error);
  }
  bytes.resize(2 * kSlotSize, '\0');  // a short file reads as empty slots
  for (int slot = 0; slot < 2; ++slot) {
    ManifestRecord record;
    std::string why;
    switch (DecodeSlot(bytes.data() + slot * kSlotSize, &record, &why)) {
      case SlotState::kValid:
        ++stats->slots_valid;
        records->push_back(std::move(record));
        break;
      case SlotState::kEmpty:
        ++stats->slots_empty;
        break;
      case SlotState::kCorrupt:
        ++stats->slots_corrupt;
        if (!stats->detail.empty()) stats->detail += "; ";
        stats->detail += "slot " + std::to_string(slot) + ": " + why;
        break;
    }
  }
  if (records->size() == 2 && (*records)[0].seq < (*records)[1].seq) {
    std::swap((*records)[0], (*records)[1]);
  }
  if (!records->empty()) return Status::Ok();
  if (stats->slots_corrupt > 0) {
    return Status::DataLoss(
        "manifest " + path + " has no intact slot (" + stats->detail + ")");
  }
  return Status::NotFound("manifest " + path + " was never committed");
}

}  // namespace fairmatch::recover
