#include "fairmatch/storage/mmap_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>

#include "fairmatch/storage/fault_injector.h"

#if defined(__unix__) || defined(__APPLE__)
#define FAIRMATCH_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace fairmatch {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// Consults the injector's map stream; true = refuse this attach.
bool InjectedMapFailure(FaultInjector* injector, const std::string& path,
                        std::string* error) {
  if (injector == nullptr) return false;
  Status status = injector->OnMap(path);
  if (status.ok()) return false;
  SetError(error, status.message);
  return true;
}

#if defined(FAIRMATCH_HAVE_MMAP)
/// Modification time in nanoseconds (platform-specific stat field).
uint64_t MtimeNs(const struct stat& st) {
#if defined(__APPLE__)
  return static_cast<uint64_t>(st.st_mtimespec.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(st.st_mtimespec.tv_nsec);
#else
  return static_cast<uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(st.st_mtim.tv_nsec);
#endif
}
#endif

}  // namespace

bool MmapFile::Map(const std::string& path, std::string* error,
                   FaultInjector* injector) {
  Reset();
  if (InjectedMapFailure(injector, path, error)) return false;
#if defined(FAIRMATCH_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, "open failed for " + path + ": " + std::strerror(errno));
    return false;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    SetError(error, "fstat failed for " + path + ": " + std::strerror(errno));
    ::close(fd);
    return false;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    SetError(error, path + " is empty");
    ::close(fd);
    return false;
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (addr == MAP_FAILED) {
    SetError(error, "mmap failed for " + path + ": " + std::strerror(errno));
    return false;
  }
  data_ = static_cast<std::byte*>(addr);
  size_ = size;
  mapped_ = true;
  path_ = path;
  attach_mtime_ns_ = MtimeNs(st);
  return true;
#else
  // No OS mapping available: the owned-copy path is the only one.
  return Load(path, error, nullptr);
#endif
}

bool MmapFile::Load(const std::string& path, std::string* error,
                    FaultInjector* injector) {
  Reset();
  if (InjectedMapFailure(injector, path, error)) return false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    SetError(error, "fopen failed for " + path);
    return false;
  }
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end <= 0) {
    SetError(error, path + " is empty or unseekable");
    std::fclose(f);
    return false;
  }
  std::fseek(f, 0, SEEK_SET);
  const size_t size = static_cast<size_t>(end);
  std::byte* buffer = new (std::nothrow) std::byte[size];
  if (buffer == nullptr || std::fread(buffer, 1, size, f) != size) {
    SetError(error, "short read from " + path);
    delete[] buffer;
    std::fclose(f);
    return false;
  }
  std::fclose(f);
  data_ = buffer;
  size_ = size;
  mapped_ = false;
  path_ = path;
  return true;
}

bool MmapFile::SizeIntact(std::string* detail) const {
  if (!valid() || !mapped_) {
    if (!valid()) SetError(detail, "no file attached");
    return valid();
  }
#if defined(FAIRMATCH_HAVE_MMAP)
  struct stat st;
  if (::stat(path_.c_str(), &st) != 0 || st.st_size < 0) {
    // The file vanished out from under the mapping; the pages already
    // resident stay readable, but treat it as no longer intact.
    SetError(detail, "stat failed for " + path_ +
                         " (backing file vanished): " + std::strerror(errno));
    return false;
  }
  const auto now = static_cast<size_t>(st.st_size);
  if (now < size_) {
    SetError(detail, "backing file " + path_ + " shrank to " +
                         std::to_string(now) + " bytes under a " +
                         std::to_string(size_) +
                         "-byte mapping (tail pages would SIGBUS)");
    return false;
  }
  if (now > size_) {
    SetError(detail, "backing file " + path_ + " grew to " +
                         std::to_string(now) + " bytes past the attached " +
                         std::to_string(size_) +
                         " (external writer mutated the image)");
    return false;
  }
  if (MtimeNs(st) != attach_mtime_ns_) {
    SetError(detail, "backing file " + path_ +
                         " was rewritten in place since attach "
                         "(mtime changed at unchanged size)");
    return false;
  }
  return true;
#else
  return true;
#endif
}

void MmapFile::Reset() {
  if (data_ == nullptr) {
    path_.clear();
    return;
  }
#if defined(FAIRMATCH_HAVE_MMAP)
  if (mapped_) {
    ::munmap(data_, size_);
  } else {
    delete[] data_;
  }
#else
  delete[] data_;
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  path_.clear();
}

bool MmapFile::Write(const std::string& path, const void* bytes, size_t size,
                     std::string* error) {
  // Temp-and-rename: readers of `path` only ever see the previous
  // complete image or the new complete image, never a torn hybrid.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    SetError(error, "fopen failed for " + tmp);
    return false;
  }
  const bool ok = size == 0 || std::fwrite(bytes, 1, size, f) == size;
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    SetError(error, "short write to " + tmp);
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    SetError(error, "rename " + tmp + " -> " + path + " failed: " +
                        std::strerror(errno));
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace fairmatch
