// Versioned binary snapshot container.
//
// A snapshot is a flat byte stream: a fixed header (magic, format version),
// a sequence of tagged sections, an end-of-sections marker, and an FNV-1a
// checksum trailer over everything before it. Writers append primitive
// values little-endian through SnapshotWriter; readers consume them through
// SnapshotReader, which NEVER aborts on malformed input — every read is
// bounds-checked and the first violation (bad magic, unknown version, short
// stream, checksum mismatch, oversized length prefix) latches a descriptive
// error that the caller surfaces to the user. A failed load must leave the
// target object untouched: deserialize into a staging struct first, commit
// only when ok().
//
// Versioning rules (DESIGN.md §10): the format version covers the whole
// container layout. Any change to a section's wire layout bumps
// kSnapshotFormatVersion; there is no cross-version migration — a version
// mismatch is a clean refusal, never a partial load. Section tags let a
// reader verify it is looking at the section it expects.

#ifndef FRAGVISOR_SRC_SIM_SNAPSHOT_H_
#define FRAGVISOR_SRC_SIM_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace fragvisor {

inline constexpr uint64_t kSnapshotMagic = 0x50414e5356474246ull;  // "FBGVSNAP"
inline constexpr uint32_t kSnapshotFormatVersion = 1;

// FNV-1a over a byte range (the container checksum and the payload hashes of
// capture records both use it).
uint64_t SnapshotHashBytes(const void* data, size_t size);
inline uint64_t SnapshotHashString(const std::string& s) {
  return SnapshotHashBytes(s.data(), s.size());
}

class SnapshotWriter {
 public:
  SnapshotWriter();

  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Bytes(const void* data, size_t size);
  void Str(const std::string& s);  // length-prefixed

  // Opens a tagged section. Sections are flat (no nesting).
  void BeginSection(const char* tag);

  // Appends the end marker and checksum trailer and returns the stream.
  // The writer is spent afterwards.
  std::string Finish();

 private:
  std::string buf_;
  bool finished_ = false;
};

class SnapshotReader {
 public:
  // The reader borrows `data`; it must outlive the reader. Validates the
  // header and the checksum trailer up front — a truncated or bit-flipped
  // stream is rejected before any field is consumed.
  explicit SnapshotReader(const std::string& data);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();
  // Copies `size` raw bytes into `dst`; on a short stream, latches the error
  // and leaves `dst` untouched. Returns ok().
  bool BytesInto(void* dst, size_t size);

  // Consumes the next section header and checks its tag. On mismatch the
  // error names both the expected and the found tag.
  bool Section(const char* tag);

  // True once every section has been consumed (the end marker was reached).
  bool AtEnd();

  // Latches a caller-detected semantic error (wrong shape, configuration
  // mismatch) with the same first-error-wins discipline as primitive reads.
  // Returns false, so a loader can `return r->FailExternal(...)`.
  bool FailExternal(const std::string& why) {
    Fail(why);
    return false;
  }

 private:
  void Fail(const std::string& why);
  bool Need(size_t n);

  const std::string& data_;
  size_t pos_ = 0;
  size_t payload_end_ = 0;  // start of the checksum trailer
  std::string error_;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_SNAPSHOT_H_
