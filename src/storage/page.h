#ifndef KIMDB_STORAGE_PAGE_H_
#define KIMDB_STORAGE_PAGE_H_

#include <cstdint>
#include <string_view>

#include "util/result.h"
#include "util/status.h"

namespace kimdb {

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;
inline constexpr size_t kPageSize = 4096;

/// Physical address of a record: page + slot. Objects are addressed
/// logically by OID; the object directory maps OID -> RecordId so records
/// may move (e.g. when an update grows past its page's free space).
struct RecordId {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page_id != kInvalidPageId; }
  bool operator==(const RecordId&) const = default;
};

/// Slotted-page accessor over a raw `kPageSize` buffer (it does not own the
/// buffer; the buffer lives in a buffer-pool frame).
///
/// Layout:
///   [0..8)    page LSN (recovery: skip redo of already-applied updates)
///   [8..12)   next page id (heap files chain their pages)
///   [12..14)  number of slots
///   [14..16)  data_start: lowest byte offset used by record data
///   [16..)    slot array, 4 bytes per slot: {uint16 offset, uint16 size};
///             offset 0 marks a deleted/empty slot
///   record data grows downward from the end of the page.
class SlottedPage {
 public:
  explicit SlottedPage(char* data) : data_(data) {}

  /// Formats a freshly-allocated page.
  void Init();

  /// False for an all-zero (never formatted, or formatted-but-never-
  /// flushed-after-crash) page: data_start is 0, which Init never
  /// produces. Chain walkers treat an uninitialized page as the end of the
  /// chain, and writers lazily Init it; this is what makes extents
  /// self-healing after a crash that lost buffered pages (recovery then
  /// replays the WAL on top).
  bool initialized() const { return data_start() != 0; }

  uint64_t lsn() const;
  void set_lsn(uint64_t lsn);
  PageId next_page() const;
  void set_next_page(PageId pid);
  uint16_t num_slots() const;

  /// Contiguous free bytes available for a new record (including its slot
  /// array entry).
  size_t FreeSpace() const;

  /// Inserts a record, reusing a deleted slot if one exists.
  /// Returns ResourceExhausted if the page cannot hold `data`.
  Result<uint16_t> Insert(std::string_view data);

  /// Inserts at a specific slot (recovery replay). Extends the slot array
  /// if needed; fails if the slot is occupied or space is insufficient.
  Status InsertAt(uint16_t slot, std::string_view data);

  /// Returns a view into the page; valid until the page is modified.
  Result<std::string_view> Get(uint16_t slot) const;

  /// In-place or intra-page relocating update. Returns ResourceExhausted if
  /// the page cannot hold the new value (caller must relocate the record).
  Status Update(uint16_t slot, std::string_view data);

  Status Delete(uint16_t slot);

  /// Rewrites the data region to squeeze out holes left by deletes and
  /// shrinking updates. Slot numbers are stable.
  void Compact();

  /// Total bytes reclaimable by Compact().
  size_t FragmentedBytes() const;

  /// Bytes a new record and its slot entry may use once the page is
  /// compacted (the free-space map's per-page value).
  size_t ReclaimableSpace() const { return FreeSpace() + FragmentedBytes(); }

  /// Slot-array bytes per record.
  static constexpr size_t kSlotSize = 4;

 private:
  static constexpr size_t kLsnOff = 0;
  static constexpr size_t kNextOff = 8;
  static constexpr size_t kNumSlotsOff = 12;
  static constexpr size_t kDataStartOff = 14;
  static constexpr size_t kSlotArrayOff = 16;
  static constexpr uint16_t kDeletedOffset = 0;

  uint16_t GetU16(size_t off) const;
  void SetU16(size_t off, uint16_t v);
  uint16_t SlotOffset(uint16_t slot) const;
  uint16_t SlotSize(uint16_t slot) const;
  void SetSlot(uint16_t slot, uint16_t offset, uint16_t size);
  uint16_t data_start() const { return GetU16(kDataStartOff); }
  void set_data_start(uint16_t v) { SetU16(kDataStartOff, v); }
  void set_num_slots(uint16_t v) { SetU16(kNumSlotsOff, v); }

  /// Allocates `size` bytes in the data region, compacting if that alone
  /// makes room. Returns 0 on failure (0 is never a valid data offset).
  uint16_t AllocateSpace(size_t size, size_t extra_slot_bytes);

  char* data_;
};

}  // namespace kimdb

#endif  // KIMDB_STORAGE_PAGE_H_
