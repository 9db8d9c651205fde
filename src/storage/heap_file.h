#ifndef KIMDB_STORAGE_HEAP_FILE_H_
#define KIMDB_STORAGE_HEAP_FILE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace kimdb {

/// In-memory free-space map of one heap file: for every data page, the
/// bytes a new record (data plus its slot entry) could use there once the
/// page is compacted. Entries are ordered by page id over a max-tree, so
/// "the page nearest `near` with at least `need` bytes" costs O(log pages).
/// Not thread-safe: its heap file's mutators serialize access.
class FreeSpaceMap {
 public:
  /// Replaces every entry (the rebuild on open); `entries` in any order.
  void Reset(std::vector<std::pair<PageId, uint16_t>> entries);

  /// Records `avail` bytes for `pid`, adding the page if it is new.
  void Set(PageId pid, size_t avail);

  /// The mapped page with at least `need` bytes whose id is nearest
  /// `near` (the higher id on a tie), or kInvalidPageId if none fits.
  /// `near` = kInvalidPageId selects the highest-id page that fits.
  PageId FindNearest(PageId near, size_t need) const;

  /// The highest mapped page id, or kInvalidPageId when empty.
  PageId Last() const {
    return pages_.empty() ? kInvalidPageId : pages_.back();
  }

  size_t size() const { return pages_.size(); }

 private:
  /// Lays `leaves` (parallel to pages_) out as a fresh tree.
  void Build(const std::vector<uint16_t>& leaves);
  void Update(size_t idx, uint16_t avail);
  /// Index of the first entry at or after `i` with at least `need` bytes,
  /// or -1.
  long FirstFrom(size_t i, uint16_t need) const;
  /// Index of the last entry before `i` with at least `need` bytes, or -1.
  long LastBefore(size_t i, uint16_t need) const;

  std::vector<PageId> pages_;   // ascending
  std::vector<uint16_t> tree_;  // max-tree; leaves at [cap_, 2 * cap_)
  size_t cap_ = 0;              // leaf capacity, a power of two
};

/// Placement counters, shared by every heap file of one owner (the object
/// store registers them as storage.heap.*). Relaxed atomics: heaps of
/// different classes mutate concurrently.
struct HeapFileStats {
  std::atomic<uint64_t> relocations{0};   // updates that moved a record
  std::atomic<uint64_t> pages_linked{0};  // fresh data pages linked in
};

/// Unordered record file: a chain of slotted pages. One heap file backs one
/// class extent (and the catalog itself).
///
/// Records larger than an inline threshold are transparently spilled to a
/// chain of overflow pages ("long data" support, paper §2.2: images, audio,
/// text documents). Records keep a 1-byte tag distinguishing inline from
/// overflow storage.
///
/// Placement (paper §4.2 clustering; DESIGN.md §18). A FreeSpaceMap holds
/// each data page's usable bytes. It is rebuilt from the page headers by
/// the chain walk of Open and kept current by every mutator (callers
/// serialize mutators; the object store holds the class-exclusive latch).
/// An insert tries its hint page first, then the mapped page nearest the
/// hint that fits -- without a hint, the highest-id page that fits (fresh
/// pages take the highest ids). Only when no mapped page fits is a fresh
/// page linked into the chain: after the hint, else after the highest-id
/// page. A record that outgrows its page is relocated by the same lookup
/// with its old page as the hint, so relocations fill pages that have room
/// instead of each taking a page of its own.
///
/// Link order (DESIGN.md §9): a fresh page is written to disk, already
/// pointing at its anchor's old successor, before the anchor's next
/// pointer is set to it, and a long record's overflow pages are written
/// before the stub that points at them is stored. Whatever subset of
/// dirty pages a crash leaves on disk, no pointer leads to a zeroed page:
/// the chain never ends early (hiding every page after it), and no stub
/// names a missing segment.
class HeapFile {
 public:
  using RecordVisitor = std::function<Status(RecordId, std::string_view)>;

  /// Creates a new, empty heap file; its head page id is the handle that
  /// must be persisted (the catalog stores it per class). `stats`, if
  /// given, must outlive the heap file and its copies.
  static Result<HeapFile> Create(BufferPool* bp,
                                 HeapFileStats* stats = nullptr);

  /// Opens an existing heap file rooted at `head`: one walk of the chain
  /// rebuilds the free-space map from the page headers and hands every
  /// record to `visit`, if given (the object store rebuilds its directory
  /// in this walk). A crash-zeroed head page is formatted as empty.
  static Result<HeapFile> Open(BufferPool* bp, PageId head,
                               const RecordVisitor& visit = {},
                               HeapFileStats* stats = nullptr);

  PageId head() const { return head_; }

  /// Inserts a record; `hint` (if valid) requests placement on/near that
  /// page. Returns the record's physical address.
  Result<RecordId> Insert(std::string_view data,
                          PageId hint = kInvalidPageId);

  /// Copies a record out (reassembling overflow chains).
  Result<std::string> Get(const RecordId& rid) const;

  /// Updates a record; the record may move, so the (possibly new) RecordId
  /// is returned and the caller must refresh any directory entry.
  Result<RecordId> Update(const RecordId& rid, std::string_view data);

  Status Delete(const RecordId& rid);

  /// Visits every record in physical order. The callback may return a
  /// non-OK status to stop iteration (that status is returned).
  Status ForEach(const RecordVisitor& fn) const;

  /// Visits every record stored on one page of the chain, without
  /// following the chain. Overflow records are reassembled exactly as in
  /// ForEach. An uninitialized (crash-zeroed) page is treated as empty.
  /// Partitioned scans (exec layer) are built on this.
  Status ForEachOnPage(PageId pid, const RecordVisitor& fn) const;

  /// All data-page ids in chain order (stops at a crash-zeroed page, same
  /// rule as ForEach). The page list is the unit of scan partitioning.
  Result<std::vector<PageId>> Pages() const;

  /// Number of data pages in the chain (Pages().size()).
  Result<size_t> CountPages() const;

 private:
  HeapFile(BufferPool* bp, PageId head, HeapFileStats* stats)
      : bp_(bp), head_(head), stats_(stats) {}

  // Record tags.
  static constexpr char kInlineTag = 0;
  static constexpr char kOverflowTag = 1;
  // Records at or below this payload size are stored inline.
  static constexpr size_t kMaxInlinePayload = kPageSize / 4;

  /// Walks the chain from the head, calling `on_page` for every formatted
  /// page; stops at a crash-zeroed page. Prefetches each successor.
  Status WalkChain(
      const std::function<Status(PageId, const SlottedPage&)>& on_page) const;
  /// Hands every record on `page` to `fn`.
  Status VisitPage(PageId pid, const SlottedPage& page,
                   const RecordVisitor& fn) const;

  /// Writes `data` into a fresh overflow chain; returns the stub record
  /// bytes to store inline.
  Result<std::string> WriteOverflow(std::string_view data);
  Result<std::string> ReadOverflow(std::string_view stub) const;
  Status FreeOverflow(std::string_view stub);

  /// Inserts pre-encoded record bytes (tag already applied).
  Result<RecordId> InsertRaw(std::string_view raw, PageId hint);
  /// Inserts `raw` on `pid` if it fits there; refreshes the page's map
  /// entry either way. Returns an invalid RecordId when it does not fit.
  Result<RecordId> TryInsertOn(PageId pid, std::string_view raw);
  /// Links a fresh page after `anchor`, a formatted page of the chain
  /// (link order above), and inserts `raw` on it.
  Result<RecordId> LinkFreshPage(PageId anchor, std::string_view raw);
  /// Writes a pinned page to disk now: the link-order rule's write.
  Status WriteThrough(const PageGuard& g);
  BufferPool* bp_;
  PageId head_;
  HeapFileStats* stats_;
  FreeSpaceMap free_space_;
};

}  // namespace kimdb

#endif  // KIMDB_STORAGE_HEAP_FILE_H_
