#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"

namespace kimdb {

// --- FreeSpaceMap -----------------------------------------------------------

void FreeSpaceMap::Reset(std::vector<std::pair<PageId, uint16_t>> entries) {
  std::sort(entries.begin(), entries.end());
  pages_.clear();
  pages_.reserve(entries.size());
  std::vector<uint16_t> leaves;
  leaves.reserve(entries.size());
  for (const auto& [pid, avail] : entries) {
    pages_.push_back(pid);
    leaves.push_back(avail);
  }
  Build(leaves);
}

void FreeSpaceMap::Build(const std::vector<uint16_t>& leaves) {
  cap_ = 1;
  while (cap_ < leaves.size()) cap_ *= 2;
  tree_.assign(2 * cap_, 0);
  std::copy(leaves.begin(), leaves.end(), tree_.begin() + cap_);
  for (size_t v = cap_ - 1; v >= 1; --v) {
    tree_[v] = std::max(tree_[2 * v], tree_[2 * v + 1]);
  }
}

void FreeSpaceMap::Update(size_t idx, uint16_t avail) {
  size_t v = cap_ + idx;
  tree_[v] = avail;
  for (v /= 2; v >= 1; v /= 2) {
    tree_[v] = std::max(tree_[2 * v], tree_[2 * v + 1]);
  }
}

void FreeSpaceMap::Set(PageId pid, size_t avail) {
  const uint16_t value = static_cast<uint16_t>(std::min<size_t>(avail, 0xFFFF));
  auto it = std::lower_bound(pages_.begin(), pages_.end(), pid);
  const size_t idx = static_cast<size_t>(it - pages_.begin());
  if (it != pages_.end() && *it == pid) {
    Update(idx, value);
    return;
  }
  if (it == pages_.end() && pages_.size() < cap_) {
    // Fresh pages take the highest id so far: an append, O(log pages).
    pages_.push_back(pid);
    Update(idx, value);
    return;
  }
  std::vector<uint16_t> leaves(tree_.begin() + cap_,
                               tree_.begin() + cap_ + pages_.size());
  pages_.insert(it, pid);
  leaves.insert(leaves.begin() + idx, value);
  Build(leaves);
}

long FreeSpaceMap::FirstFrom(size_t i, uint16_t need) const {
  if (i >= pages_.size()) return -1;
  size_t v = cap_ + i;
  if (tree_[v] >= need) return static_cast<long>(i);
  while (true) {
    while (v & 1) v /= 2;  // climb out of right children
    if (v == 0) return -1;  // climbed past the root
    ++v;                    // the right sibling covers the next range
    if (tree_[v] >= need) break;
  }
  while (v < cap_) {
    v *= 2;
    if (tree_[v] < need) ++v;
  }
  return static_cast<long>(v - cap_);
}

long FreeSpaceMap::LastBefore(size_t i, uint16_t need) const {
  if (i == 0) return -1;
  size_t v = cap_ + i - 1;
  if (tree_[v] >= need) return static_cast<long>(i - 1);
  while (true) {
    while ((v & 1) == 0) v /= 2;  // climb out of left children
    if (v == 1) return -1;         // reached the root
    --v;                           // the left sibling covers the prior range
    if (tree_[v] >= need) break;
  }
  while (v < cap_) {
    v = 2 * v + 1;
    if (tree_[v] < need) --v;
  }
  return static_cast<long>(v - cap_);
}

PageId FreeSpaceMap::FindNearest(PageId near, size_t need) const {
  if (pages_.empty() || need > 0xFFFF) return kInvalidPageId;
  const uint16_t n = static_cast<uint16_t>(std::max<size_t>(need, 1));
  const size_t i = static_cast<size_t>(
      std::lower_bound(pages_.begin(), pages_.end(), near) - pages_.begin());
  const long right = FirstFrom(i, n);
  const long left = LastBefore(i, n);
  if (right < 0) return left < 0 ? kInvalidPageId : pages_[left];
  if (left < 0) return pages_[right];
  return pages_[right] - near <= near - pages_[left] ? pages_[right]
                                                     : pages_[left];
}

// --- HeapFile -----------------------------------------------------------------

Result<HeapFile> HeapFile::Create(BufferPool* bp, HeapFileStats* stats) {
  PageGuard g = PageGuard::NewPage(bp);
  KIMDB_RETURN_IF_ERROR(g.status());
  SlottedPage page(g.data());
  page.Init();
  g.MarkDirty();
  HeapFile heap(bp, g.page_id(), stats);
  heap.free_space_.Set(g.page_id(), page.ReclaimableSpace());
  return heap;
}

Result<HeapFile> HeapFile::Open(BufferPool* bp, PageId head,
                                const RecordVisitor& visit,
                                HeapFileStats* stats) {
  HeapFile heap(bp, head, stats);
  {
    PageGuard g(bp, head);
    KIMDB_RETURN_IF_ERROR(g.status());
    SlottedPage page(g.data());
    if (!page.initialized()) {
      page.Init();
      g.MarkDirty();
    }
  }
  std::vector<std::pair<PageId, uint16_t>> entries;
  KIMDB_RETURN_IF_ERROR(
      heap.WalkChain([&](PageId pid, const SlottedPage& page) {
        entries.emplace_back(pid,
                             static_cast<uint16_t>(page.ReclaimableSpace()));
        return visit ? heap.VisitPage(pid, page, visit) : Status::OK();
      }));
  heap.free_space_.Reset(std::move(entries));
  return heap;
}

Result<RecordId> HeapFile::TryInsertOn(PageId pid, std::string_view raw) {
  PageGuard g(bp_, pid);
  KIMDB_RETURN_IF_ERROR(g.status());
  SlottedPage page(g.data());
  if (!page.initialized()) {  // heal a crash-zeroed page
    page.Init();
    g.MarkDirty();
  }
  Result<uint16_t> slot = page.Insert(raw);
  if (!slot.ok() && slot.status().code() != StatusCode::kResourceExhausted) {
    return slot.status();
  }
  free_space_.Set(pid, page.ReclaimableSpace());
  if (!slot.ok()) return RecordId{};
  g.MarkDirty();
  return RecordId{pid, *slot};
}

Result<RecordId> HeapFile::LinkFreshPage(PageId anchor, std::string_view raw) {
  PageGuard ag(bp_, anchor);
  KIMDB_RETURN_IF_ERROR(ag.status());
  SlottedPage anchor_page(ag.data());
  PageGuard fresh = PageGuard::NewPage(bp_);
  KIMDB_RETURN_IF_ERROR(fresh.status());
  SlottedPage fresh_page(fresh.data());
  fresh_page.Init();
  fresh_page.set_next_page(anchor_page.next_page());
  // Link order: the fresh page is on disk, pointing at the anchor's old
  // successor, before the anchor (which eviction may write at any time
  // from here on) points at it.
  KIMDB_RETURN_IF_ERROR(WriteThrough(fresh));
  anchor_page.set_next_page(fresh.page_id());
  ag.MarkDirty();

  KIMDB_ASSIGN_OR_RETURN(uint16_t slot, fresh_page.Insert(raw));
  fresh.MarkDirty();
  free_space_.Set(fresh.page_id(), fresh_page.ReclaimableSpace());
  if (stats_ != nullptr) {
    stats_->pages_linked.fetch_add(1, std::memory_order_relaxed);
  }
  return RecordId{fresh.page_id(), slot};
}

Status HeapFile::WriteThrough(const PageGuard& g) {
  bp_->MarkDirty(g.frame_ref());
  return bp_->FlushPage(g.page_id());
}

Result<RecordId> HeapFile::InsertRaw(std::string_view raw, PageId hint) {
  if (hint != kInvalidPageId) {
    KIMDB_ASSIGN_OR_RETURN(RecordId rid, TryInsertOn(hint, raw));
    if (rid.valid()) return rid;
  }
  // A failed try lowers the page's entry below `need`, so each page is
  // tried at most once.
  const size_t need = raw.size() + SlottedPage::kSlotSize;
  for (PageId pid = free_space_.FindNearest(hint, need);
       pid != kInvalidPageId; pid = free_space_.FindNearest(hint, need)) {
    KIMDB_ASSIGN_OR_RETURN(RecordId rid, TryInsertOn(pid, raw));
    if (rid.valid()) return rid;
  }
  return LinkFreshPage(hint != kInvalidPageId ? hint : free_space_.Last(),
                       raw);
}

Result<RecordId> HeapFile::Insert(std::string_view data, PageId hint) {
  if (data.size() <= kMaxInlinePayload) {
    std::string raw;
    raw.reserve(data.size() + 1);
    raw.push_back(kInlineTag);
    raw.append(data);
    return InsertRaw(raw, hint);
  }
  KIMDB_ASSIGN_OR_RETURN(std::string stub, WriteOverflow(data));
  return InsertRaw(stub, hint);
}

Result<std::string> HeapFile::Get(const RecordId& rid) const {
  PageGuard g(bp_, rid.page_id);
  KIMDB_RETURN_IF_ERROR(g.status());
  SlottedPage page(g.data());
  KIMDB_ASSIGN_OR_RETURN(std::string_view raw, page.Get(rid.slot));
  if (raw.empty()) return Status::Corruption("empty record");
  if (raw[0] == kInlineTag) return std::string(raw.substr(1));
  return ReadOverflow(raw);
}

Result<RecordId> HeapFile::Update(const RecordId& rid,
                                  std::string_view data) {
  PageGuard g(bp_, rid.page_id);
  KIMDB_RETURN_IF_ERROR(g.status());
  SlottedPage page(g.data());
  KIMDB_ASSIGN_OR_RETURN(std::string_view old_raw, page.Get(rid.slot));
  std::string old_copy(old_raw);

  std::string raw;
  if (data.size() <= kMaxInlinePayload) {
    raw.push_back(kInlineTag);
    raw.append(data);
  } else {
    KIMDB_ASSIGN_OR_RETURN(raw, WriteOverflow(data));
  }

  Status st = page.Update(rid.slot, raw);
  if (st.ok()) {
    g.MarkDirty();
    free_space_.Set(rid.page_id, page.ReclaimableSpace());
    if (old_copy[0] == kOverflowTag) {
      KIMDB_RETURN_IF_ERROR(FreeOverflow(old_copy));
    }
    return rid;
  }
  if (st.code() != StatusCode::kResourceExhausted) return st;

  // Record no longer fits on its page: delete here, re-insert with the old
  // page as the hint to preserve clustering.
  KIMDB_RETURN_IF_ERROR(page.Delete(rid.slot));
  g.MarkDirty();
  free_space_.Set(rid.page_id, page.ReclaimableSpace());
  g.Release();
  if (old_copy[0] == kOverflowTag) {
    KIMDB_RETURN_IF_ERROR(FreeOverflow(old_copy));
  }
  if (stats_ != nullptr) {
    stats_->relocations.fetch_add(1, std::memory_order_relaxed);
  }
  return InsertRaw(raw, rid.page_id);
}

Status HeapFile::Delete(const RecordId& rid) {
  PageGuard g(bp_, rid.page_id);
  KIMDB_RETURN_IF_ERROR(g.status());
  SlottedPage page(g.data());
  KIMDB_ASSIGN_OR_RETURN(std::string_view raw, page.Get(rid.slot));
  std::string copy(raw);
  KIMDB_RETURN_IF_ERROR(page.Delete(rid.slot));
  g.MarkDirty();
  free_space_.Set(rid.page_id, page.ReclaimableSpace());
  if (!copy.empty() && copy[0] == kOverflowTag) {
    KIMDB_RETURN_IF_ERROR(FreeOverflow(copy));
  }
  return Status::OK();
}

Status HeapFile::VisitPage(PageId pid, const SlottedPage& page,
                           const RecordVisitor& fn) const {
  for (uint16_t s = 0; s < page.num_slots(); ++s) {
    Result<std::string_view> raw = page.Get(s);
    if (!raw.ok()) continue;  // deleted slot
    if (raw->empty()) return Status::Corruption("empty record");
    if ((*raw)[0] == kInlineTag) {
      KIMDB_RETURN_IF_ERROR(fn(RecordId{pid, s}, raw->substr(1)));
    } else {
      KIMDB_ASSIGN_OR_RETURN(std::string full, ReadOverflow(*raw));
      KIMDB_RETURN_IF_ERROR(fn(RecordId{pid, s}, full));
    }
  }
  return Status::OK();
}

Status HeapFile::ForEachOnPage(PageId pid, const RecordVisitor& fn) const {
  PageGuard g(bp_, pid);
  KIMDB_RETURN_IF_ERROR(g.status());
  SlottedPage page(g.data());
  if (!page.initialized()) return Status::OK();  // crash-zeroed: empty
  return VisitPage(pid, page, fn);
}

Status HeapFile::WalkChain(
    const std::function<Status(PageId, const SlottedPage&)>& on_page) const {
  PageId pid = head_;
  while (pid != kInvalidPageId) {
    PageGuard g(bp_, pid);
    KIMDB_RETURN_IF_ERROR(g.status());
    SlottedPage page(g.data());
    if (!page.initialized()) break;  // crash-zeroed page: chain ends here
    // The chain pointer lives in the page itself, so the walk can only
    // ever see one page ahead. Hand the successor to the pool's prefetch
    // worker now: its disk read overlaps the work on this page instead
    // of blocking the walk at the next pin.
    PageId next = page.next_page();
    if (next != kInvalidPageId) {
      PageId ahead[1] = {next};
      bp_->ReadAhead(std::span<const PageId>(ahead, 1));
    }
    KIMDB_RETURN_IF_ERROR(on_page(pid, page));
    pid = next;
  }
  return Status::OK();
}

Status HeapFile::ForEach(const RecordVisitor& fn) const {
  return WalkChain([&](PageId pid, const SlottedPage& page) {
    return VisitPage(pid, page, fn);
  });
}

Result<std::vector<PageId>> HeapFile::Pages() const {
  std::vector<PageId> out;
  PageId pid = head_;
  while (pid != kInvalidPageId) {
    PageGuard g(bp_, pid);
    KIMDB_RETURN_IF_ERROR(g.status());
    SlottedPage page(g.data());
    if (!page.initialized()) break;
    out.push_back(pid);
    pid = page.next_page();
  }
  return out;
}

Result<size_t> HeapFile::CountPages() const {
  KIMDB_ASSIGN_OR_RETURN(std::vector<PageId> pages, Pages());
  return pages.size();
}

// Overflow page layout: [next fixed32][len fixed16][bytes ...].
namespace {
constexpr size_t kOverflowHeader = 6;
constexpr size_t kOverflowCapacity = kPageSize - kOverflowHeader;
}  // namespace

Result<std::string> HeapFile::WriteOverflow(std::string_view data) {
  // Write segments back-to-front so each page can point at the next.
  size_t num_segments = (data.size() + kOverflowCapacity - 1) /
                        kOverflowCapacity;
  PageId next = kInvalidPageId;
  for (size_t i = num_segments; i-- > 0;) {
    size_t begin = i * kOverflowCapacity;
    size_t len = std::min(kOverflowCapacity, data.size() - begin);
    PageGuard g = PageGuard::NewPage(bp_);
    KIMDB_RETURN_IF_ERROR(g.status());
    char* p = g.data();
    EncodeFixed32(p, next);
    p[4] = static_cast<char>(len & 0xff);
    p[5] = static_cast<char>((len >> 8) & 0xff);
    std::memcpy(p + kOverflowHeader, data.data() + begin, len);
    // Link order: each segment is on disk before the segment or the stub
    // that points at it can be.
    KIMDB_RETURN_IF_ERROR(WriteThrough(g));
    next = g.page_id();
  }
  std::string stub;
  stub.push_back(kOverflowTag);
  PutVarint64(&stub, data.size());
  PutFixed32(&stub, next);
  return stub;
}

Result<std::string> HeapFile::ReadOverflow(std::string_view stub) const {
  Decoder dec(stub.substr(1));
  KIMDB_ASSIGN_OR_RETURN(uint64_t total, dec.ReadVarint64());
  KIMDB_ASSIGN_OR_RETURN(uint32_t first, dec.ReadFixed32());
  std::string out;
  out.reserve(total);
  PageId pid = first;
  while (pid != kInvalidPageId) {
    PageGuard g(bp_, pid);
    KIMDB_RETURN_IF_ERROR(g.status());
    const char* p = g.data();
    PageId next = DecodeFixed32(p);
    size_t len = static_cast<size_t>(static_cast<unsigned char>(p[4])) |
                 (static_cast<size_t>(static_cast<unsigned char>(p[5])) << 8);
    if (len == 0 || len > kOverflowCapacity) {  // 0: a zeroed page
      return Status::Corruption("overflow segment length out of range");
    }
    out.append(p + kOverflowHeader, len);
    pid = next;
  }
  if (out.size() != total) {
    return Status::Corruption("overflow chain size mismatch");
  }
  return out;
}

Status HeapFile::FreeOverflow(std::string_view stub) {
  // Overflow pages are not reclaimed (no persistent free list); they are
  // simply unlinked. Space reuse is a documented non-goal of this engine.
  (void)stub;
  return Status::OK();
}

}  // namespace kimdb
