#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "util/random.h"

namespace kimdb {
namespace {

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest()
      : disk_(DiskManager::OpenInMemory()), bp_(disk_.get(), 64) {}

  HeapFile MakeHeap() {
    Result<HeapFile> h = HeapFile::Create(&bp_);
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    return *h;
  }

  std::unique_ptr<DiskManager> disk_;
  BufferPool bp_;
};

TEST_F(HeapFileTest, InsertGetRoundTrip) {
  HeapFile heap = MakeHeap();
  auto rid = heap.Insert("record one");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*heap.Get(*rid), "record one");
}

TEST_F(HeapFileTest, GetMissingRecordFails) {
  HeapFile heap = MakeHeap();
  EXPECT_FALSE(heap.Get(RecordId{heap.head(), 3}).ok());
}

TEST_F(HeapFileTest, ManyInsertsSpanPagesAndScanSeesAll) {
  HeapFile heap = MakeHeap();
  std::set<std::string> expected;
  for (int i = 0; i < 500; ++i) {
    std::string rec = "record-" + std::to_string(i) + std::string(50, 'p');
    ASSERT_TRUE(heap.Insert(rec).ok());
    expected.insert(rec);
  }
  ASSERT_GT(*heap.CountPages(), 5u);

  std::set<std::string> seen;
  ASSERT_TRUE(heap.ForEach([&](RecordId, std::string_view r) {
                    seen.insert(std::string(r));
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(seen, expected);
}

TEST_F(HeapFileTest, DeleteRemovesFromScan) {
  HeapFile heap = MakeHeap();
  auto r1 = heap.Insert("keep");
  auto r2 = heap.Insert("drop");
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(heap.Delete(*r2).ok());
  int count = 0;
  ASSERT_TRUE(heap.ForEach([&](RecordId, std::string_view r) {
                    EXPECT_EQ(r, "keep");
                    ++count;
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(heap.Get(*r2).ok());
}

TEST_F(HeapFileTest, UpdateInPlaceKeepsRecordId) {
  HeapFile heap = MakeHeap();
  auto rid = heap.Insert("0123456789");
  ASSERT_TRUE(rid.ok());
  auto new_rid = heap.Update(*rid, "01234");
  ASSERT_TRUE(new_rid.ok());
  EXPECT_EQ(*new_rid, *rid);
  EXPECT_EQ(*heap.Get(*new_rid), "01234");
}

TEST_F(HeapFileTest, UpdateThatOverflowsPageMovesRecord) {
  HeapFile heap = MakeHeap();
  // Fill the head page nearly full.
  std::string filler(700, 'f');
  RecordId victim{};
  for (int i = 0; i < 5; ++i) {
    auto r = heap.Insert(filler);
    ASSERT_TRUE(r.ok());
    victim = *r;
  }
  std::string big(1000, 'b');
  auto moved = heap.Update(victim, big);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_EQ(*heap.Get(*moved), big);
}

TEST_F(HeapFileTest, LongRecordsUseOverflowChains) {
  HeapFile heap = MakeHeap();
  // Way beyond a page: must round-trip through overflow pages.
  std::string huge;
  Random rng(3);
  for (int i = 0; i < 40000; ++i) {
    huge.push_back(static_cast<char>('a' + rng.Uniform(26)));
  }
  auto rid = heap.Insert(huge);
  ASSERT_TRUE(rid.ok()) << rid.status().ToString();
  auto got = heap.Get(*rid);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, huge);

  // Long records appear in scans too.
  bool found = false;
  ASSERT_TRUE(heap.ForEach([&](RecordId, std::string_view r) {
                    if (r == huge) found = true;
                    return Status::OK();
                  }).ok());
  EXPECT_TRUE(found);
}

TEST_F(HeapFileTest, LongRecordUpdateAndDelete) {
  HeapFile heap = MakeHeap();
  std::string huge(20000, 'h');
  auto rid = heap.Insert(huge);
  ASSERT_TRUE(rid.ok());
  // Shrink to inline.
  auto rid2 = heap.Update(*rid, "now small");
  ASSERT_TRUE(rid2.ok());
  EXPECT_EQ(*heap.Get(*rid2), "now small");
  // Grow back to overflow.
  std::string huge2(30000, 'i');
  auto rid3 = heap.Update(*rid2, huge2);
  ASSERT_TRUE(rid3.ok());
  EXPECT_EQ(*heap.Get(*rid3), huge2);
  ASSERT_TRUE(heap.Delete(*rid3).ok());
  EXPECT_FALSE(heap.Get(*rid3).ok());
}

TEST_F(HeapFileTest, ClusteringHintPlacesRecordOnHintPage) {
  HeapFile heap = MakeHeap();
  // Create several pages.
  std::string filler(500, 'f');
  RecordId anchor{};
  for (int i = 0; i < 30; ++i) {
    auto r = heap.Insert(filler);
    ASSERT_TRUE(r.ok());
    if (i == 0) anchor = *r;
  }
  ASSERT_GT(*heap.CountPages(), 2u);
  // Free space on the anchor page, then insert with the hint.
  ASSERT_TRUE(heap.Delete(RecordId{anchor.page_id, anchor.slot}).ok());
  auto hinted = heap.Insert("near-anchor", anchor.page_id);
  ASSERT_TRUE(hinted.ok());
  EXPECT_EQ(hinted->page_id, anchor.page_id);
}

TEST_F(HeapFileTest, ClusteringHintFullPageLinksAdjacent) {
  HeapFile heap = MakeHeap();
  // Inline records (below the overflow threshold) that fill the head page.
  std::string filler(990, 'f');
  auto a = heap.Insert(filler);
  ASSERT_TRUE(a.ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(heap.Insert(filler).ok());
  // Hinted insert that cannot fit on the (full) hint page: a new page is
  // chained immediately after the hint page.
  std::string big(1000, 'g');
  auto hinted = heap.Insert(big, a->page_id);
  ASSERT_TRUE(hinted.ok());
  EXPECT_NE(hinted->page_id, a->page_id);
  PageGuard g(&bp_, a->page_id);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(SlottedPage(g.data()).next_page(), hinted->page_id);
}

TEST_F(HeapFileTest, OpenExistingHeapSeesData) {
  PageId head;
  {
    HeapFile heap = MakeHeap();
    head = heap.head();
    ASSERT_TRUE(heap.Insert("persisted").ok());
  }
  ASSERT_TRUE(bp_.FlushAll().ok());
  Result<HeapFile> reopened = HeapFile::Open(&bp_, head);
  ASSERT_TRUE(reopened.ok());
  int n = 0;
  ASSERT_TRUE(reopened->ForEach([&](RecordId, std::string_view r) {
                       EXPECT_EQ(r, "persisted");
                       ++n;
                       return Status::OK();
                     }).ok());
  EXPECT_EQ(n, 1);
}

// Records per page for `len`-byte inline records: payload + 1-byte tag +
// 4-byte slot entry, against the page minus its 16-byte header.
size_t RecordsPerPage(size_t len) { return (kPageSize - 16) / (len + 5); }

size_t CountRecords(const HeapFile& heap) {
  size_t n = 0;
  EXPECT_TRUE(heap.ForEach([&](RecordId, std::string_view) {
                    ++n;
                    return Status::OK();
                  }).ok());
  return n;
}

TEST_F(HeapFileTest, GrowingUpdatesOnOnePageLinkFewPages) {
  HeapFileStats stats;
  Result<HeapFile> h = HeapFile::Create(&bp_, &stats);
  ASSERT_TRUE(h.ok());
  HeapFile heap = *h;
  // Fill the head page with small records, then grow every one of them:
  // the page keeps only a few, the rest must move.
  std::vector<RecordId> rids;
  const std::string small(30, 's');
  while (true) {
    auto r = heap.Insert(small);
    ASSERT_TRUE(r.ok());
    if (r->page_id != heap.head()) break;
    rids.push_back(*r);
  }
  ASSERT_EQ(stats.pages_linked.load(), 1u);  // the insert that broke out
  const size_t n = rids.size();
  const std::string big(200, 'b');
  for (RecordId& rid : rids) {
    auto moved = heap.Update(rid, big);
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    rid = *moved;
  }
  for (const RecordId& rid : rids) EXPECT_EQ(*heap.Get(rid), big);
  // Relocations fill the pages that have room: O(n / records-per-page)
  // pages, not one page per moved record.
  const size_t per_page = RecordsPerPage(big.size());
  EXPECT_GT(stats.relocations.load(), n / 2);
  EXPECT_LE(stats.pages_linked.load(), n / per_page + 2)
      << n << " growing updates, " << stats.relocations.load()
      << " relocations";
  EXPECT_LE(*heap.CountPages(), n / per_page + 3);
  EXPECT_EQ(CountRecords(heap), n + 1);
}

TEST_F(HeapFileTest, ReopenRebuildsFreeSpaceFromPageHeaders) {
  PageId head;
  RecordId middle{};
  size_t pages_before = 0;
  const std::string rec(900, 'r');
  {
    HeapFile heap = MakeHeap();
    head = heap.head();
    for (int i = 0; i < 12; ++i) {  // 4 per page: three full pages
      auto r = heap.Insert(rec);
      ASSERT_TRUE(r.ok());
      if (i == 5) middle = *r;
    }
    pages_before = *heap.CountPages();
    ASSERT_EQ(pages_before, 3u);
    ASSERT_NE(middle.page_id, head);
    ASSERT_TRUE(heap.Delete(middle).ok());
  }
  ASSERT_TRUE(bp_.FlushAll().ok());
  // A fresh handle knows nothing but what the walk in Open reads: the
  // middle page's hole must be found without linking a page.
  Result<HeapFile> reopened = HeapFile::Open(&bp_, head);
  ASSERT_TRUE(reopened.ok());
  auto r = reopened->Insert(rec);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->page_id, middle.page_id);
  EXPECT_EQ(*reopened->CountPages(), pages_before);
}

TEST(HeapFileLinkOrderTest, FreshPageReachesDiskBeforeItsLink) {
  auto disk = DiskManager::OpenInMemory();
  PageId head;
  const std::string rec(900, 'r');  // 4 per page
  {
    BufferPool bp(disk.get(), 16);
    Result<HeapFile> h = HeapFile::Create(&bp);
    ASSERT_TRUE(h.ok());
    head = h->head();
    for (int i = 0; i < 12; ++i) ASSERT_TRUE(h->Insert(rec).ok());
    ASSERT_EQ(*h->CountPages(), 3u);
    ASSERT_TRUE(bp.FlushAll().ok());
    // Every page is full: the hinted insert links a fresh page right
    // after the head, in the middle of the chain.
    auto hinted = h->Insert(rec, head);
    ASSERT_TRUE(hinted.ok());
    ASSERT_NE(hinted->page_id, head);
    // Eviction writes the head (now pointing at the fresh page), and the
    // process dies before the fresh page's own write-back: the pool is
    // dropped without a flush.
    ASSERT_TRUE(bp.FlushPage(head).ok());
  }
  BufferPool bp(disk.get(), 16);
  Result<HeapFile> reopened = HeapFile::Open(&bp, head);
  ASSERT_TRUE(reopened.ok());
  // The fresh page was written, linked to the head's old successor, before
  // the head pointed at it: every record flushed before the crash is still
  // reachable (only the unflushed 13th is gone, as the WAL would redo it).
  EXPECT_EQ(CountRecords(*reopened), 12u);
  EXPECT_EQ(*reopened->CountPages(), 4u);
}

TEST(HeapFileLinkOrderTest, OverflowChainReachesDiskBeforeItsStub) {
  auto disk = DiskManager::OpenInMemory();
  PageId head;
  const std::string huge(3 * kPageSize, 'h');  // a four-segment chain
  {
    BufferPool bp(disk.get(), 16);
    Result<HeapFile> h = HeapFile::Create(&bp);
    ASSERT_TRUE(h.ok());
    head = h->head();
    ASSERT_TRUE(h->Insert("small").ok());
    ASSERT_TRUE(bp.FlushAll().ok());
    ASSERT_TRUE(h->Insert(huge).ok());
    // Eviction writes the page holding the stub; the crash loses every
    // page still only in the pool.
    ASSERT_TRUE(bp.FlushPage(head).ok());
  }
  BufferPool bp(disk.get(), 16);
  std::vector<std::string> seen;
  Result<HeapFile> reopened =
      HeapFile::Open(&bp, head, [&](RecordId, std::string_view r) {
        seen.emplace_back(r);
        return Status::OK();
      });
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "small");
  EXPECT_EQ(seen[1], huge);
}

// FindNearest agrees with a brute-force scan over random maps.
TEST(FreeSpaceMapTest, FindNearestMatchesBruteForce) {
  Random rng(7);
  for (int round = 0; round < 20; ++round) {
    FreeSpaceMap map;
    std::map<PageId, uint16_t> shadow;
    const int ops = 1 + static_cast<int>(rng.Uniform(300));
    for (int i = 0; i < ops; ++i) {
      // Mostly appends (fresh pages take the highest id), some inserts in
      // the middle and updates of existing pages.
      PageId pid = rng.OneIn(4) ? static_cast<PageId>(rng.Uniform(1000))
                                : static_cast<PageId>(1000 + i * 3);
      uint16_t avail = static_cast<uint16_t>(rng.Uniform(4081));
      map.Set(pid, avail);
      shadow[pid] = avail;
    }
    ASSERT_EQ(map.size(), shadow.size());
    EXPECT_EQ(map.Last(), shadow.rbegin()->first);
    for (int q = 0; q < 200; ++q) {
      PageId near = rng.OneIn(10) ? kInvalidPageId
                                  : static_cast<PageId>(rng.Uniform(2000));
      size_t need = 1 + rng.Uniform(4100);
      PageId want = kInvalidPageId;
      uint64_t best = UINT64_MAX;
      for (const auto& [pid, avail] : shadow) {
        if (avail < need) continue;
        uint64_t d = pid >= near ? pid - near : near - pid;
        // Ties go to the higher id, as FindNearest documents.
        if (d < best || (d == best && pid > want)) {
          best = d;
          want = pid;
        }
      }
      ASSERT_EQ(map.FindNearest(near, need), want)
          << "near " << near << " need " << need;
    }
  }
  FreeSpaceMap empty;
  EXPECT_EQ(empty.FindNearest(5, 1), kInvalidPageId);
  EXPECT_EQ(empty.Last(), kInvalidPageId);
}

class HeapChurnTest : public ::testing::TestWithParam<uint64_t> {};

// Property: heap file contents track a shadow map under random churn,
// including records that cross the inline/overflow threshold.
TEST_P(HeapChurnTest, ShadowMapEquivalence) {
  auto disk = DiskManager::OpenInMemory();
  BufferPool bp(disk.get(), 32);
  auto heap_r = HeapFile::Create(&bp);
  ASSERT_TRUE(heap_r.ok());
  HeapFile heap = *heap_r;

  Random rng(GetParam());
  std::unordered_map<uint64_t, std::pair<RecordId, std::string>> shadow;
  uint64_t next_key = 0;

  auto pack = [](RecordId r) {
    return (static_cast<uint64_t>(r.page_id) << 16) | r.slot;
  };
  (void)pack;

  for (int step = 0; step < 600; ++step) {
    int op = static_cast<int>(rng.Uniform(4));
    if (op <= 1) {  // insert (2x weight)
      size_t len = rng.OneIn(10) ? 2000 + rng.Uniform(4000)
                                 : 1 + rng.Uniform(300);
      std::string rec = rng.NextString(len);
      auto rid = heap.Insert(rec);
      ASSERT_TRUE(rid.ok());
      shadow[next_key++] = {*rid, rec};
    } else if (op == 2 && !shadow.empty()) {  // update
      auto it = std::next(shadow.begin(),
                          static_cast<long>(rng.Uniform(shadow.size())));
      size_t len = rng.OneIn(10) ? 2000 + rng.Uniform(4000)
                                 : 1 + rng.Uniform(300);
      std::string rec = rng.NextString(len);
      auto rid = heap.Update(it->second.first, rec);
      ASSERT_TRUE(rid.ok());
      it->second = {*rid, rec};
    } else if (!shadow.empty()) {  // delete
      auto it = std::next(shadow.begin(),
                          static_cast<long>(rng.Uniform(shadow.size())));
      ASSERT_TRUE(heap.Delete(it->second.first).ok());
      shadow.erase(it);
    }
  }
  for (const auto& [key, entry] : shadow) {
    auto got = heap.Get(entry.first);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, entry.second);
  }
  // Scan count matches.
  size_t n = 0;
  ASSERT_TRUE(heap.ForEach([&](RecordId, std::string_view) {
                    ++n;
                    return Status::OK();
                  }).ok());
  EXPECT_EQ(n, shadow.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapChurnTest,
                         ::testing::Values(2, 11, 23, 47));

}  // namespace
}  // namespace kimdb
