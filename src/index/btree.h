#ifndef KIMDB_INDEX_BTREE_H_
#define KIMDB_INDEX_BTREE_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "model/oid.h"
#include "model/value.h"
#include "util/result.h"
#include "util/status.h"

namespace kimdb {

/// The payload of one index key: its OIDs as one sorted run. An OID carries
/// its class in the top 24 bits, so the run is partitioned by class -- each
/// class is one contiguous subrange. This is the KIM89b class-hierarchy
/// index structure: a single B+-tree covers a whole class hierarchy, and a
/// query scoped to any class in the hierarchy binary-searches the subranges
/// of its subtree without touching other entries.
struct Posting {
  std::vector<Oid> oids;  // sorted, no duplicates

  size_t size() const { return oids.size(); }
  bool empty() const { return oids.empty(); }

  void Add(Oid oid);
  /// Returns true if the oid was present.
  bool Remove(Oid oid);

  /// Appends the OIDs of the given classes, class by class in the given
  /// order.
  void CollectInto(const std::vector<ClassId>& classes,
                   std::vector<Oid>* out) const;
};

/// An in-memory B+-tree keyed by Value (total order via Value::Compare).
/// Leaves are chained for range scans. Deletion is lazy (underflowing
/// leaves are permitted and skipped by scans); keys vanish when their
/// posting empties.
class BPlusTree {
 public:
  explicit BPlusTree(size_t fanout = 64);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  void Insert(const Value& key, Oid oid);
  /// Returns true if (key, oid) was present.
  bool Remove(const Value& key, Oid oid);

  /// Exact-match lookup; nullptr if absent. The pointer is invalidated by
  /// the next mutation.
  const Posting* Find(const Value& key) const;

  /// Range scan over keys in [lo, hi] (unset bound = open end). The
  /// callback may stop the scan by returning a non-OK status (propagated).
  Status Scan(const std::optional<Value>& lo, bool lo_inclusive,
              const std::optional<Value>& hi, bool hi_inclusive,
              const std::function<Status(const Value&, const Posting&)>& fn)
      const;

  size_t num_keys() const { return num_keys_; }
  size_t num_entries() const { return num_entries_; }
  int height() const;

 private:
  struct Node;
  struct LeafNode;
  struct InternalNode;

  LeafNode* FindLeaf(const Value& key) const;
  /// Splits `leaf` if overfull, propagating splits up to the root.
  void SplitIfNeeded(std::vector<InternalNode*>& path, Node* child);

  size_t fanout_;
  Node* root_;
  size_t num_keys_ = 0;
  size_t num_entries_ = 0;

  void FreeTree(Node* n);
};

}  // namespace kimdb

#endif  // KIMDB_INDEX_BTREE_H_
