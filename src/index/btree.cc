#include "index/btree.h"

#include <algorithm>
#include <cassert>

namespace kimdb {

void Posting::Add(Oid oid) {
  auto it = std::lower_bound(oids.begin(), oids.end(), oid);
  if (it == oids.end() || *it != oid) oids.insert(it, oid);
}

bool Posting::Remove(Oid oid) {
  auto it = std::lower_bound(oids.begin(), oids.end(), oid);
  if (it == oids.end() || *it != oid) return false;
  oids.erase(it);
  return true;
}

void Posting::CollectInto(const std::vector<ClassId>& classes,
                          std::vector<Oid>* out) const {
  for (ClassId cls : classes) {
    // The subrange ends at the first OID of a larger class. Searching for
    // Oid::Make(cls + 1, 0) instead would wrap to 0 for the largest class.
    auto lo = std::partition_point(oids.begin(), oids.end(),
                                   [cls](Oid o) { return o.class_id() < cls; });
    auto hi = std::partition_point(
        lo, oids.end(), [cls](Oid o) { return o.class_id() == cls; });
    out->insert(out->end(), lo, hi);
  }
}

struct BPlusTree::Node {
  bool leaf;
  explicit Node(bool is_leaf) : leaf(is_leaf) {}
};

struct BPlusTree::LeafNode : BPlusTree::Node {
  LeafNode() : Node(true) {}
  std::vector<Value> keys;
  std::vector<Posting> postings;
  LeafNode* next = nullptr;
};

struct BPlusTree::InternalNode : BPlusTree::Node {
  InternalNode() : Node(false) {}
  // keys[i] is the smallest key reachable under children[i + 1].
  std::vector<Value> keys;
  std::vector<Node*> children;
};

BPlusTree::BPlusTree(size_t fanout) : fanout_(std::max<size_t>(4, fanout)) {
  root_ = new LeafNode();
}

BPlusTree::~BPlusTree() { FreeTree(root_); }

BPlusTree::BPlusTree(BPlusTree&& other) noexcept
    : fanout_(other.fanout_),
      root_(other.root_),
      num_keys_(other.num_keys_),
      num_entries_(other.num_entries_) {
  other.root_ = new LeafNode();
  other.num_keys_ = 0;
  other.num_entries_ = 0;
}

BPlusTree& BPlusTree::operator=(BPlusTree&& other) noexcept {
  if (this == &other) return *this;
  FreeTree(root_);
  fanout_ = other.fanout_;
  root_ = other.root_;
  num_keys_ = other.num_keys_;
  num_entries_ = other.num_entries_;
  other.root_ = new LeafNode();
  other.num_keys_ = 0;
  other.num_entries_ = 0;
  return *this;
}

void BPlusTree::FreeTree(Node* n) {
  if (n == nullptr) return;
  if (n->leaf) {
    delete static_cast<LeafNode*>(n);
  } else {
    auto* in = static_cast<InternalNode*>(n);
    for (Node* c : in->children) FreeTree(c);
    delete in;
  }
}

namespace {

// First index i with keys[i] > key.
size_t UpperBound(const std::vector<Value>& keys, const Value& key) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (keys[mid].Compare(key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// First index i with keys[i] >= key.
size_t LowerBound(const std::vector<Value>& keys, const Value& key) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (keys[mid].Compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

BPlusTree::LeafNode* BPlusTree::FindLeaf(const Value& key) const {
  Node* n = root_;
  while (!n->leaf) {
    auto* in = static_cast<InternalNode*>(n);
    n = in->children[UpperBound(in->keys, key)];
  }
  return static_cast<LeafNode*>(n);
}

void BPlusTree::Insert(const Value& key, Oid oid) {
  // Descend, remembering the path for splits.
  std::vector<InternalNode*> path;
  std::vector<size_t> slots;
  Node* n = root_;
  while (!n->leaf) {
    auto* in = static_cast<InternalNode*>(n);
    size_t slot = UpperBound(in->keys, key);
    path.push_back(in);
    slots.push_back(slot);
    n = in->children[slot];
  }
  auto* leaf = static_cast<LeafNode*>(n);
  size_t pos = LowerBound(leaf->keys, key);
  if (pos < leaf->keys.size() && leaf->keys[pos].Compare(key) == 0) {
    size_t before = leaf->postings[pos].size();
    leaf->postings[pos].Add(oid);
    if (leaf->postings[pos].size() > before) ++num_entries_;
    return;
  }
  Posting p;
  p.Add(oid);
  leaf->keys.insert(leaf->keys.begin() + pos, key);
  leaf->postings.insert(leaf->postings.begin() + pos, std::move(p));
  ++num_keys_;
  ++num_entries_;

  // Split upward while overfull.
  Node* child = leaf;
  while (true) {
    Value sep;
    Node* sibling = nullptr;
    if (child->leaf) {
      auto* l = static_cast<LeafNode*>(child);
      if (l->keys.size() <= fanout_) break;
      auto* right = new LeafNode();
      size_t mid = l->keys.size() / 2;
      right->keys.assign(std::make_move_iterator(l->keys.begin() + mid),
                         std::make_move_iterator(l->keys.end()));
      right->postings.assign(
          std::make_move_iterator(l->postings.begin() + mid),
          std::make_move_iterator(l->postings.end()));
      l->keys.resize(mid);
      l->postings.resize(mid);
      right->next = l->next;
      l->next = right;
      sep = right->keys.front();
      sibling = right;
    } else {
      auto* in = static_cast<InternalNode*>(child);
      if (in->keys.size() <= fanout_) break;
      auto* right = new InternalNode();
      size_t mid = in->keys.size() / 2;
      sep = in->keys[mid];
      right->keys.assign(std::make_move_iterator(in->keys.begin() + mid + 1),
                         std::make_move_iterator(in->keys.end()));
      right->children.assign(in->children.begin() + mid + 1,
                             in->children.end());
      in->keys.resize(mid);
      in->children.resize(mid + 1);
      sibling = right;
    }
    if (path.empty()) {
      auto* new_root = new InternalNode();
      new_root->keys.push_back(sep);
      new_root->children.push_back(child);
      new_root->children.push_back(sibling);
      root_ = new_root;
      break;
    }
    InternalNode* parent = path.back();
    size_t slot = slots.back();
    path.pop_back();
    slots.pop_back();
    parent->keys.insert(parent->keys.begin() + slot, sep);
    parent->children.insert(parent->children.begin() + slot + 1, sibling);
    child = parent;
  }
}

bool BPlusTree::Remove(const Value& key, Oid oid) {
  LeafNode* leaf = FindLeaf(key);
  size_t pos = LowerBound(leaf->keys, key);
  if (pos >= leaf->keys.size() || leaf->keys[pos].Compare(key) != 0) {
    return false;
  }
  if (!leaf->postings[pos].Remove(oid)) return false;
  --num_entries_;
  if (leaf->postings[pos].empty()) {
    leaf->keys.erase(leaf->keys.begin() + pos);
    leaf->postings.erase(leaf->postings.begin() + pos);
    --num_keys_;
    // Lazy deletion: leaves may underflow or empty out entirely; scans skip
    // them via the leaf chain and separators remain valid upper bounds.
  }
  return true;
}

const Posting* BPlusTree::Find(const Value& key) const {
  LeafNode* leaf = FindLeaf(key);
  size_t pos = LowerBound(leaf->keys, key);
  if (pos >= leaf->keys.size() || leaf->keys[pos].Compare(key) != 0) {
    return nullptr;
  }
  return &leaf->postings[pos];
}

Status BPlusTree::Scan(
    const std::optional<Value>& lo, bool lo_inclusive,
    const std::optional<Value>& hi, bool hi_inclusive,
    const std::function<Status(const Value&, const Posting&)>& fn) const {
  LeafNode* leaf;
  size_t pos = 0;
  if (lo.has_value()) {
    leaf = FindLeaf(*lo);
    pos = LowerBound(leaf->keys, *lo);
  } else {
    Node* n = root_;
    while (!n->leaf) n = static_cast<InternalNode*>(n)->children.front();
    leaf = static_cast<LeafNode*>(n);
  }
  while (leaf != nullptr) {
    for (; pos < leaf->keys.size(); ++pos) {
      const Value& k = leaf->keys[pos];
      if (lo.has_value()) {
        int c = k.Compare(*lo);
        if (c < 0 || (c == 0 && !lo_inclusive)) continue;
      }
      if (hi.has_value()) {
        int c = k.Compare(*hi);
        if (c > 0 || (c == 0 && !hi_inclusive)) return Status::OK();
      }
      KIMDB_RETURN_IF_ERROR(fn(k, leaf->postings[pos]));
    }
    leaf = leaf->next;
    pos = 0;
  }
  return Status::OK();
}

int BPlusTree::height() const {
  int h = 1;
  Node* n = root_;
  while (!n->leaf) {
    n = static_cast<InternalNode*>(n)->children.front();
    ++h;
  }
  return h;
}

}  // namespace kimdb
