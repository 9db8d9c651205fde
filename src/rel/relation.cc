#include "rel/relation.h"

namespace kimdb {
namespace rel {

Result<std::unique_ptr<Relation>> Relation::Create(
    BufferPool* bp, std::string name, std::vector<ColumnDef> columns) {
  if (columns.empty()) {
    return Status::InvalidArgument("relation needs at least one column");
  }
  KIMDB_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(bp));
  return std::unique_ptr<Relation>(
      new Relation(bp, std::move(name), std::move(columns), std::move(heap)));
}

int Relation::ColumnIndex(std::string_view column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column) return static_cast<int>(i);
  }
  return -1;
}

void Relation::EncodeTuple(const Tuple& t, std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(t.size()));
  for (const Value& v : t) v.EncodeTo(dst);
}

Result<Tuple> Relation::DecodeTuple(std::string_view bytes) {
  Decoder dec(bytes);
  KIMDB_ASSIGN_OR_RETURN(uint32_t n, dec.ReadVarint32());
  Tuple t;
  t.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    KIMDB_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(&dec));
    t.push_back(std::move(v));
  }
  return t;
}

Status Relation::CheckTuple(const Tuple& tuple) const {
  if (tuple.size() != columns_.size()) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (tuple[i].is_null()) continue;
    if (tuple[i].kind() != columns_[i].type &&
        !(columns_[i].type == Value::Kind::kReal &&
          tuple[i].kind() == Value::Kind::kInt)) {
      return Status::InvalidArgument("type mismatch in column '" +
                                     columns_[i].name + "'");
    }
  }
  return Status::OK();
}

Result<RecordId> Relation::Insert(const Tuple& tuple) {
  KIMDB_RETURN_IF_ERROR(CheckTuple(tuple));
  std::string bytes;
  EncodeTuple(tuple, &bytes);
  KIMDB_ASSIGN_OR_RETURN(RecordId rid, heap_.Insert(bytes));
  ++num_tuples_;
  for (auto& idx : indexes_) {
    idx->Insert(tuple[idx->column()], rid);
  }
  return rid;
}

Result<Tuple> Relation::Get(const RecordId& rid) const {
  KIMDB_ASSIGN_OR_RETURN(std::string bytes, heap_.Get(rid));
  return DecodeTuple(bytes);
}

Status Relation::Update(const RecordId& rid, const Tuple& tuple) {
  KIMDB_RETURN_IF_ERROR(CheckTuple(tuple));
  KIMDB_ASSIGN_OR_RETURN(Tuple old, Get(rid));
  std::string bytes;
  EncodeTuple(tuple, &bytes);
  KIMDB_ASSIGN_OR_RETURN(RecordId new_rid, heap_.Update(rid, bytes));
  if (!(new_rid == rid)) {
    // The tuple moved: all index entries must be re-pointed.
    for (auto& idx : indexes_) {
      idx->Remove(old[idx->column()], rid);
      idx->Insert(tuple[idx->column()], new_rid);
    }
    return Status::OK();
  }
  for (auto& idx : indexes_) {
    if (old[idx->column()].Compare(tuple[idx->column()]) != 0) {
      idx->Remove(old[idx->column()], rid);
      idx->Insert(tuple[idx->column()], rid);
    }
  }
  return Status::OK();
}

Status Relation::Delete(const RecordId& rid) {
  KIMDB_ASSIGN_OR_RETURN(Tuple old, Get(rid));
  KIMDB_RETURN_IF_ERROR(heap_.Delete(rid));
  --num_tuples_;
  for (auto& idx : indexes_) {
    idx->Remove(old[idx->column()], rid);
  }
  return Status::OK();
}

Status Relation::ForEach(
    const std::function<Status(RecordId, const Tuple&)>& fn) const {
  return heap_.ForEach([&](RecordId rid, std::string_view bytes) {
    KIMDB_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(bytes));
    return fn(rid, t);
  });
}

Result<std::vector<PageId>> Relation::Pages() const { return heap_.Pages(); }

Status Relation::ForEachOnPage(
    PageId page,
    const std::function<Status(RecordId, const Tuple&)>& fn) const {
  return heap_.ForEachOnPage(page, [&](RecordId rid, std::string_view bytes) {
    KIMDB_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(bytes));
    return fn(rid, t);
  });
}

Result<RelIndex*> Relation::CreateIndex(std::string_view column) {
  int col = ColumnIndex(column);
  if (col < 0) return Status::NotFound("no such column");
  auto idx = std::make_unique<RelIndex>(this, col);
  RelIndex* raw = idx.get();
  KIMDB_RETURN_IF_ERROR(ForEach([&](RecordId rid, const Tuple& t) {
    raw->Insert(t[static_cast<size_t>(col)], rid);
    return Status::OK();
  }));
  indexes_.push_back(std::move(idx));
  return raw;
}

RelIndex* Relation::FindIndex(std::string_view column) const {
  int col = ColumnIndex(column);
  for (const auto& idx : indexes_) {
    if (idx->column() == col) return idx.get();
  }
  return nullptr;
}

void RelIndex::Insert(const Value& key, RecordId rid) {
  if (key.is_null()) return;
  tree_.Insert(key, Pack(rid));
}

void RelIndex::Remove(const Value& key, RecordId rid) {
  if (key.is_null()) return;
  tree_.Remove(key, Pack(rid));
}

std::vector<RecordId> RelIndex::LookupEq(const Value& key) const {
  std::vector<RecordId> out;
  const Posting* p = tree_.Find(key);
  if (p == nullptr) return out;
  out.reserve(p->oids.size());
  for (Oid o : p->oids) out.push_back(Unpack(o));
  return out;
}

std::vector<RecordId> RelIndex::LookupRange(const std::optional<Value>& lo,
                                            bool lo_inclusive,
                                            const std::optional<Value>& hi,
                                            bool hi_inclusive) const {
  std::vector<RecordId> out;
  Status st = tree_.Scan(lo, lo_inclusive, hi, hi_inclusive,
                         [&](const Value&, const Posting& p) {
                           for (Oid o : p.oids) out.push_back(Unpack(o));
                           return Status::OK();
                         });
  (void)st;  // scan callbacks never fail here
  return out;
}

}  // namespace rel
}  // namespace kimdb
