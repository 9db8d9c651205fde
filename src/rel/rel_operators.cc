#include "rel/rel_operators.h"

#include <utility>

namespace kimdb {
namespace rel {

namespace {

// Hash-join build key: encode the value to bytes for map lookup.
std::string KeyBytes(const Value& v) {
  std::string s;
  v.EncodeTo(&s);
  return s;
}

void Concat(const Tuple& left, const Tuple& right, Tuple* out) {
  out->clear();
  out->reserve(left.size() + right.size());
  out->insert(out->end(), left.begin(), left.end());
  out->insert(out->end(), right.begin(), right.end());
}

}  // namespace

// --- RelScan ---------------------------------------------------------------

Status RelScan::OpenImpl(exec::ExecContext* ctx) {
  KIMDB_ASSIGN_OR_RETURN(pages_, rel_->Pages());
  page_idx_ = 0;
  buf_.clear();
  buf_pos_ = 0;
  if (ctx->trace_enabled()) {
    ctx->Trace("RelScan open " + rel_->name() + ": " +
               std::to_string(pages_.size()) + " pages");
  }
  return Status::OK();
}

Result<size_t> RelScan::NextBatchImpl(exec::ExecContext* ctx,
                                      std::vector<exec::Row>* out) {
  while (out->size() < exec::kBatchSize) {
    if (buf_pos_ < buf_.size()) {
      out->emplace_back().tuple = std::move(buf_[buf_pos_++]);
      continue;
    }
    if (page_idx_ >= pages_.size()) break;
    KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
    buf_.clear();
    buf_pos_ = 0;
    uint64_t scanned = 0;
    uint64_t evaluated = 0;
    KIMDB_RETURN_IF_ERROR(rel_->ForEachOnPage(
        pages_[page_idx_], [&](RecordId, const Tuple& t) {
          ++scanned;
          if (pred_ != nullptr && *pred_ != nullptr) {
            ++evaluated;
            if (!(*pred_)(t)) return Status::OK();
          }
          buf_.push_back(t);
          return Status::OK();
        }));
    ++page_idx_;
    ctx->tuples_scanned.fetch_add(scanned, std::memory_order_relaxed);
    ctx->predicates_evaluated.fetch_add(evaluated, std::memory_order_relaxed);
  }
  return out->size();
}

void RelScan::CloseImpl(exec::ExecContext*) {
  pages_.clear();
  buf_.clear();
  page_idx_ = 0;
  buf_pos_ = 0;
}

std::string RelScan::Describe() const {
  std::string s = "RelScan(" + rel_->name();
  if (pred_ != nullptr && *pred_ != nullptr) s += ", pred";
  return s + ")";
}

// --- RelIndexLookup --------------------------------------------------------

Status RelIndexLookup::OpenImpl(exec::ExecContext* ctx) {
  ctx->used_index.store(true, std::memory_order_relaxed);
  ctx->index_probes.fetch_add(1, std::memory_order_relaxed);
  rids_ = index_->LookupEq(key_);
  ctx->index_candidates.fetch_add(rids_.size(), std::memory_order_relaxed);
  pos_ = 0;
  if (ctx->trace_enabled()) {
    ctx->Trace(Describe() + ": " + std::to_string(rids_.size()) +
               " candidates");
  }
  return Status::OK();
}

Result<size_t> RelIndexLookup::NextBatchImpl(exec::ExecContext* ctx,
                                             std::vector<exec::Row>* out) {
  if (pos_ >= rids_.size()) return 0;
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  while (out->size() < exec::kBatchSize && pos_ < rids_.size()) {
    KIMDB_ASSIGN_OR_RETURN(Tuple t, rel_->Get(rids_[pos_++]));
    out->emplace_back().tuple = std::move(t);
    ctx->objects_fetched.fetch_add(1, std::memory_order_relaxed);
  }
  return out->size();
}

void RelIndexLookup::CloseImpl(exec::ExecContext*) {
  rids_.clear();
  pos_ = 0;
}

// --- JoinOp ------------------------------------------------------------------

Status JoinOp::OpenImpl(exec::ExecContext* ctx) {
  left_batch_.clear();
  left_pos_ = 0;
  matches_ = nullptr;
  match_pos_ = 0;
  return left_->Open(ctx);
}

Result<size_t> JoinOp::NextBatchImpl(exec::ExecContext* ctx,
                                     std::vector<exec::Row>* out) {
  KIMDB_RETURN_IF_ERROR(ctx->CheckBudget());
  while (out->size() < exec::kBatchSize) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      Concat(left_row_, (*matches_)[match_pos_++],
             &out->emplace_back().tuple);
      continue;
    }
    if (left_pos_ >= left_batch_.size()) {
      // Emit what this left batch produced before pulling the next one.
      if (!out->empty()) break;
      KIMDB_ASSIGN_OR_RETURN(size_t n, left_->NextBatch(ctx, &left_batch_));
      left_pos_ = 0;
      if (n == 0) break;
    }
    left_row_ = std::move(left_batch_[left_pos_++].tuple);
    match_pos_ = 0;
    KIMDB_RETURN_IF_ERROR(
        Probe(ctx, left_row_[static_cast<size_t>(left_col_)], &matches_));
  }
  return out->size();
}

void JoinOp::CloseImpl(exec::ExecContext* ctx) {
  left_->Close(ctx);
  left_batch_.clear();
  matches_ = nullptr;
}

// --- NestedLoopJoinOp --------------------------------------------------------

Status NestedLoopJoinOp::Probe(exec::ExecContext* ctx, const Value& key,
                               const std::vector<Tuple>** matches) {
  // The whole point of the naive plan: re-scan the right table for every
  // left row, even when the key is null (faithful to the textbook loop).
  found_.clear();
  *matches = &found_;
  uint64_t scanned = 0;
  KIMDB_RETURN_IF_ERROR(right_->ForEach([&](RecordId, const Tuple& rt) {
    ++scanned;
    if (!key.is_null() &&
        key.Compare(rt[static_cast<size_t>(right_col_)]) == 0) {
      found_.push_back(rt);
    }
    return Status::OK();
  }));
  ctx->tuples_scanned.fetch_add(scanned, std::memory_order_relaxed);
  return Status::OK();
}

// --- HashJoinOp --------------------------------------------------------------

Status HashJoinOp::OpenImpl(exec::ExecContext* ctx) {
  table_.clear();
  uint64_t scanned = 0;
  KIMDB_RETURN_IF_ERROR(right_->ForEach([&](RecordId, const Tuple& rt) {
    ++scanned;
    const Value& key = rt[static_cast<size_t>(right_col_)];
    if (!key.is_null()) table_[KeyBytes(key)].push_back(rt);
    return Status::OK();
  }));
  ctx->tuples_scanned.fetch_add(scanned, std::memory_order_relaxed);
  if (ctx->trace_enabled()) {
    ctx->Trace(Describe() + ": built " + std::to_string(table_.size()) +
               " buckets");
  }
  return JoinOp::OpenImpl(ctx);
}

void HashJoinOp::CloseImpl(exec::ExecContext* ctx) {
  JoinOp::CloseImpl(ctx);
  table_.clear();
}

Status HashJoinOp::Probe(exec::ExecContext*, const Value& key,
                         const std::vector<Tuple>** matches) {
  *matches = nullptr;
  if (key.is_null()) return Status::OK();
  auto it = table_.find(KeyBytes(key));
  if (it != table_.end()) *matches = &it->second;
  return Status::OK();
}

// --- IndexJoinOp -------------------------------------------------------------

Status IndexJoinOp::OpenImpl(exec::ExecContext* ctx) {
  ctx->used_index.store(true, std::memory_order_relaxed);
  return JoinOp::OpenImpl(ctx);
}

Status IndexJoinOp::Probe(exec::ExecContext* ctx, const Value& key,
                          const std::vector<Tuple>** matches) {
  found_.clear();
  *matches = &found_;
  if (key.is_null()) return Status::OK();
  ctx->index_probes.fetch_add(1, std::memory_order_relaxed);
  std::vector<RecordId> rids = index_->LookupEq(key);
  ctx->index_candidates.fetch_add(rids.size(), std::memory_order_relaxed);
  for (const RecordId& rid : rids) {
    KIMDB_ASSIGN_OR_RETURN(Tuple rt, right_->Get(rid));
    found_.push_back(std::move(rt));
  }
  ctx->objects_fetched.fetch_add(rids.size(), std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace rel
}  // namespace kimdb
