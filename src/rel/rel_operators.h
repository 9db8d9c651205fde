#ifndef KIMDB_REL_REL_OPERATORS_H_
#define KIMDB_REL_REL_OPERATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "rel/relation.h"

namespace kimdb {
namespace rel {

/// A predicate on a tuple.
using TuplePredicate = std::function<bool(const Tuple&)>;

/// Relational physical operators over the same exec substrate the object
/// engine runs on (same batch protocol, same ExecContext counters, same
/// budget polling), so E12 compares data models rather than executors.
/// Rows carry their payload in Row::tuple; join operators emit the
/// concatenation left ++ right.

/// Streams a table page by page, optionally filtering. Accounts each tuple
/// read on ExecContext::tuples_scanned (and predicate evaluations on
/// predicates_evaluated when a predicate is attached). Polls the budget at
/// page granularity.
class RelScan : public exec::Operator {
 public:
  /// `pred` may be null for a full scan. The predicate is borrowed and
  /// must outlive the operator (query_ops drives trees synchronously).
  RelScan(const Relation* rel, const TuplePredicate* pred)
      : rel_(rel), pred_(pred) {}

  Status OpenImpl(exec::ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(exec::ExecContext* ctx,
                               std::vector<exec::Row>* out) override;
  void CloseImpl(exec::ExecContext* ctx) override;
  std::string Describe() const override;

 private:
  const Relation* rel_;
  const TuplePredicate* pred_;
  std::vector<PageId> pages_;
  size_t page_idx_ = 0;
  std::vector<Tuple> buf_;
  size_t buf_pos_ = 0;
};

/// Produces the tuples matching one equality probe of a column index.
class RelIndexLookup : public exec::Operator {
 public:
  RelIndexLookup(const Relation* rel, const RelIndex* index, Value key,
                 std::string column_name)
      : rel_(rel),
        index_(index),
        key_(std::move(key)),
        column_name_(std::move(column_name)) {}

  Status OpenImpl(exec::ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(exec::ExecContext* ctx,
                               std::vector<exec::Row>* out) override;
  void CloseImpl(exec::ExecContext* ctx) override;
  std::string Describe() const override {
    return "RelIndexLookup(" + rel_->name() + "." + column_name_ +
           " = " + key_.ToString() + ")";
  }

 private:
  const Relation* rel_;
  const RelIndex* index_;
  Value key_;
  std::string column_name_;
  std::vector<RecordId> rids_;
  size_t pos_ = 0;
};

/// The batch loop the equality joins share: pull a left batch, Probe the
/// right side once per left row, emit left ++ right for every match. A
/// batch may end short when the left batch runs out (only 0 ends the
/// stream); the budget is polled once per batch.
class JoinOp : public exec::Operator {
 public:
  std::string Describe() const override { return kind_ + "(" + label_ + ")"; }
  std::vector<const exec::Operator*> children() const override {
    return {left_.get()};
  }

 protected:
  JoinOp(std::string kind, std::unique_ptr<exec::Operator> left,
         int left_col, std::string label)
      : kind_(std::move(kind)),
        left_(std::move(left)),
        left_col_(left_col),
        label_(std::move(label)) {}

  /// Points `*matches` at the right tuples joining `key` (left null or
  /// empty for none); the pointee must stay valid until the next Probe.
  virtual Status Probe(exec::ExecContext* ctx, const Value& key,
                       const std::vector<Tuple>** matches) = 0;

  Status OpenImpl(exec::ExecContext* ctx) override;
  Result<size_t> NextBatchImpl(exec::ExecContext* ctx,
                               std::vector<exec::Row>* out) override;
  void CloseImpl(exec::ExecContext* ctx) override;

 private:
  std::string kind_;
  std::unique_ptr<exec::Operator> left_;
  int left_col_;
  std::string label_;
  std::vector<exec::Row> left_batch_;
  size_t left_pos_ = 0;
  Tuple left_row_;
  const std::vector<Tuple>* matches_ = nullptr;  // of left_row_
  size_t match_pos_ = 0;
};

/// Canonical O(|L|*|R|) equality join: for every left row the right table
/// is re-scanned in full (the naive plan E12 measures against).
class NestedLoopJoinOp : public JoinOp {
 public:
  NestedLoopJoinOp(std::unique_ptr<exec::Operator> left, const Relation* right,
                   int left_col, int right_col, std::string label)
      : JoinOp("NestedLoopJoinOp", std::move(left), left_col,
               std::move(label)),
        right_(right),
        right_col_(right_col) {}

 protected:
  Status Probe(exec::ExecContext* ctx, const Value& key,
               const std::vector<Tuple>** matches) override;

 private:
  const Relation* right_;
  int right_col_;
  std::vector<Tuple> found_;  // right matches of the current left row
};

/// Classic build/probe hash join: Open materializes the right (build)
/// side into a hash table, NextBatch streams the left (probe) side.
class HashJoinOp : public JoinOp {
 public:
  HashJoinOp(std::unique_ptr<exec::Operator> left, const Relation* right,
             int left_col, int right_col, std::string label)
      : JoinOp("HashJoinOp", std::move(left), left_col, std::move(label)),
        right_(right),
        right_col_(right_col) {}

 protected:
  Status OpenImpl(exec::ExecContext* ctx) override;
  void CloseImpl(exec::ExecContext* ctx) override;
  Status Probe(exec::ExecContext* ctx, const Value& key,
               const std::vector<Tuple>** matches) override;

 private:
  std::unordered_map<std::string, std::vector<Tuple>> table_;
  const Relation* right_;
  int right_col_;
};

/// Index nested-loop join: probes a pre-built index on the right column
/// once per left row.
class IndexJoinOp : public JoinOp {
 public:
  IndexJoinOp(std::unique_ptr<exec::Operator> left, const Relation* right,
              const RelIndex* index, int left_col, std::string label)
      : JoinOp("IndexJoinOp", std::move(left), left_col, std::move(label)),
        right_(right),
        index_(index) {}

 protected:
  Status OpenImpl(exec::ExecContext* ctx) override;
  Status Probe(exec::ExecContext* ctx, const Value& key,
               const std::vector<Tuple>** matches) override;

 private:
  const Relation* right_;
  const RelIndex* index_;
  std::vector<Tuple> found_;  // right matches of the current left row
};

}  // namespace rel
}  // namespace kimdb

#endif  // KIMDB_REL_REL_OPERATORS_H_
