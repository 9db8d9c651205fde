#ifndef KIMDB_LANG_PARSER_H_
#define KIMDB_LANG_PARSER_H_

#include <string_view>

#include "catalog/catalog.h"
#include "lang/lexer.h"
#include "query/query_engine.h"

namespace kimdb {
namespace lang {

/// OQL-lite: the declarative surface of the unified database programming
/// language direction (paper §3.3 / §5.2). Grammar:
///
///   query   := SELECT Class [ONLY] [WHERE expr]
///   expr    := or ; or := and (OR and)* ; and := not (AND not)*
///   not     := NOT not | cmp
///   cmp     := operand [(= | != | < | <= | > | >= | CONTAINS) operand]
///   operand := literal | path | path '(' [args] ')' | '(' expr ')'
///   path    := Ident ('.' Ident)*           -- nested-attribute access
///   literal := Int | Real | String | TRUE | FALSE | NULL
///
/// ONLY restricts the scope to the target class alone; the default is the
/// class-hierarchy scope (the paper's generalization reading, §3.2). A
/// trailing '(...)' on a single-segment path is a late-bound method call.
///
/// Example (the paper's §3.2 query):
///   select Vehicle where Weight > 7500
///                    and Manufacturer.Location = 'Detroit'
/// A parsed top-level statement: a query, optionally prefixed with EXPLAIN
/// (`explain select ...`), which asks for the lowered operator tree instead
/// of results, or EXPLAIN ANALYZE (`explain analyze select ...`), which
/// executes the query and renders the tree with per-operator spans
/// (rows / loops / time / buffer-pool pages). `analyze <Class>` is the
/// statistics verb: it rebuilds the cardinality stats (live counts, extent
/// pages, per-index key histograms) the planner prices plans from;
/// `query` is unset for it.
struct Statement {
  bool explain = false;
  bool analyze = false;  // only meaningful when explain is set
  bool analyze_stmt = false;  // `analyze <Class>`: collect optimizer stats
  std::string analyze_class;  // class named by an analyze statement
  Query query;
};

class Parser {
 public:
  explicit Parser(const Catalog* catalog) : catalog_(catalog) {}

  /// Parses a full query; resolves the target class against the catalog.
  Result<Query> ParseQuery(std::string_view text) const;

  /// Parses `[EXPLAIN [ANALYZE]] SELECT ...`.
  Result<Statement> ParseStatement(std::string_view text) const;

  /// Parses just a predicate (used for view filters and rule conditions).
  Result<ExprPtr> ParseExpression(std::string_view text) const;

 private:
  class Impl;
  Result<Query> ParseQueryImpl(Impl& p) const;
  const Catalog* catalog_;
};

}  // namespace lang
}  // namespace kimdb

#endif  // KIMDB_LANG_PARSER_H_
