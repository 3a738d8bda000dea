#include "expr/expression.h"

#include <utility>

#include "expr/batch.h"

namespace smartssd::expr {

namespace {

// Inserts a (free) int→double cast op unless the slot is already a
// double — the batch analogue of Value::AsDouble promotion.
int CastToF64(BatchProgram* prog, int slot) {
  if (prog->slot(slot).type == SlotType::kF64) return slot;
  BatchOp op;
  op.code = BatchOp::Code::kCastI2D;
  op.a = slot;
  op.dst = prog->AddSlot(SlotType::kF64, prog->slot(slot).uniform);
  prog->Emit(op);
  return op.dst;
}

bool IsNumeric(SlotType t) {
  return t == SlotType::kI64 || t == SlotType::kF64;
}

// Compares two values of the same family; strings compare
// lexicographically (fixed CHARs are space-padded, so padding is
// order-neutral for equal-width operands).
int CompareValues(const Value& a, const Value& b) {
  if (a.type() == Value::Type::kString) {
    SMARTSSD_CHECK(b.type() == Value::Type::kString);
    return a.AsString().compare(b.AsString());
  }
  if (a.type() == Value::Type::kDouble || b.type() == Value::Type::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const std::int64_t x = a.AsInt();
  const std::int64_t y = b.AsInt();
  return x < y ? -1 : (x > y ? 1 : 0);
}

class ColumnExpr final : public Expression {
 public:
  explicit ColumnExpr(int column) : column_(column) {}

  Value Evaluate(const RowView& row, EvalStats* stats) const override {
    ++stats->column_reads;
    return row.GetColumn(column_);
  }

  Status Validate(const storage::Schema& schema) const override {
    if (column_ < 0 || column_ >= schema.num_columns()) {
      return InvalidArgumentError("column index out of range");
    }
    return Status::OK();
  }

  void CollectColumns(std::vector<int>* columns) const override {
    columns->push_back(column_);
  }

  void EstimateOps(EvalStats* stats) const override {
    ++stats->column_reads;
  }

  std::optional<int> AsColumnRef() const override { return column_; }

  Result<int> CompileBatch(BatchProgram* prog) const override {
    if (column_ < 0 || column_ >= prog->schema().num_columns()) {
      return InvalidArgumentError("column index out of range");
    }
    BatchOp op;
    op.col = column_;
    switch (prog->schema().column(column_).type) {
      case storage::ColumnType::kInt32:
      case storage::ColumnType::kInt64:
        op.code = BatchOp::Code::kLoadI64;
        op.dst = prog->AddSlot(SlotType::kI64);
        break;
      case storage::ColumnType::kFixedChar:
        op.code = BatchOp::Code::kLoadStr;
        op.dst = prog->AddSlot(SlotType::kStr);
        break;
    }
    prog->Emit(op);
    return op.dst;
  }

  std::string ToString() const override {
    return "$" + std::to_string(column_);
  }

 private:
  int column_;
};

class LiteralExpr final : public Expression {
 public:
  explicit LiteralExpr(std::int64_t v) : int_value_(v), is_string_(false) {}
  explicit LiteralExpr(std::string s)
      : string_value_(std::move(s)), is_string_(true) {}

  Value Evaluate(const RowView&, EvalStats*) const override {
    return is_string_ ? Value::String(string_value_)
                      : Value::Int(int_value_);
  }

  Status Validate(const storage::Schema&) const override {
    return Status::OK();
  }

  void CollectColumns(std::vector<int>*) const override {}

  void EstimateOps(EvalStats*) const override {}

  std::optional<std::int64_t> AsIntLiteral() const override {
    if (is_string_) return std::nullopt;
    return int_value_;
  }

  Result<int> CompileBatch(BatchProgram* prog) const override {
    return is_string_ ? prog->AddLiteralStr(string_value_)
                      : prog->AddLiteralI64(int_value_);
  }

  std::string ToString() const override {
    return is_string_ ? "'" + string_value_ + "'"
                      : std::to_string(int_value_);
  }

 private:
  std::int64_t int_value_ = 0;
  std::string string_value_;
  bool is_string_;
};

class CompareExpr final : public Expression {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Value Evaluate(const RowView& row, EvalStats* stats) const override {
    const Value l = lhs_->Evaluate(row, stats);
    const Value r = rhs_->Evaluate(row, stats);
    ++stats->comparisons;
    const int c = CompareValues(l, r);
    switch (op_) {
      case CompareOp::kEq:
        return Value::Bool(c == 0);
      case CompareOp::kNe:
        return Value::Bool(c != 0);
      case CompareOp::kLt:
        return Value::Bool(c < 0);
      case CompareOp::kLe:
        return Value::Bool(c <= 0);
      case CompareOp::kGt:
        return Value::Bool(c > 0);
      case CompareOp::kGe:
        return Value::Bool(c >= 0);
    }
    return Value::Bool(false);
  }

  Status Validate(const storage::Schema& schema) const override {
    SMARTSSD_RETURN_IF_ERROR(lhs_->Validate(schema));
    return rhs_->Validate(schema);
  }

  void CollectColumns(std::vector<int>* columns) const override {
    lhs_->CollectColumns(columns);
    rhs_->CollectColumns(columns);
  }

  void EstimateOps(EvalStats* stats) const override {
    lhs_->EstimateOps(stats);
    rhs_->EstimateOps(stats);
    ++stats->comparisons;
  }

  std::optional<ColumnCompare> AsColumnCompare() const override {
    const auto lhs_col = lhs_->AsColumnRef();
    const auto rhs_lit = rhs_->AsIntLiteral();
    if (lhs_col.has_value() && rhs_lit.has_value()) {
      return ColumnCompare{*lhs_col, op_, *rhs_lit};
    }
    const auto lhs_lit = lhs_->AsIntLiteral();
    const auto rhs_col = rhs_->AsColumnRef();
    if (lhs_lit.has_value() && rhs_col.has_value()) {
      // Normalize "lit OP col" to "col OP' lit".
      CompareOp flipped = op_;
      switch (op_) {
        case CompareOp::kLt:
          flipped = CompareOp::kGt;
          break;
        case CompareOp::kLe:
          flipped = CompareOp::kGe;
          break;
        case CompareOp::kGt:
          flipped = CompareOp::kLt;
          break;
        case CompareOp::kGe:
          flipped = CompareOp::kLe;
          break;
        case CompareOp::kEq:
        case CompareOp::kNe:
          break;
      }
      return ColumnCompare{*rhs_col, flipped, *lhs_lit};
    }
    return std::nullopt;
  }

  Result<int> CompileBatch(BatchProgram* prog) const override {
    SMARTSSD_ASSIGN_OR_RETURN(int a, lhs_->CompileBatch(prog));
    SMARTSSD_ASSIGN_OR_RETURN(int b, rhs_->CompileBatch(prog));
    const SlotType ta = prog->slot(a).type;
    const SlotType tb = prog->slot(b).type;
    BatchOp op;
    op.cmp = op_;
    if (ta == SlotType::kStr && tb == SlotType::kStr) {
      op.code = BatchOp::Code::kCmpS;
    } else if (IsNumeric(ta) && IsNumeric(tb)) {
      if (ta == SlotType::kF64 || tb == SlotType::kF64) {
        a = CastToF64(prog, a);
        b = CastToF64(prog, b);
        op.code = BatchOp::Code::kCmpD;
      } else {
        op.code = BatchOp::Code::kCmpI;
      }
    } else {
      return UnimplementedError("batch compare on mixed operand types");
    }
    op.a = a;
    op.b = b;
    op.dst = prog->AddSlot(
        SlotType::kBool, prog->slot(a).uniform && prog->slot(b).uniform);
    prog->Emit(op);
    return op.dst;
  }

  std::string ToString() const override {
    static constexpr const char* kNames[] = {"=", "<>", "<", "<=", ">",
                                             ">="};
    return "(" + lhs_->ToString() + " " +
           kNames[static_cast<int>(op_)] + " " + rhs_->ToString() + ")";
  }

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class ArithExpr final : public Expression {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Value Evaluate(const RowView& row, EvalStats* stats) const override {
    const Value l = lhs_->Evaluate(row, stats);
    const Value r = rhs_->Evaluate(row, stats);
    ++stats->arithmetic;
    if (l.type() == Value::Type::kDouble ||
        r.type() == Value::Type::kDouble || op_ == ArithOp::kDiv) {
      const double x = l.AsDouble();
      const double y = r.AsDouble();
      switch (op_) {
        case ArithOp::kAdd:
          return Value::Double(x + y);
        case ArithOp::kSub:
          return Value::Double(x - y);
        case ArithOp::kMul:
          return Value::Double(x * y);
        case ArithOp::kDiv:
          return Value::Double(y == 0 ? 0 : x / y);
      }
    }
    const std::int64_t x = l.AsInt();
    const std::int64_t y = r.AsInt();
    switch (op_) {
      case ArithOp::kAdd:
        return Value::Int(x + y);
      case ArithOp::kSub:
        return Value::Int(x - y);
      case ArithOp::kMul:
        return Value::Int(x * y);
      case ArithOp::kDiv:
        return Value::Int(y == 0 ? 0 : x / y);
    }
    return Value::Null();
  }

  Status Validate(const storage::Schema& schema) const override {
    SMARTSSD_RETURN_IF_ERROR(lhs_->Validate(schema));
    return rhs_->Validate(schema);
  }

  void CollectColumns(std::vector<int>* columns) const override {
    lhs_->CollectColumns(columns);
    rhs_->CollectColumns(columns);
  }

  void EstimateOps(EvalStats* stats) const override {
    lhs_->EstimateOps(stats);
    rhs_->EstimateOps(stats);
    ++stats->arithmetic;
  }

  Result<int> CompileBatch(BatchProgram* prog) const override {
    SMARTSSD_ASSIGN_OR_RETURN(int a, lhs_->CompileBatch(prog));
    SMARTSSD_ASSIGN_OR_RETURN(int b, rhs_->CompileBatch(prog));
    if (!IsNumeric(prog->slot(a).type) || !IsNumeric(prog->slot(b).type)) {
      return UnimplementedError("batch arithmetic on non-numeric operand");
    }
    BatchOp op;
    op.arith = op_;
    const bool uniform = prog->slot(a).uniform && prog->slot(b).uniform;
    // Division always takes the double path, exactly like the
    // interpreter.
    if (prog->slot(a).type == SlotType::kF64 ||
        prog->slot(b).type == SlotType::kF64 || op_ == ArithOp::kDiv) {
      op.code = BatchOp::Code::kArithD;
      op.a = CastToF64(prog, a);
      op.b = CastToF64(prog, b);
      op.dst = prog->AddSlot(SlotType::kF64, uniform);
    } else {
      op.code = BatchOp::Code::kArithI;
      op.a = a;
      op.b = b;
      op.dst = prog->AddSlot(SlotType::kI64, uniform);
    }
    prog->Emit(op);
    return op.dst;
  }

  std::string ToString() const override {
    static constexpr const char* kNames[] = {"+", "-", "*", "/"};
    return "(" + lhs_->ToString() + " " +
           kNames[static_cast<int>(op_)] + " " + rhs_->ToString() + ")";
  }

 private:
  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class LogicExpr final : public Expression {
 public:
  LogicExpr(bool is_and, std::vector<ExprPtr> children)
      : is_and_(is_and), children_(std::move(children)) {}

  Value Evaluate(const RowView& row, EvalStats* stats) const override {
    // Short-circuit, left to right: the count of comparisons actually
    // executed is what the cost model charges, which is why predicate
    // order matters to the simulated elapsed time just as it did on the
    // real device.
    for (const ExprPtr& child : children_) {
      const bool b = child->Evaluate(row, stats).AsBool();
      if (is_and_ && !b) return Value::Bool(false);
      if (!is_and_ && b) return Value::Bool(true);
    }
    return Value::Bool(is_and_);
  }

  Status Validate(const storage::Schema& schema) const override {
    if (children_.empty()) {
      return InvalidArgumentError("AND/OR needs at least one operand");
    }
    for (const ExprPtr& child : children_) {
      SMARTSSD_RETURN_IF_ERROR(child->Validate(schema));
    }
    return Status::OK();
  }

  void CollectColumns(std::vector<int>* columns) const override {
    for (const ExprPtr& child : children_) child->CollectColumns(columns);
  }

  void EstimateOps(EvalStats* stats) const override {
    for (const ExprPtr& child : children_) child->EstimateOps(stats);
  }

  const std::vector<ExprPtr>* AsConjunction() const override {
    return is_and_ ? &children_ : nullptr;
  }

  Result<int> CompileBatch(BatchProgram* prog) const override {
    if (children_.empty()) {
      return InvalidArgumentError("AND/OR needs at least one operand");
    }
    // Child k runs over exactly the lanes where every earlier child left
    // the outcome undecided (true-so-far for AND, false-so-far for OR):
    // selection narrowing IS short-circuiting, lane for lane, which is
    // what keeps the charged EvalStats identical to the interpreter.
    SMARTSSD_ASSIGN_OR_RETURN(int b0, children_[0]->CompileBatch(prog));
    if (prog->slot(b0).type != SlotType::kBool) {
      return UnimplementedError("batch AND/OR over non-boolean child");
    }
    if (children_.size() == 1) return b0;
    const std::uint8_t keep = is_and_ ? 1 : 0;
    BatchOp save;
    save.code = BatchOp::Code::kSelSave;
    prog->Emit(save);
    BatchOp narrow;
    narrow.code = BatchOp::Code::kSelNarrow;
    narrow.flag = keep;
    narrow.a = b0;
    prog->Emit(narrow);
    for (std::size_t i = 1; i < children_.size(); ++i) {
      SMARTSSD_ASSIGN_OR_RETURN(int bi, children_[i]->CompileBatch(prog));
      if (prog->slot(bi).type != SlotType::kBool) {
        return UnimplementedError("batch AND/OR over non-boolean child");
      }
      narrow.a = bi;
      prog->Emit(narrow);
    }
    BatchOp fold;
    fold.code = BatchOp::Code::kBoolFromSel;
    fold.flag = is_and_ ? 0 : 1;  // surviving lanes are false for OR
    fold.dst = prog->AddSlot(SlotType::kBool);
    prog->Emit(fold);
    return fold.dst;
  }

  std::string ToString() const override {
    std::string out = "(";
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (i > 0) out += is_and_ ? " AND " : " OR ";
      out += children_[i]->ToString();
    }
    return out + ")";
  }

 private:
  bool is_and_;
  std::vector<ExprPtr> children_;
};

class NotExpr final : public Expression {
 public:
  explicit NotExpr(ExprPtr child) : child_(std::move(child)) {}

  Value Evaluate(const RowView& row, EvalStats* stats) const override {
    return Value::Bool(!child_->Evaluate(row, stats).AsBool());
  }

  Status Validate(const storage::Schema& schema) const override {
    return child_->Validate(schema);
  }

  void CollectColumns(std::vector<int>* columns) const override {
    child_->CollectColumns(columns);
  }

  void EstimateOps(EvalStats* stats) const override {
    child_->EstimateOps(stats);
  }

  Result<int> CompileBatch(BatchProgram* prog) const override {
    SMARTSSD_ASSIGN_OR_RETURN(const int a, child_->CompileBatch(prog));
    if (prog->slot(a).type != SlotType::kBool) {
      return UnimplementedError("batch NOT over non-boolean child");
    }
    BatchOp op;
    op.code = BatchOp::Code::kNot;
    op.a = a;
    op.dst = prog->AddSlot(SlotType::kBool, prog->slot(a).uniform);
    prog->Emit(op);
    return op.dst;
  }

  std::string ToString() const override {
    return "(NOT " + child_->ToString() + ")";
  }

 private:
  ExprPtr child_;
};

class LikePrefixExpr final : public Expression {
 public:
  LikePrefixExpr(ExprPtr input, std::string prefix)
      : input_(std::move(input)), prefix_(std::move(prefix)) {}

  Value Evaluate(const RowView& row, EvalStats* stats) const override {
    const Value v = input_->Evaluate(row, stats);
    ++stats->like_evals;
    const std::string_view s = v.AsString();
    return Value::Bool(s.substr(0, prefix_.size()) == prefix_);
  }

  Status Validate(const storage::Schema& schema) const override {
    if (prefix_.empty()) {
      return InvalidArgumentError("LIKE prefix must not be empty");
    }
    return input_->Validate(schema);
  }

  void CollectColumns(std::vector<int>* columns) const override {
    input_->CollectColumns(columns);
  }

  void EstimateOps(EvalStats* stats) const override {
    input_->EstimateOps(stats);
    ++stats->like_evals;
  }

  Result<int> CompileBatch(BatchProgram* prog) const override {
    SMARTSSD_ASSIGN_OR_RETURN(const int a, input_->CompileBatch(prog));
    if (prog->slot(a).type != SlotType::kStr) {
      return UnimplementedError("batch LIKE over non-string input");
    }
    BatchOp op;
    op.code = BatchOp::Code::kLike;
    op.a = a;
    op.lit = prog->AddString(prefix_);
    op.dst = prog->AddSlot(SlotType::kBool, prog->slot(a).uniform);
    prog->Emit(op);
    return op.dst;
  }

  std::string ToString() const override {
    return "(" + input_->ToString() + " LIKE '" + prefix_ + "%')";
  }

 private:
  ExprPtr input_;
  std::string prefix_;
};

class CaseWhenExpr final : public Expression {
 public:
  CaseWhenExpr(ExprPtr condition, ExprPtr then_value, ExprPtr else_value)
      : condition_(std::move(condition)),
        then_(std::move(then_value)),
        else_(std::move(else_value)) {}

  Value Evaluate(const RowView& row, EvalStats* stats) const override {
    ++stats->case_evals;
    if (condition_->Evaluate(row, stats).AsBool()) {
      return then_->Evaluate(row, stats);
    }
    return else_->Evaluate(row, stats);
  }

  Status Validate(const storage::Schema& schema) const override {
    SMARTSSD_RETURN_IF_ERROR(condition_->Validate(schema));
    SMARTSSD_RETURN_IF_ERROR(then_->Validate(schema));
    return else_->Validate(schema);
  }

  void CollectColumns(std::vector<int>* columns) const override {
    condition_->CollectColumns(columns);
    then_->CollectColumns(columns);
    else_->CollectColumns(columns);
  }

  void EstimateOps(EvalStats* stats) const override {
    condition_->EstimateOps(stats);
    then_->EstimateOps(stats);
    else_->EstimateOps(stats);
    ++stats->case_evals;
  }

  Result<int> CompileBatch(BatchProgram* prog) const override {
    // The interpreter counts the case_eval before touching the
    // condition, so the mark comes first.
    BatchOp mark;
    mark.code = BatchOp::Code::kCaseMark;
    prog->Emit(mark);
    SMARTSSD_ASSIGN_OR_RETURN(const int b, condition_->CompileBatch(prog));
    if (prog->slot(b).type != SlotType::kBool) {
      return UnimplementedError("batch CASE over non-boolean condition");
    }
    // Each branch runs only over its partition of the selection — the
    // rows the interpreter would have taken that branch for.
    BatchOp save;
    save.code = BatchOp::Code::kSelSave;
    BatchOp narrow;
    narrow.code = BatchOp::Code::kSelNarrow;
    narrow.a = b;
    BatchOp pop;
    pop.code = BatchOp::Code::kSelPop;

    prog->Emit(save);
    narrow.flag = 1;
    prog->Emit(narrow);
    SMARTSSD_ASSIGN_OR_RETURN(const int t, then_->CompileBatch(prog));
    prog->Emit(pop);

    prog->Emit(save);
    narrow.flag = 0;
    prog->Emit(narrow);
    SMARTSSD_ASSIGN_OR_RETURN(const int e, else_->CompileBatch(prog));
    prog->Emit(pop);

    if (prog->slot(t).type != prog->slot(e).type) {
      // A row-dependent result type; the interpreter's dynamic typing
      // handles it, the static batch engine does not.
      return UnimplementedError("batch CASE with mixed branch types");
    }
    BatchOp merge;
    merge.code = BatchOp::Code::kMerge;
    merge.a = b;
    merge.b = t;
    merge.c = e;
    merge.dst = prog->AddSlot(prog->slot(t).type,
                              prog->slot(b).uniform &&
                                  prog->slot(t).uniform &&
                                  prog->slot(e).uniform);
    prog->Emit(merge);
    return merge.dst;
  }

  std::string ToString() const override {
    return "CASE WHEN " + condition_->ToString() + " THEN " +
           then_->ToString() + " ELSE " + else_->ToString() + " END";
  }

 private:
  ExprPtr condition_;
  ExprPtr then_;
  ExprPtr else_;
};

}  // namespace

Result<int> Expression::CompileBatch(BatchProgram*) const {
  return UnimplementedError("expression not supported by batch kernel");
}

std::vector<const Expression*> Conjuncts(const Expression& predicate) {
  std::vector<const Expression*> out;
  if (const auto* children = predicate.AsConjunction()) {
    out.reserve(children->size());
    for (const ExprPtr& child : *children) out.push_back(child.get());
  } else {
    out.push_back(&predicate);
  }
  return out;
}

ExprPtr Col(int column) { return std::make_unique<ColumnExpr>(column); }

ExprPtr Lit(std::int64_t value) {
  return std::make_unique<LiteralExpr>(value);
}

ExprPtr LitStr(std::string value) {
  return std::make_unique<LiteralExpr>(std::move(value));
}

ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<CompareExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_unique<ArithExpr>(op, std::move(lhs), std::move(rhs));
}

ExprPtr And(std::vector<ExprPtr> children) {
  return std::make_unique<LogicExpr>(true, std::move(children));
}

ExprPtr Or(std::vector<ExprPtr> children) {
  return std::make_unique<LogicExpr>(false, std::move(children));
}

ExprPtr Not(ExprPtr child) {
  return std::make_unique<NotExpr>(std::move(child));
}

ExprPtr LikePrefix(ExprPtr input, std::string prefix) {
  return std::make_unique<LikePrefixExpr>(std::move(input),
                                          std::move(prefix));
}

ExprPtr CaseWhen(ExprPtr condition, ExprPtr then_value, ExprPtr else_value) {
  return std::make_unique<CaseWhenExpr>(
      std::move(condition), std::move(then_value), std::move(else_value));
}

}  // namespace smartssd::expr
