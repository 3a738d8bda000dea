#include "queries.h"

#include <utility>
#include <vector>

#include "tpch/dates.h"
#include "tpch/tpch_gen.h"

namespace perfbench {

namespace exec = smartssd::exec;
namespace ex = smartssd::expr;
namespace tpch = smartssd::tpch;
using tpch::DateToDays;

namespace {

ex::ExprPtr DiscountedPrice() {
  return ex::Mul(ex::Col(tpch::kLExtendedPrice),
                 ex::Sub(ex::Lit(100), ex::Col(tpch::kLDiscount)));
}

exec::AggSpec Sum(ex::ExprPtr input, std::string name) {
  return {exec::AggSpec::Fn::kSum, std::move(input), std::move(name)};
}

}  // namespace

exec::QuerySpec Q6(const std::string& lineitem, int year, int discount,
                   int quantity) {
  exec::QuerySpec spec;
  spec.name = "q6";
  spec.table = lineitem;
  std::vector<ex::ExprPtr> p;
  p.push_back(
      ex::Ge(ex::Col(tpch::kLShipDate), ex::Lit(DateToDays(year, 1, 1))));
  p.push_back(
      ex::Lt(ex::Col(tpch::kLShipDate), ex::Lit(DateToDays(year + 1, 1, 1))));
  p.push_back(ex::Ge(ex::Col(tpch::kLDiscount), ex::Lit(discount - 1)));
  p.push_back(ex::Le(ex::Col(tpch::kLDiscount), ex::Lit(discount + 1)));
  p.push_back(ex::Lt(ex::Col(tpch::kLQuantity), ex::Lit(quantity)));
  spec.predicate = ex::And(std::move(p));
  spec.aggregates.push_back(
      Sum(ex::Mul(ex::Col(tpch::kLExtendedPrice), ex::Col(tpch::kLDiscount)),
          "revenue"));
  return spec;
}

exec::QuerySpec Q1(const std::string& lineitem, int delta_days) {
  exec::QuerySpec spec;
  spec.name = "q1";
  spec.table = lineitem;
  spec.predicate = ex::Le(ex::Col(tpch::kLShipDate),
                          ex::Lit(DateToDays(1998, 12, 1) - delta_days));
  spec.group_by = {tpch::kLReturnFlag, tpch::kLLineStatus};
  spec.aggregates.push_back(Sum(ex::Col(tpch::kLQuantity), "sum_qty"));
  spec.aggregates.push_back(
      Sum(ex::Col(tpch::kLExtendedPrice), "sum_base_price"));
  spec.aggregates.push_back(Sum(DiscountedPrice(), "sum_disc_price"));
  spec.aggregates.push_back(
      Sum(ex::Mul(DiscountedPrice(),
                  ex::Add(ex::Lit(100), ex::Col(tpch::kLTax))),
          "sum_charge"));
  spec.aggregates.push_back({exec::AggSpec::Fn::kCount, nullptr, "count"});
  return spec;
}

exec::QuerySpec Q14(const std::string& lineitem, int year, int month) {
  exec::QuerySpec spec;
  spec.name = "q14";
  spec.table = lineitem;
  spec.join = exec::JoinSpec{.inner_table = "part",
                             .outer_key_col = tpch::kLPartKey,
                             .inner_key_col = tpch::kPPartKey,
                             .inner_payload_cols = {tpch::kPType}};
  spec.order = exec::PipelineOrder::kProbeFirst;
  std::vector<ex::ExprPtr> p;
  p.push_back(ex::Ge(ex::Col(tpch::kLShipDate),
                     ex::Lit(DateToDays(year, month, 1))));
  p.push_back(ex::Lt(ex::Col(tpch::kLShipDate),
                     ex::Lit(month == 12 ? DateToDays(year + 1, 1, 1)
                                         : DateToDays(year, month + 1, 1))));
  spec.predicate = ex::And(std::move(p));
  const int p_type = 16;  // part's payload follows lineitem's 16 columns
  spec.aggregates.push_back(
      Sum(ex::CaseWhen(ex::LikePrefix(ex::Col(p_type), "PROMO"),
                       DiscountedPrice(), ex::Lit(0)),
          "promo_sum"));
  spec.aggregates.push_back(Sum(DiscountedPrice(), "total_sum"));
  return spec;
}

exec::QuerySpec OrderKeyRange(const std::string& lineitem, std::int64_t lo,
                              std::int64_t hi) {
  exec::QuerySpec spec;
  spec.name = "range";
  spec.table = lineitem;
  std::vector<ex::ExprPtr> p;
  p.push_back(ex::Ge(ex::Col(tpch::kLOrderKey), ex::Lit(lo)));
  p.push_back(ex::Le(ex::Col(tpch::kLOrderKey), ex::Lit(hi)));
  spec.predicate = ex::And(std::move(p));
  spec.aggregates.push_back(Sum(ex::Col(tpch::kLExtendedPrice), "sum_price"));
  spec.aggregates.push_back({exec::AggSpec::Fn::kCount, nullptr, "count"});
  return spec;
}

}  // namespace perfbench
