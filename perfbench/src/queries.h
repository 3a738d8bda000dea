// TPC-H query specs with qgen-style substitution parameters (the
// engine's tpch::Q6Spec and friends fix the literals to the spec's
// validation values).

#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

#include <cstdint>
#include <string>

#include "exec/query_spec.h"

namespace perfbench {

// SUM(l_extendedprice * l_discount) WHERE l_shipdate in [year, year + 1)
// AND l_discount BETWEEN discount - 1 AND discount + 1 (percent) AND
// l_quantity < quantity.
smartssd::exec::QuerySpec Q6(const std::string& lineitem, int year,
                             int discount, int quantity);

// The Q1 group-by over l_shipdate <= 1998-12-01 - delta_days.
smartssd::exec::QuerySpec Q1(const std::string& lineitem, int delta_days);

// The Q14 lineitem x `part` join over one shipping month.
smartssd::exec::QuerySpec Q14(const std::string& lineitem, int year,
                              int month);

// SUM(l_extendedprice), COUNT(*) WHERE l_orderkey BETWEEN lo AND hi;
// l_orderkey grows with the row, so the zone map prunes the rest.
smartssd::exec::QuerySpec OrderKeyRange(const std::string& lineitem,
                                        std::int64_t lo, std::int64_t hi);

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
