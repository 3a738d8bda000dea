#ifndef SMARTSSD_EXEC_PAGE_COLUMNS_H_
#define SMARTSSD_EXEC_PAGE_COLUMNS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "expr/batch.h"
#include "storage/nsm_page.h"
#include "storage/pax_page.h"
#include "storage/schema.h"

namespace smartssd::exec {

// Points the first schema.num_columns() batch columns at one page's
// columns — the per-page step every batch-kernel pass shares (the scan
// kernel in PageProcessor and the host update pass). Only base /
// row_ptrs / stride / offset are set; type and width are per-table and
// filled once by the caller. The readers only validate and locate: the
// pointers live in the page image and stay valid after the reader goes
// out of scope.
//
// Callers must skip empty pages first: a zero-tuple (e.g. never
// written) page has no slot directory or minipages to point into.

// NSM: `tuple_ptrs` holds the page's tuple pointers, gathered (and
// bounds-checked) by NsmPageReader::GatherTuplePointers; each column
// reads at its offset within the tuple.
inline void BindPageColumns(const storage::Schema& schema,
                            const std::vector<const std::byte*>& tuple_ptrs,
                            expr::BatchColumn* columns) {
  for (int c = 0; c < schema.num_columns(); ++c) {
    expr::BatchColumn& col = columns[c];
    col.base = nullptr;
    col.row_ptrs = tuple_ptrs.data();
    col.offset = schema.offset(c);
  }
}

// PAX: each column strides through its own minipage.
inline void BindPageColumns(const storage::Schema& schema,
                            const storage::PaxPageReader& reader,
                            expr::BatchColumn* columns) {
  for (int c = 0; c < schema.num_columns(); ++c) {
    expr::BatchColumn& col = columns[c];
    col.base = reader.column_data(c);
    col.stride = schema.column(c).width;
    col.row_ptrs = nullptr;
  }
}

// Copies row `row` of a bound page into `dst` as one NSM record
// (schema.tuple_size() bytes), whichever layout the page has.
inline void GatherRow(const storage::Schema& schema,
                      const expr::BatchColumn* columns, std::uint32_t row,
                      std::byte* dst) {
  for (int c = 0; c < schema.num_columns(); ++c) {
    const expr::BatchColumn& col = columns[c];
    std::memcpy(dst + schema.offset(c), col.at(row), col.width);
  }
}

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_PAGE_COLUMNS_H_
