#include "engine/update.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "exec/page_columns.h"

namespace smartssd::engine {

namespace {
// Host CPU cost of an update pass: decode + predicate + re-encode.
constexpr std::uint64_t kCyclesPerTuple = 60;
constexpr std::uint64_t kCyclesPerUpdatedTuple = 120;

// Serializes the row a RowView exposes into `tuple`.
void SerializeRow(const storage::Schema& schema, const expr::RowView& view,
                  std::span<std::byte> tuple) {
  storage::TupleWriter writer(&schema, tuple);
  for (int c = 0; c < schema.num_columns(); ++c) {
    switch (schema.column(c).type) {
      case storage::ColumnType::kInt32:
        writer.SetInt32(c,
                        static_cast<std::int32_t>(view.GetColumn(c).AsInt()));
        break;
      case storage::ColumnType::kInt64:
        writer.SetInt64(c, view.GetColumn(c).AsInt());
        break;
      case storage::ColumnType::kFixedChar:
        writer.SetChar(c, view.GetColumn(c).AsString());
        break;
    }
  }
}
}  // namespace

TableUpdater::TableUpdater(Database* db) : db_(db) {
  SMARTSSD_CHECK(db != nullptr);
}

Result<TableUpdater::UpdateStats> TableUpdater::Update(
    const std::string& table, const expr::Expression* predicate,
    const MutateFn& mutate, SimTime start) {
  SMARTSSD_ASSIGN_OR_RETURN(UpdateCursor cursor,
                            UpdateCursor::Open(db_, table, predicate, mutate));
  SimTime t = start;
  while (!cursor.done()) {
    SMARTSSD_ASSIGN_OR_RETURN(t, cursor.StepPage(t));
  }
  return cursor.stats();
}

Result<UpdateCursor> UpdateCursor::Open(Database* db, std::string table,
                                        const expr::Expression* predicate,
                                        TableUpdater::MutateFn mutate) {
  SMARTSSD_CHECK(db != nullptr);
  SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* info,
                            db->catalog().GetTable(table));
  const storage::Schema& schema = info->schema;
  if (predicate != nullptr) {
    SMARTSSD_RETURN_IF_ERROR(predicate->Validate(schema));
  }
  UpdateCursor cursor;
  cursor.db_ = db;
  cursor.table_ = std::move(table);
  cursor.predicate_ = predicate;
  cursor.mutate_ = std::move(mutate);
  cursor.page_count_ = info->page_count;
  if (predicate != nullptr &&
      db->options().kernel == exec::KernelMode::kVectorized) {
    auto compiled = expr::CompiledExpr::Compile(*predicate, schema);
    if (compiled.ok() && compiled->result_type() == expr::SlotType::kBool) {
      cursor.compiled_.emplace(std::move(compiled).value());
    }
  }
  cursor.columns_.resize(static_cast<std::size_t>(schema.num_columns()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    cursor.columns_[static_cast<std::size_t>(c)].type = schema.column(c).type;
    cursor.columns_[static_cast<std::size_t>(c)].width =
        schema.column(c).width;
  }
  cursor.tuple_.resize(schema.tuple_size());
  cursor.row_.resize(schema.tuple_size());
  const std::uint32_t page_size = db->device().page_size();
  if (info->layout == storage::PageLayout::kNsm) {
    cursor.nsm_.emplace(&schema, page_size);
  } else {
    cursor.pax_.emplace(&schema, page_size);
  }
  return cursor;
}

Result<std::uint16_t> UpdateCursor::BindPage(
    const storage::TableInfo& info, std::span<const std::byte> page) {
  const storage::Schema& schema = info.schema;
  if (info.layout == storage::PageLayout::kNsm) {
    SMARTSSD_ASSIGN_OR_RETURN(
        const std::uint16_t n,
        storage::NsmPageReader::GatherTuplePointers(&schema, page,
                                                    &tuple_ptrs_));
    if (n > 0) exec::BindPageColumns(schema, tuple_ptrs_, columns_.data());
    return n;
  }
  SMARTSSD_ASSIGN_OR_RETURN(const storage::PaxPageReader reader,
                            storage::PaxPageReader::Open(&schema, page));
  if (reader.tuple_count() > 0) {
    exec::BindPageColumns(schema, reader, columns_.data());
  }
  return reader.tuple_count();
}

void UpdateCursor::SelectRows(const storage::Schema& schema,
                              std::uint16_t n) {
  sel_.resize(n);
  std::iota(sel_.begin(), sel_.end(), 0u);
  if (n == 0 || predicate_ == nullptr) return;
  expr::EvalStats eval;  // the cycle charge is per tuple, not per op
  if (compiled_.has_value()) {
    const expr::BatchInput in{columns_.data(),
                              static_cast<int>(columns_.size())};
    compiled_->Filter(in, &sel_, &scratch_, &eval);
    return;
  }
  const expr::NsmRowView view(&schema, row_.data());
  std::size_t kept = 0;
  for (std::uint32_t row = 0; row < n; ++row) {
    exec::GatherRow(schema, columns_.data(), row, row_.data());
    if (predicate_->Evaluate(view, &eval).AsBool()) sel_[kept++] = row;
  }
  sel_.resize(kept);
}

Status UpdateCursor::RebuildPage(const storage::Schema& schema,
                                 std::uint16_t n) {
  if (nsm_.has_value()) {
    nsm_->Reset();
  } else {
    pax_->Reset();
  }
  // mutate reads the row as it was (row_) and writes into tuple_.
  const expr::NsmRowView view(&schema, row_.data());
  auto next = sel_.begin();
  for (std::uint32_t row = 0; row < n; ++row) {
    exec::GatherRow(schema, columns_.data(), row, tuple_.data());
    if (next != sel_.end() && *next == row) {
      std::copy(tuple_.begin(), tuple_.end(), row_.begin());
      storage::TupleWriter writer(&schema, tuple_);
      mutate_(view, writer);
      ++next;
    }
    const bool appended =
        nsm_.has_value() ? nsm_->Append(tuple_) : pax_->Append(tuple_);
    if (!appended) {
      return InternalError("update: rebuilt page overflowed");
    }
  }
  return Status::OK();
}

Result<SimTime> UpdateCursor::StepPage(SimTime ready) {
  if (done()) return ready;
  SMARTSSD_ASSIGN_OR_RETURN(const storage::TableInfo* info,
                            db_->catalog().GetTable(table_));
  BufferPool& pool = db_->buffer_pool();

  const std::uint64_t p = next_page_++;
  const std::uint64_t lpn = info->first_lpn + p;
  SimTime t = ready;
  SMARTSSD_ASSIGN_OR_RETURN(
      auto page_and_time,
      pool.GetPage(lpn, t, info->first_lpn + info->page_count));
  t = page_and_time.second;

  // Filter first; only a page with a matching row is rebuilt. The
  // rebuild mutates exactly the selected rows, without re-evaluating
  // the predicate.
  SMARTSSD_ASSIGN_OR_RETURN(const std::uint16_t n,
                            BindPage(*info, page_and_time.first));
  SelectRows(info->schema, n);
  const bool page_changed = !sel_.empty();
  if (page_changed) {
    SMARTSSD_RETURN_IF_ERROR(RebuildPage(info->schema, n));
    stats_.rows_matched += sel_.size();
  }

  const std::uint64_t cycles =
      n * kCyclesPerTuple + (page_changed ? n * kCyclesPerUpdatedTuple : 0);
  t = db_->host().Execute(cycles, t);

  if (page_changed) {
    const auto image = nsm_.has_value() ? nsm_->image() : pax_->image();
    SMARTSSD_ASSIGN_OR_RETURN(t, pool.WritePage(lpn, image, t));
    ++stats_.pages_dirtied;
  }

  if (done() && stats_.rows_matched > 0) {
    // Stored statistics may no longer bound the data; FlushAll rebuilds.
    db_->MarkZoneMapStale(table_);
  }
  stats_.end = t;
  return t;
}

TableAppender::TableAppender(Database* db) : db_(db) {
  SMARTSSD_CHECK(db != nullptr);
}

Result<TableAppender::AppendStats> TableAppender::Append(
    const std::string& table, std::uint64_t row_count,
    const storage::RowGenerator& gen, SimTime start, bool widen_zone_map) {
  SMARTSSD_ASSIGN_OR_RETURN(
      AppendCursor cursor,
      AppendCursor::Open(db_, table, row_count, gen, widen_zone_map));
  SimTime t = start;
  while (!cursor.done()) {
    SMARTSSD_ASSIGN_OR_RETURN(t, cursor.StepPage(t));
  }
  return cursor.stats();
}

Result<AppendCursor> AppendCursor::Open(Database* db, std::string table,
                                        std::uint64_t row_count,
                                        storage::RowGenerator gen,
                                        bool widen_zone_map) {
  SMARTSSD_CHECK(db != nullptr);
  SMARTSSD_RETURN_IF_ERROR(db->catalog().GetTable(table).status());
  AppendCursor cursor;
  cursor.db_ = db;
  cursor.table_ = std::move(table);
  cursor.gen_ = std::move(gen);
  cursor.target_rows_ = row_count;
  cursor.widen_zone_map_ = widen_zone_map;
  return cursor;
}

Result<SimTime> AppendCursor::StepPage(SimTime ready) {
  if (done()) return ready;
  SMARTSSD_ASSIGN_OR_RETURN(storage::TableInfo* info,
                            db_->catalog().GetMutableTable(table_));
  const storage::Schema& schema = info->schema;
  const std::uint32_t capacity = info->tuples_per_page;
  const std::uint32_t page_size = db_->device().page_size();
  BufferPool& pool = db_->buffer_pool();
  SimTime t = ready;

  // Decide which page this step fills: the partial last page (rebuilt
  // in place) or a fresh page carved from the reserved extent.
  const std::uint64_t full_slots =
      info->page_count * static_cast<std::uint64_t>(capacity);
  std::uint64_t page_index;
  bool rebuild_last = false;
  bool new_page = false;
  if (info->tuple_count == 0) {
    page_index = 0;  // the loader's minimum one-page extent, still empty
  } else if (info->tuple_count < full_slots) {
    rebuild_last = true;
    page_index = info->page_count - 1;
  } else {
    if (info->page_count >= info->reserved_pages) {
      return FailedPreconditionError(
          "append: reserved extent exhausted for table " + table_);
    }
    new_page = true;
    page_index = info->page_count;
  }
  const std::uint64_t lpn = info->first_lpn + page_index;

  storage::NsmPageBuilder nsm(&schema, page_size);
  storage::PaxPageBuilder pax(&schema, page_size);
  std::vector<std::byte> tuple(schema.tuple_size());
  auto append_serialized = [&]() -> Status {
    const bool ok = info->layout == storage::PageLayout::kNsm
                        ? nsm.Append(tuple)
                        : pax.Append(tuple);
    if (!ok) return InternalError("append: page overflowed its capacity");
    return Status::OK();
  };

  // Re-encode the partial page's existing rows.
  std::uint64_t existing = 0;
  if (rebuild_last) {
    SMARTSSD_ASSIGN_OR_RETURN(
        auto page_and_time,
        pool.GetPage(lpn, t, info->first_lpn + info->page_count));
    t = page_and_time.second;
    std::span<const std::byte> page = page_and_time.first;
    if (info->layout == storage::PageLayout::kNsm) {
      SMARTSSD_ASSIGN_OR_RETURN(const storage::NsmPageReader reader,
                                storage::NsmPageReader::Open(&schema, page));
      existing = reader.tuple_count();
      for (std::uint16_t i = 0; i < reader.tuple_count(); ++i) {
        std::copy_n(reader.tuple(i), schema.tuple_size(), tuple.begin());
        SMARTSSD_RETURN_IF_ERROR(append_serialized());
      }
    } else {
      SMARTSSD_ASSIGN_OR_RETURN(const storage::PaxPageReader reader,
                                storage::PaxPageReader::Open(&schema, page));
      existing = reader.tuple_count();
      for (std::uint16_t i = 0; i < reader.tuple_count(); ++i) {
        expr::PaxRowView view(&schema, &reader, i);
        SerializeRow(schema, view, tuple);
        SMARTSSD_RETURN_IF_ERROR(append_serialized());
      }
    }
  }

  // Append new rows until the page is full or the batch is done. `gen_`
  // sees the global row index, so whole-table generators stay pure.
  std::uint64_t new_rows = 0;
  while (existing + new_rows < capacity && !done()) {
    storage::TupleWriter writer(&schema, tuple);
    gen_(info->tuple_count + new_rows, writer);
    SMARTSSD_RETURN_IF_ERROR(append_serialized());
    ++new_rows;
    ++stats_.rows_appended;
  }
  SMARTSSD_CHECK_GT(new_rows, 0ULL);

  const std::uint64_t cycles = existing * kCyclesPerTuple +
                               new_rows * kCyclesPerUpdatedTuple;
  t = db_->host().Execute(cycles, t);

  const auto image = info->layout == storage::PageLayout::kNsm
                         ? nsm.image()
                         : pax.image();
  SMARTSSD_ASSIGN_OR_RETURN(t, pool.WritePage(lpn, image, t));
  ++stats_.pages_dirtied;
  info->tuple_count += new_rows;
  if (new_page) ++info->page_count;

  if (widen_zone_map_) {
    SMARTSSD_RETURN_IF_ERROR(db_->WidenZoneMap(table_, page_index, image));
  } else {
    db_->MarkZoneMapStale(table_);
  }
  stats_.end = t;
  return t;
}

}  // namespace smartssd::engine
