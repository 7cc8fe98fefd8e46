#include "sql/session.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <string_view>
#include <utility>

#include "common/key_codec.h"
#include "common/memory.h"
#include "common/types.h"
#include "sql/parser.h"
#include "storage/spill_file.h"

namespace odh::sql {
namespace {

/// Running state of one aggregate function instance within one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_integral = true;
  int64_t isum = 0;
  Datum min;
  Datum max;
};

void AccumulateAgg(const AggregateExpr* agg, const Datum& value,
                   AggState* state) {
  if (agg->star) {  // COUNT(*)
    ++state->count;
    return;
  }
  if (value.is_null()) return;
  ++state->count;
  switch (agg->func) {
    case AggregateFunc::kCount:
      break;
    case AggregateFunc::kSum:
    case AggregateFunc::kAvg:
      if (value.is_int64()) {
        state->isum += value.int64_value();
      } else {
        state->sum_is_integral = false;
      }
      state->sum += value.AsDouble();
      break;
    case AggregateFunc::kMin:
    case AggregateFunc::kMax: {
      int cmp;
      bool null_result;
      Datum& slot = agg->func == AggregateFunc::kMin ? state->min
                                                     : state->max;
      if (slot.is_null()) {
        slot = value;
      } else if (value.Compare(slot, &cmp, &null_result) && !null_result) {
        bool better = agg->func == AggregateFunc::kMin ? cmp < 0 : cmp > 0;
        if (better) slot = value;
      }
      break;
    }
  }
}

Datum FinalizeAgg(const AggregateExpr* agg, const AggState& state) {
  switch (agg->func) {
    case AggregateFunc::kCount:
      return Datum::Int64(state.count);
    case AggregateFunc::kSum:
      if (state.count == 0) return Datum::Null();
      return state.sum_is_integral ? Datum::Int64(state.isum)
                                   : Datum::Double(state.sum);
    case AggregateFunc::kAvg:
      if (state.count == 0) return Datum::Null();
      return Datum::Double(state.sum / static_cast<double>(state.count));
    case AggregateFunc::kMin:
      return state.min;
    case AggregateFunc::kMax:
      return state.max;
  }
  return Datum::Null();
}

void CollectAggregates(const Expr* expr,
                       std::vector<const AggregateExpr*>* out) {
  switch (expr->kind()) {
    case ExprKind::kAggregate:
      out->push_back(static_cast<const AggregateExpr*>(expr));
      return;
    case ExprKind::kBinary: {
      const auto* bin = static_cast<const BinaryExpr*>(expr);
      CollectAggregates(bin->left.get(), out);
      CollectAggregates(bin->right.get(), out);
      return;
    }
    case ExprKind::kNot:
      CollectAggregates(static_cast<const NotExpr*>(expr)->operand.get(),
                        out);
      return;
    default:
      return;
  }
}

/// Coerces a literal/parameter value toward a column type during INSERT.
Result<Datum> CoerceForColumn(const Datum& value, DataType type) {
  if (value.is_null()) return value;
  switch (type) {
    case DataType::kTimestamp:
      if (value.is_timestamp()) return value;
      if (value.is_int64()) return Datum::Time(value.int64_value());
      if (value.is_string()) {
        Timestamp ts;
        if (ParseTimestamp(value.string_value(), &ts)) return Datum::Time(ts);
        return Status::InvalidArgument("bad timestamp literal: " +
                                       value.string_value());
      }
      break;
    case DataType::kDouble:
      if (value.is_double()) return value;
      if (value.is_int64()) return Datum::Double(value.AsDouble());
      break;
    case DataType::kInt64:
      if (value.is_int64()) return value;
      break;
    case DataType::kBool:
      if (value.is_bool()) return value;
      break;
    case DataType::kString:
      if (value.is_string()) return value;
      break;
    case DataType::kNull:
      break;
  }
  return Status::InvalidArgument("cannot coerce " + value.ToString() +
                                 " to " + DataTypeName(type));
}

/// Builds the budget-governed sorter every ORDER BY runs through. The
/// spill prefix embeds a process-unique query id so concurrent queries
/// never collide on run-file names.
std::unique_ptr<ExternalSorter> MakeSorter(SqlEngine* engine,
                                           const BoundSelect& bound,
                                           common::MemoryTracker* mem,
                                           common::Arena* arena) {
  ExternalSorter::Options opts;
  opts.ascending.reserve(bound.order_by.size());
  for (const auto& item : bound.order_by) {
    opts.ascending.push_back(item.ascending);
  }
  opts.limit = bound.limit;
  opts.memory = mem;
  opts.arena = arena;
  opts.spill_disk = engine->spill_disk();
  opts.spill_name_prefix = std::string(storage::kSpillFilePrefix) + "q" +
                           std::to_string(engine->NextQueryId()) + "$";
  return std::make_unique<ExternalSorter>(std::move(opts));
}

/// Case-insensitively consumes one leading keyword (plus the whitespace
/// around it) from *sv; false leaves *sv untouched. EXPLAIN/PROFILE are
/// session-level prefixes, not grammar keywords, so they are peeled off
/// before the parser sees the statement.
bool ConsumeKeyword(std::string_view* sv, std::string_view keyword) {
  size_t i = 0;
  while (i < sv->size() &&
         std::isspace(static_cast<unsigned char>((*sv)[i]))) {
    ++i;
  }
  if (sv->size() - i < keyword.size()) return false;
  for (size_t j = 0; j < keyword.size(); ++j) {
    if (std::toupper(static_cast<unsigned char>((*sv)[i + j])) !=
        keyword[j]) {
      return false;
    }
  }
  const size_t end = i + keyword.size();
  if (end < sv->size() &&
      !std::isspace(static_cast<unsigned char>((*sv)[end]))) {
    return false;
  }
  *sv = sv->substr(end);
  return true;
}

/// Renders a finished statement's profile as metric/value rows — the
/// result shape of `EXPLAIN PROFILE <stmt>`.
QueryResult ProfileToResult(QueryResult inner) {
  const QueryProfile& p = inner.profile;
  QueryResult out;
  out.columns = {"metric", "value"};
  auto add = [&out](const char* name, Datum v) {
    out.rows.push_back({Datum::String(name), std::move(v)});
  };
  add("path", Datum::String(p.path));
  add("rows_returned", Datum::Int64(p.rows_returned));
  add("rows_scanned", Datum::Int64(p.rows_scanned));
  add("batches", Datum::Int64(p.batches));
  add("blobs_decoded", Datum::Int64(p.blobs_decoded));
  add("blobs_pruned", Datum::Int64(p.blobs_pruned));
  add("blobs_skipped_by_summary", Datum::Int64(p.blobs_skipped_by_summary));
  add("blob_bytes_read", Datum::Int64(p.blob_bytes_read));
  add("blob_bytes_skipped", Datum::Int64(p.blob_bytes_skipped));
  add("segments_pruned", Datum::Int64(p.segments_pruned));
  add("segments_scanned_parallel", Datum::Int64(p.segments_scanned_parallel));
  add("blob_cache_hits", Datum::Int64(p.blob_cache_hits));
  add("mem_peak_bytes", Datum::Int64(p.mem_peak_bytes));
  add("spill_runs", Datum::Int64(p.spill_runs));
  add("spill_bytes", Datum::Int64(p.spill_bytes));
  add("plan_micros", Datum::Double(p.plan_micros));
  add("total_micros", Datum::Double(p.total_micros));
  // Replica-only rows: a primary's profile carries the -1 sentinel and
  // keeps the 17-row shape.
  if (p.repl_lag_bytes >= 0) {
    add("repl_lag_bytes", Datum::Int64(p.repl_lag_bytes));
    add("repl_staleness_micros", Datum::Int64(p.repl_staleness_micros));
  }
  out.explain = std::move(inner.explain);
  out.profile = std::move(inner.profile);
  return out;
}

Status CheckParamCount(const PreparedStatement& stmt,
                       const std::vector<Datum>& params) {
  if (static_cast<int>(params.size()) != stmt.param_count()) {
    return Status::InvalidArgument(
        "statement expects " + std::to_string(stmt.param_count()) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  return Status::OK();
}

}  // namespace

// PreparedStatement ----------------------------------------------------------

const std::vector<std::string>& PreparedStatement::columns() const {
  static const std::vector<std::string> kNoColumns;
  return bound_ != nullptr ? bound_->output_names : kNoColumns;
}

// QueryStream ----------------------------------------------------------------

QueryStream::QueryStream(SqlEngine* engine,
                         std::shared_ptr<const PreparedStatement> stmt,
                         const std::vector<Datum>& params,
                         SessionStats* stats)
    : engine_(engine),
      stmt_(std::move(stmt)),
      params_(params),
      eval_(stmt_ != nullptr && stmt_->bound_ != nullptr
                ? stmt_->bound_.get()
                : nullptr,
            &params_),
      stats_(stats) {}

QueryStream::~QueryStream() {
  // An abandoned stream still logs what it did (rows emitted so far);
  // errors were already accounted by Poison.
  if (state_ == State::kStreaming || state_ == State::kBuffered) Finish();
  // Init failures leave state_ == kDone with partial state; idempotent.
  ReleaseBufferedState();
}

Status QueryStream::Poison(Status status) {
  state_ = State::kError;
  finished_ = true;  // Errors are not logged, matching one-shot behavior.
  ReleaseBufferedState();  // A poisoned cursor holds no memory or spill files.
  poison_ = std::move(status);
  return poison_;
}

Status QueryStream::ReserveBufferedRow(const Row& row) {
  if (mem_ == nullptr) return Status::OK();
  const int64_t bytes = common::ApproxRowBytes(row);
  ODH_RETURN_IF_ERROR(mem_->TryReserve(bytes));
  buffered_bytes_ += bytes;
  return Status::OK();
}

void QueryStream::ReleaseBufferedState() {
  if (sorter_ != nullptr) {
    spill_runs_ = sorter_->spill_runs();
    spill_bytes_ = sorter_->spill_bytes();
    sorter_.reset();  // Releases its working set and deletes spill files.
  }
  buffered_.clear();
  if (mem_ != nullptr && buffered_bytes_ > 0) mem_->Release(buffered_bytes_);
  buffered_bytes_ = 0;
  // Spill I/O buffers go after the sorter whose readers pointed into them.
  if (arena_ != nullptr) arena_->Reset();
}

Status QueryStream::Init(double prior_micros, bool prepared) {
  const BoundSelect& bound = *stmt_->bound_;
  profile_.statement = stmt_->sql();
  profile_.prepared = prepared;
  columns_ = bound.output_names;

  Stopwatch plan_timer;
  ODH_ASSIGN_OR_RETURN(plan_, PlanSelect(bound, &eval_, &counters_));
  profile_.plan_micros =
      prior_micros + static_cast<double>(plan_timer.ElapsedMicros());
  explain_ = plan_.explain;

  // Aggregate pushdown: offer the whole aggregate to the provider before
  // opening the row plan (opening a scan already fetches and decodes
  // blobs) — it may answer from per-blob summaries without touching the
  // data. Whatever it declines folds over the scanned rows in RunBuffered,
  // which stays the single source of truth for semantics.
  if (plan_.agg_provider != nullptr) {
    std::optional<Row> agg_row;
    ODH_ASSIGN_OR_RETURN(
        agg_row, plan_.agg_provider->AggregateScan(plan_.agg_spec,
                                                   plan_.agg_requests));
    if (agg_row.has_value()) {
      profile_.path = "summary-pushdown";
      std::map<const Expr*, Datum> agg_values;
      for (size_t i = 0; i < plan_.agg_exprs.size(); ++i) {
        agg_values[plan_.agg_exprs[i]] = (*agg_row)[i];
      }
      Row representative(bound.total_slots, Datum::Null());
      Row out_row;
      for (const ExprPtr& e : bound.output) {
        ODH_ASSIGN_OR_RETURN(
            Datum v, eval_.Eval(e.get(), representative, &agg_values));
        out_row.push_back(std::move(v));
      }
      if (bound.limit != 0) {
        ODH_RETURN_IF_ERROR(ReserveBufferedRow(out_row));
        buffered_.push_back(std::move(out_row));
      }
      state_ = State::kBuffered;
      return Status::OK();
    }
  }

  ODH_RETURN_IF_ERROR(plan_.root->Open());

  if (!bound.has_aggregates && bound.order_by.empty()) {
    // Pure streaming: rows are projected one at a time in Next and never
    // collected — this is the path that keeps large range scans flat.
    state_ = State::kStreaming;
    return Status::OK();
  }
  ODH_RETURN_IF_ERROR(RunBuffered());
  state_ = State::kBuffered;
  return Status::OK();
}

Status QueryStream::RunBuffered() {
  const BoundSelect& bound = *stmt_->bound_;

  if (!bound.has_aggregates) {
    // ORDER BY (without aggregation): drain into the budget-governed
    // sorter — a bounded top-N heap under a LIMIT, spilling sorted runs
    // to disk when the working set outgrows the query budget otherwise.
    // Emission happens lazily from the sorter in Next.
    sorter_ = MakeSorter(engine_, bound, mem_.get(), arena_.get());
    Row combined;
    while (true) {
      ODH_ASSIGN_OR_RETURN(bool more, plan_.root->Next(&combined));
      if (!more) break;
      Row out_row;
      out_row.reserve(bound.output.size());
      for (const ExprPtr& e : bound.output) {
        ODH_ASSIGN_OR_RETURN(Datum v, eval_.Eval(e.get(), combined));
        out_row.push_back(std::move(v));
      }
      std::vector<Datum> keys;
      for (const auto& item : bound.order_by) {
        if (item.output_ordinal >= 0) {
          keys.push_back(out_row[item.output_ordinal]);
        } else {
          ODH_ASSIGN_OR_RETURN(Datum k,
                               eval_.Eval(item.expr.get(), combined));
          keys.push_back(std::move(k));
        }
      }
      ODH_RETURN_IF_ERROR(sorter_->Add(std::move(keys), std::move(out_row)));
    }
    return sorter_->Finish();
  }

  // Aggregation path.
  std::vector<const AggregateExpr*> agg_exprs;
  for (const ExprPtr& e : bound.output) CollectAggregates(e.get(), &agg_exprs);
  for (const auto& item : bound.order_by) {
    if (item.expr != nullptr) CollectAggregates(item.expr.get(), &agg_exprs);
  }

  struct Group {
    Row representative;  // First combined row of the group.
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups;
  // Grouped state is charged per distinct group and released wholesale
  // when this function returns — by then the output rows carry their own
  // accounting (buffered_ or the sorter). Aggregation cannot spill, so an
  // over-budget GROUP BY fails fast here.
  common::ScopedReservation group_reserved(mem_.get());
  auto reserve_group = [&](const std::string& key, const Group& group) {
    return group_reserved.Reserve(
        static_cast<int64_t>(sizeof(Group)) +
        static_cast<int64_t>(key.capacity()) +
        common::ApproxRowBytes(group.representative) +
        static_cast<int64_t>(group.states.size() * sizeof(AggState)));
  };

  Row combined;
  while (true) {
    ODH_ASSIGN_OR_RETURN(bool more, plan_.root->Next(&combined));
    if (!more) break;
    std::vector<Datum> group_key;
    for (const ExprPtr& g : bound.group_by) {
      ODH_ASSIGN_OR_RETURN(Datum v, eval_.Eval(g.get(), combined));
      group_key.push_back(std::move(v));
    }
    std::string key = EncodeKey(group_key);
    auto [it, inserted] = groups.try_emplace(key);
    Group& group = it->second;
    if (inserted) {
      group.representative = combined;
      group.states.resize(agg_exprs.size());
      ODH_RETURN_IF_ERROR(reserve_group(it->first, group));
    }
    for (size_t i = 0; i < agg_exprs.size(); ++i) {
      Datum arg;
      if (!agg_exprs[i]->star) {
        ODH_ASSIGN_OR_RETURN(arg,
                             eval_.Eval(agg_exprs[i]->arg.get(), combined));
      }
      AccumulateAgg(agg_exprs[i], arg, &group.states[i]);
    }
  }
  // A global aggregate over zero rows still yields one group.
  if (groups.empty() && bound.group_by.empty()) {
    Group& group = groups[""];
    group.representative.assign(bound.total_slots, Datum::Null());
    group.states.resize(agg_exprs.size());
    ODH_RETURN_IF_ERROR(reserve_group("", group));
  }

  if (!bound.order_by.empty()) {
    sorter_ = MakeSorter(engine_, bound, mem_.get(), arena_.get());
  }
  for (auto& [key, group] : groups) {
    // Aggregate output is unordered: with no ORDER BY, a LIMIT bounds
    // materialization at the source rather than trimming afterwards.
    if (sorter_ == nullptr && bound.limit >= 0 &&
        static_cast<int64_t>(buffered_.size()) >= bound.limit) {
      break;
    }
    std::map<const Expr*, Datum> agg_values;
    for (size_t i = 0; i < agg_exprs.size(); ++i) {
      agg_values[agg_exprs[i]] = FinalizeAgg(agg_exprs[i], group.states[i]);
    }
    Row out_row;
    for (const ExprPtr& e : bound.output) {
      ODH_ASSIGN_OR_RETURN(
          Datum v, eval_.Eval(e.get(), group.representative, &agg_values));
      out_row.push_back(std::move(v));
    }
    if (sorter_ == nullptr) {
      ODH_RETURN_IF_ERROR(ReserveBufferedRow(out_row));
      buffered_.push_back(std::move(out_row));
    } else {
      std::vector<Datum> keys;
      for (const auto& item : bound.order_by) {
        if (item.output_ordinal >= 0) {
          keys.push_back(out_row[item.output_ordinal]);
        } else {
          ODH_ASSIGN_OR_RETURN(
              Datum k, eval_.Eval(item.expr.get(), group.representative,
                                  &agg_values));
          keys.push_back(std::move(k));
        }
      }
      ODH_RETURN_IF_ERROR(sorter_->Add(std::move(keys), std::move(out_row)));
    }
  }
  if (sorter_ != nullptr) ODH_RETURN_IF_ERROR(sorter_->Finish());
  return Status::OK();
}

Result<bool> QueryStream::NextStreaming(Row* row) {
  const BoundSelect& bound = *stmt_->bound_;
  if (bound.limit >= 0 && emitted_ >= bound.limit) return false;
  ODH_ASSIGN_OR_RETURN(bool more, plan_.root->Next(&scan_row_));
  if (!more) return false;
  row->clear();
  row->reserve(bound.output.size());
  for (const ExprPtr& e : bound.output) {
    ODH_ASSIGN_OR_RETURN(Datum v, eval_.Eval(e.get(), scan_row_));
    row->push_back(std::move(v));
  }
  return true;
}

Result<bool> QueryStream::Next(Row* row) {
  switch (state_) {
    case State::kError:
      return poison_;
    case State::kDone:
      return false;
    case State::kStreaming: {
      Result<bool> more = NextStreaming(row);
      if (!more.ok()) return Poison(more.status());
      if (!more.value()) {
        state_ = State::kDone;
        Finish();
        return false;
      }
      break;
    }
    case State::kBuffered: {
      if (sorter_ != nullptr) {
        // Spilled sorts read run pages lazily, so a disk fault surfaces
        // here — mid-stream, with the cursor held — and poisons it.
        Result<bool> more = sorter_->Next(row);
        if (!more.ok()) return Poison(more.status());
        if (!more.value()) {
          state_ = State::kDone;
          Finish();
          return false;
        }
        break;
      }
      if (buffered_.empty()) {
        state_ = State::kDone;
        Finish();
        return false;
      }
      // Emitted rows release their reservation as they leave the buffer.
      if (mem_ != nullptr && buffered_bytes_ > 0) {
        int64_t bytes = common::ApproxRowBytes(buffered_.front());
        if (bytes > buffered_bytes_) bytes = buffered_bytes_;
        mem_->Release(bytes);
        buffered_bytes_ -= bytes;
      }
      *row = std::move(buffered_.front());
      buffered_.pop_front();
      break;
    }
  }
  ++emitted_;
  if (stats_ != nullptr) ++stats_->rows_streamed;
  return true;
}

void QueryStream::Finish() {
  if (finished_) return;
  finished_ = true;
  // Eager release first (harvests spill stats): a drained or abandoned
  // stream returns its memory and deletes its spill files immediately,
  // not at destruction.
  ReleaseBufferedState();
  profile_.rows_returned = emitted_;
  profile_.rows_scanned =
      counters_.rows_scanned.load(std::memory_order_relaxed);
  profile_.batches = counters_.batches.load(std::memory_order_relaxed);
  profile_.blobs_decoded =
      counters_.blobs_decoded.load(std::memory_order_relaxed);
  profile_.blobs_pruned =
      counters_.blobs_pruned.load(std::memory_order_relaxed);
  profile_.blobs_skipped_by_summary =
      counters_.blobs_skipped_by_summary.load(std::memory_order_relaxed);
  profile_.blob_bytes_read =
      counters_.blob_bytes_read.load(std::memory_order_relaxed);
  profile_.blob_bytes_skipped =
      counters_.blob_bytes_skipped.load(std::memory_order_relaxed);
  profile_.segments_pruned =
      counters_.segments_pruned.load(std::memory_order_relaxed);
  profile_.segments_scanned_parallel =
      counters_.segments_scanned_parallel.load(std::memory_order_relaxed);
  profile_.blob_cache_hits =
      counters_.blob_cache_hits.load(std::memory_order_relaxed);
  profile_.mem_peak_bytes = mem_ != nullptr ? mem_->peak() : 0;
  profile_.spill_runs = spill_runs_;
  profile_.spill_bytes = spill_bytes_;
  profile_.total_micros = static_cast<double>(timer_.ElapsedMicros());
  const SqlEngine::ReplicationInfo repl = engine_->replication_info();
  if (repl.is_replica) {
    profile_.repl_lag_bytes = repl.lag_bytes;
    profile_.repl_staleness_micros = repl.staleness_micros;
  }
  // The executed-path label comes from runtime evidence, not the plan:
  // Init stamps the summary pushdown; otherwise batches flowing through
  // a scan show a virtual table was read.
  if (profile_.path.empty()) {
    profile_.path = profile_.batches > 0 ? "vectorized-batch" : "row-scan";
  }
  explain_ += "path: " + profile_.path + "\n";
  engine_->LogQuery(profile_);
}

// Session --------------------------------------------------------------------

Result<std::shared_ptr<const PreparedStatement>> Session::PrepareInternal(
    const std::string& sql) {
  ODH_ASSIGN_OR_RETURN(Statement parsed, Parse(sql));
  auto stmt = std::shared_ptr<PreparedStatement>(new PreparedStatement());
  stmt->sql_ = sql;
  stmt->kind_ = parsed.kind;
  stmt->param_count_ = parsed.param_count;
  switch (parsed.kind) {
    case Statement::Kind::kSelect: {
      ODH_ASSIGN_OR_RETURN(BoundSelect bound,
                           Bind(engine_->catalog(), std::move(*parsed.select)));
      stmt->bound_ = std::make_unique<BoundSelect>(std::move(bound));
      break;
    }
    case Statement::Kind::kInsert:
      stmt->insert_ = std::move(parsed.insert);
      break;
    case Statement::Kind::kCreateTable:
      stmt->create_table_ = std::move(parsed.create_table);
      break;
    case Statement::Kind::kCreateIndex:
      stmt->create_index_ = std::move(parsed.create_index);
      break;
    case Statement::Kind::kAlterRetention:
      stmt->alter_retention_ = std::move(parsed.alter_retention);
      break;
  }
  return std::shared_ptr<const PreparedStatement>(std::move(stmt));
}

void Session::TouchCacheEntry(CacheEntry* entry) {
  // O(1) promotion to most-recently-used; the iterator stays valid.
  cache_order_.splice(cache_order_.end(), cache_order_, entry->order_pos);
}

Result<std::shared_ptr<const PreparedStatement>> Session::Prepare(
    const std::string& sql) {
  ++stats_.prepares;
  auto it = cache_.find(sql);
  if (it != cache_.end()) {
    ++stats_.prepare_cache_hits;
    TouchCacheEntry(&it->second);
    return it->second.stmt;
  }
  std::string_view body(sql);
  if (ConsumeKeyword(&body, "EXPLAIN")) {
    return Status::InvalidArgument(
        "EXPLAIN statements cannot be prepared; use Execute");
  }
  ODH_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedStatement> stmt,
                       PrepareInternal(sql));
  auto pos = cache_order_.insert(cache_order_.end(), sql);
  cache_[sql] = CacheEntry{stmt, pos};
  while (cache_.size() > kPreparedCacheCapacity) {
    // Least recently used first; in-flight handles stay valid through
    // their shared_ptr.
    cache_.erase(cache_order_.front());
    cache_order_.pop_front();
  }
  return stmt;
}

Result<std::unique_ptr<QueryStream>> Session::StartStream(
    std::shared_ptr<const PreparedStatement> stmt,
    const std::vector<Datum>& params, double prior_micros, bool prepared) {
  ODH_RETURN_IF_ERROR(CheckParamCount(*stmt, params));
  std::unique_ptr<QueryStream> stream(
      new QueryStream(engine_, std::move(stmt), params, &stats_));
  // Every real query gets its own tracker (child of the session's) and a
  // query-lifetime arena for spill I/O buffers. A budget of 0 tracks
  // without refusing, so peak memory is observable even ungoverned.
  stream->mem_ = std::make_unique<common::MemoryTracker>(
      "query", engine_->memory_budgets().query_bytes, mem_.get());
  stream->arena_ = std::make_unique<common::Arena>(stream->mem_.get());
  // Buffered-path budget errors surface here, before any cursor exists;
  // the stream's destructor has already released everything it charged.
  ODH_RETURN_IF_ERROR(stream->Init(prior_micros, prepared));
  return stream;
}

std::unique_ptr<QueryStream> Session::StreamFromResult(QueryResult result) {
  std::unique_ptr<QueryStream> stream(
      new QueryStream(engine_, nullptr, {}, &stats_));
  stream->columns_ = std::move(result.columns);
  stream->explain_ = std::move(result.explain);
  stream->profile_ = std::move(result.profile);
  stream->affected_rows_ = result.affected_rows;
  for (Row& row : result.rows) stream->buffered_.push_back(std::move(row));
  stream->state_ = QueryStream::State::kBuffered;
  stream->finished_ = true;  // Already executed (and logged, if a SELECT).
  return stream;
}

Result<QueryResult> Session::Materialize(std::unique_ptr<QueryStream> stream) {
  QueryResult result;
  result.columns = stream->columns();
  // Rows accumulating for the caller are charged to the SESSION tracker
  // (not the query's): the query budget governs the execution working
  // set — which spilling can keep bounded — while the materialized result
  // is session state whose size the query cannot reduce. The reservation
  // is returned when the result is handed out.
  common::ScopedReservation reserved(mem_.get());
  Row row;
  while (true) {
    ODH_ASSIGN_OR_RETURN(bool more, stream->Next(&row));
    if (!more) break;
    Status st = reserved.Reserve(common::ApproxRowBytes(row));
    if (!st.ok()) return stream->Poison(std::move(st));
    result.rows.push_back(std::move(row));
  }
  result.affected_rows = stream->affected_rows();
  result.explain = stream->explain();
  result.profile = stream->profile();
  return result;
}

Result<QueryResult> Session::Execute(const std::string& sql,
                                     const std::vector<Datum>& params) {
  std::string_view body(sql);
  if (ConsumeKeyword(&body, "EXPLAIN") && ConsumeKeyword(&body, "PROFILE")) {
    const std::string inner_sql(body);
    Stopwatch prep_timer;
    ODH_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedStatement> stmt,
                         PrepareInternal(inner_sql));
    if (!stmt->is_select()) {
      return Status::InvalidArgument("EXPLAIN PROFILE supports SELECT only");
    }
    const double prep_micros = static_cast<double>(prep_timer.ElapsedMicros());
    ++stats_.statements_executed;
    ODH_ASSIGN_OR_RETURN(
        std::unique_ptr<QueryStream> stream,
        StartStream(std::move(stmt), params, prep_micros, /*prepared=*/false));
    ODH_ASSIGN_OR_RETURN(QueryResult inner, Materialize(std::move(stream)));
    return ProfileToResult(std::move(inner));
  }

  Stopwatch prep_timer;
  ODH_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedStatement> stmt,
                       PrepareInternal(sql));
  const double prep_micros = static_cast<double>(prep_timer.ElapsedMicros());
  ++stats_.statements_executed;
  if (!stmt->is_select()) return ExecuteNonSelect(*stmt, params);
  ODH_ASSIGN_OR_RETURN(
      std::unique_ptr<QueryStream> stream,
      StartStream(std::move(stmt), params, prep_micros, /*prepared=*/false));
  return Materialize(std::move(stream));
}

Result<QueryResult> Session::ExecutePrepared(
    const std::shared_ptr<const PreparedStatement>& stmt,
    const std::vector<Datum>& params) {
  if (stmt == nullptr) return Status::InvalidArgument("null statement");
  ++stats_.statements_executed;
  // Re-execution is a cache touch: a handle in steady use must not be
  // the one evicted when the cache fills with one-off statements.
  auto it = cache_.find(stmt->sql());
  if (it != cache_.end() && it->second.stmt == stmt) {
    TouchCacheEntry(&it->second);
  }
  if (!stmt->is_select()) return ExecuteNonSelect(*stmt, params);
  ODH_ASSIGN_OR_RETURN(
      std::unique_ptr<QueryStream> stream,
      StartStream(stmt, params, /*prior_micros=*/0, /*prepared=*/true));
  return Materialize(std::move(stream));
}

Result<std::unique_ptr<QueryStream>> Session::ExecuteStreaming(
    const std::string& sql, const std::vector<Datum>& params) {
  std::string_view body(sql);
  if (ConsumeKeyword(&body, "EXPLAIN")) {
    // EXPLAIN PROFILE materializes by nature; wrap it for uniformity.
    ODH_ASSIGN_OR_RETURN(QueryResult result, Execute(sql, params));
    return StreamFromResult(std::move(result));
  }
  Stopwatch prep_timer;
  ODH_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedStatement> stmt,
                       PrepareInternal(sql));
  const double prep_micros = static_cast<double>(prep_timer.ElapsedMicros());
  ++stats_.statements_executed;
  if (!stmt->is_select()) {
    ODH_ASSIGN_OR_RETURN(QueryResult result, ExecuteNonSelect(*stmt, params));
    return StreamFromResult(std::move(result));
  }
  return StartStream(std::move(stmt), params, prep_micros,
                     /*prepared=*/false);
}

Result<std::unique_ptr<QueryStream>> Session::ExecuteStreamingPrepared(
    const std::shared_ptr<const PreparedStatement>& stmt,
    const std::vector<Datum>& params) {
  if (stmt == nullptr) return Status::InvalidArgument("null statement");
  ++stats_.statements_executed;
  auto it = cache_.find(stmt->sql());
  if (it != cache_.end() && it->second.stmt == stmt) {
    TouchCacheEntry(&it->second);
  }
  if (!stmt->is_select()) {
    ODH_ASSIGN_OR_RETURN(QueryResult result, ExecuteNonSelect(*stmt, params));
    return StreamFromResult(std::move(result));
  }
  return StartStream(stmt, params, /*prior_micros=*/0, /*prepared=*/true);
}

Result<QueryResult> Session::ExecuteNonSelect(
    const PreparedStatement& stmt, const std::vector<Datum>& params) {
  if (read_only_) {
    return Status::FailedPrecondition(
        "statement mutates data but this session is read-only (served by a "
        "replica; send writes to the primary)");
  }
  ODH_RETURN_IF_ERROR(CheckParamCount(stmt, params));
  // Mutating statements serialize across sessions; the storage layer
  // already supports concurrent readers against committed state.
  std::lock_guard<std::mutex> lock(*engine_->write_mutex());
  switch (stmt.kind_) {
    case Statement::Kind::kInsert:
      return ExecuteInsert(*stmt.insert_, params);
    case Statement::Kind::kCreateTable: {
      ODH_RETURN_IF_ERROR(engine_->catalog()
                              ->database()
                              ->CreateTable(stmt.create_table_->table,
                                            relational::Schema(
                                                stmt.create_table_->columns))
                              .status());
      return QueryResult{};
    }
    case Statement::Kind::kCreateIndex: {
      const CreateIndexStmt& ci = *stmt.create_index_;
      ODH_ASSIGN_OR_RETURN(relational::Table* table,
                           engine_->catalog()->database()->GetTable(ci.table));
      relational::IndexDef def;
      def.name = ci.index;
      for (const std::string& name : ci.columns) {
        int pos = table->schema().FindColumn(name);
        if (pos < 0) {
          return Status::InvalidArgument("unknown column: " + name);
        }
        def.columns.push_back(pos);
      }
      ODH_RETURN_IF_ERROR(table->AddIndex(def));
      return QueryResult{};
    }
    case Statement::Kind::kAlterRetention: {
      const auto& handler = engine_->retention_handler();
      if (handler == nullptr) {
        return Status::Unimplemented(
            "no retention handler registered for ALTER TABLE ... RETENTION");
      }
      ODH_RETURN_IF_ERROR(handler(stmt.alter_retention_->table,
                                  stmt.alter_retention_->retention_micros));
      return QueryResult{};
    }
    case Statement::Kind::kSelect:
      break;
  }
  return Status::Internal("unhandled statement kind");
}

Result<QueryResult> Session::ExecuteInsert(const InsertStmt& stmt,
                                           const std::vector<Datum>& params) {
  ODH_ASSIGN_OR_RETURN(relational::Table* table,
                       engine_->catalog()->database()->GetTable(stmt.table));
  const relational::Schema& schema = table->schema();
  // Map statement columns to schema positions.
  std::vector<int> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      positions.push_back(static_cast<int>(i));
    }
  } else {
    for (const std::string& name : stmt.columns) {
      int pos = schema.FindColumn(name);
      if (pos < 0) {
        return Status::InvalidArgument("unknown column: " + name);
      }
      positions.push_back(pos);
    }
  }
  QueryResult result;
  for (const auto& exprs : stmt.rows) {
    if (exprs.size() != positions.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    Row row(schema.num_columns(), Datum::Null());
    for (size_t i = 0; i < exprs.size(); ++i) {
      const Datum* raw = nullptr;
      if (exprs[i]->kind() == ExprKind::kLiteral) {
        raw = &static_cast<const LiteralExpr*>(exprs[i].get())->value;
      } else if (exprs[i]->kind() == ExprKind::kParameter) {
        const auto* param =
            static_cast<const ParameterExpr*>(exprs[i].get());
        if (param->index >= static_cast<int>(params.size())) {
          return Status::InvalidArgument("parameter " +
                                         exprs[i]->ToString() +
                                         " has no bound value");
        }
        raw = &params[param->index];
      } else {
        return Status::InvalidArgument(
            "INSERT values must be literals or parameters: " +
            exprs[i]->ToString());
      }
      ODH_ASSIGN_OR_RETURN(
          row[positions[i]],
          CoerceForColumn(*raw, schema.column(positions[i]).type));
    }
    ODH_RETURN_IF_ERROR(table->Insert(row).status());
    ++result.affected_rows;
  }
  ODH_RETURN_IF_ERROR(table->Commit());
  return result;
}

}  // namespace odh::sql
