#include "sql/executor.h"

#include "common/key_codec.h"

namespace odh::sql {
namespace {

void Indent(int n, std::string* out) { out->append(n * 2, ' '); }

std::string DescribeSpec(const ScanSpec& spec) {
  if (spec.constraints.empty()) return "full scan";
  std::string out = "constraints on cols [";
  for (size_t i = 0; i < spec.constraints.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(spec.constraints[i].column);
    out += spec.constraints[i].equals.has_value() ? "=" : "~";
  }
  out += "]";
  return out;
}

}  // namespace

// ScanNode -------------------------------------------------------------------

Status ScanNode::Open() {
  ODH_ASSIGN_OR_RETURN(cursor_, provider_->Scan(spec_));
  return Status::OK();
}

Result<bool> ScanNode::Next(Row* row) {
  Row narrow;
  ODH_ASSIGN_OR_RETURN(bool more, cursor_->Next(&narrow));
  if (!more) return false;
  row->assign(total_slots_, Datum::Null());
  for (size_t i = 0; i < narrow.size(); ++i) {
    (*row)[slot_offset_ + i] = std::move(narrow[i]);
  }
  return true;
}

void ScanNode::Describe(int indent, std::string* out) const {
  Indent(indent, out);
  *out += "Scan(" + provider_->name();
  if (alias_ != provider_->name()) *out += " AS " + alias_;
  *out += ", " + DescribeSpec(spec_) + ")\n";
}

// FilterNode -----------------------------------------------------------------

Result<bool> FilterNode::Next(Row* row) {
  while (true) {
    ODH_ASSIGN_OR_RETURN(bool more, child_->Next(row));
    if (!more) return false;
    bool pass = true;
    for (const Expr* pred : predicates_) {
      ODH_ASSIGN_OR_RETURN(bool ok, eval_->EvalPredicate(pred, *row));
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (pass) return true;
  }
}

void FilterNode::Describe(int indent, std::string* out) const {
  Indent(indent, out);
  *out += "Filter(";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i > 0) *out += " AND ";
    *out += predicates_[i]->ToString();
  }
  *out += ")\n";
  child_->Describe(indent + 1, out);
}

// HashJoinNode ---------------------------------------------------------------

std::string HashJoinNode::KeyOfInner(const Row& inner_row) const {
  std::string key;
  KeyEncoder enc(&key);
  for (const JoinKey& k : keys_) enc.AddDatum(inner_row[k.inner_column]);
  return key;
}

std::string HashJoinNode::KeyOfOuter(const Row& combined) const {
  std::string key;
  KeyEncoder enc(&key);
  for (const JoinKey& k : keys_) enc.AddDatum(combined[k.outer_slot]);
  return key;
}

Status HashJoinNode::Open() {
  ODH_RETURN_IF_ERROR(outer_->Open());
  ODH_ASSIGN_OR_RETURN(std::unique_ptr<RowCursor> cursor,
                       inner_->Scan(inner_spec_));
  hash_.clear();
  Row inner_row;
  while (true) {
    ODH_ASSIGN_OR_RETURN(bool more, cursor->Next(&inner_row));
    if (!more) break;
    bool has_null_key = false;
    for (const JoinKey& k : keys_) {
      if (inner_row[k.inner_column].is_null()) {
        has_null_key = true;
        break;
      }
    }
    if (has_null_key) continue;  // NULL keys never join.
    hash_.emplace(KeyOfInner(inner_row), inner_row);
  }
  return Status::OK();
}

Result<bool> HashJoinNode::Next(Row* row) {
  while (true) {
    if (match_pos_ < matches_.size()) {
      *row = pending_outer_;
      const Row& inner_row = *matches_[match_pos_++];
      for (size_t i = 0; i < inner_row.size(); ++i) {
        (*row)[inner_slot_offset_ + i] = inner_row[i];
      }
      return true;
    }
    if (outer_done_) return false;
    ODH_ASSIGN_OR_RETURN(bool more, outer_->Next(&pending_outer_));
    if (!more) {
      outer_done_ = true;
      return false;
    }
    matches_.clear();
    match_pos_ = 0;
    bool has_null_key = false;
    for (const JoinKey& k : keys_) {
      if (pending_outer_[k.outer_slot].is_null()) {
        has_null_key = true;
        break;
      }
    }
    if (!has_null_key) {
      auto [begin, end] = hash_.equal_range(KeyOfOuter(pending_outer_));
      for (auto it = begin; it != end; ++it) matches_.push_back(&it->second);
    }
    if (matches_.empty() && left_outer_) {
      // Emit the outer row with the inner side NULL.
      *row = pending_outer_;
      return true;
    }
  }
}

void HashJoinNode::Describe(int indent, std::string* out) const {
  Indent(indent, out);
  *out += std::string(left_outer_ ? "HashLeftJoin" : "HashJoin") +
          "(build=" + inner_->name() + ", " + DescribeSpec(inner_spec_) +
          ")\n";
  outer_->Describe(indent + 1, out);
}

// IndexJoinNode --------------------------------------------------------------

Status IndexJoinNode::Open() {
  ODH_RETURN_IF_ERROR(outer_->Open());
  have_outer_ = false;
  inner_cursor_.reset();
  return Status::OK();
}

Result<bool> IndexJoinNode::Next(Row* row) {
  while (true) {
    if (have_outer_ && inner_cursor_ != nullptr) {
      Row inner_row;
      ODH_ASSIGN_OR_RETURN(bool more, inner_cursor_->Next(&inner_row));
      if (more) {
        *row = current_outer_;
        for (size_t i = 0; i < inner_row.size(); ++i) {
          (*row)[inner_slot_offset_ + i] = std::move(inner_row[i]);
        }
        return true;
      }
      inner_cursor_.reset();
    }
    ODH_ASSIGN_OR_RETURN(bool more, outer_->Next(&current_outer_));
    if (!more) return false;
    have_outer_ = true;
    // Probe the inner side with equality constraints from this outer row.
    bool has_null_key = false;
    ScanSpec spec = inner_spec_;
    for (const JoinKey& k : keys_) {
      const Datum& v = current_outer_[k.outer_slot];
      if (v.is_null()) {
        has_null_key = true;
        break;
      }
      ColumnConstraint c;
      c.column = k.inner_column;
      c.equals = v;
      spec.constraints.push_back(std::move(c));
    }
    if (has_null_key) continue;
    ODH_ASSIGN_OR_RETURN(inner_cursor_, inner_->Scan(spec));
  }
}

void IndexJoinNode::Describe(int indent, std::string* out) const {
  Indent(indent, out);
  *out += "IndexNestedLoopJoin(probe=" + inner_->name() + " on cols [";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) *out += ",";
    *out += std::to_string(keys_[i].inner_column);
  }
  *out += "], " + DescribeSpec(inner_spec_) + ")\n";
  outer_->Describe(indent + 1, out);
}

}  // namespace odh::sql
