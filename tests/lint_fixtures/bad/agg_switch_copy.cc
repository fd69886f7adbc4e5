// Fixture: an aggregate update switch outside src/plan and src/exec
// must trip lint rule 11 — engines aggregate through exec::AggState and
// exec::AccumulateRow instead of keeping their own copy.
namespace hana::lintfix {

void Update(const plan::BoundExpr& agg, double v, double* sum) {
  switch (agg.agg_kind) {
    case plan::AggKind::kSum:
      *sum += v;
      break;
    default:
      break;
  }
}

}  // namespace hana::lintfix
