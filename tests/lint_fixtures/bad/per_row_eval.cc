// Fixture: a per-row EvalExpr loop over chunk rows outside the
// vectorized evaluator must trip lint rule 12 — chunk columns evaluate
// through EvalExprColumn, whose fallback counts boxed rows.
namespace hana::lintfix {

Status Keys(const plan::BoundExpr& e, const storage::Chunk& chunk,
            std::vector<Value>* out) {
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    HANA_ASSIGN_OR_RETURN(Value v, exec::EvalExpr(e, chunk, r));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace hana::lintfix
