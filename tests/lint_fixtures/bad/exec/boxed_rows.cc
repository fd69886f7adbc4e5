// Fixture: an executor breaker that boxes chunk rows into
// std::vector<Value> and appends them back must trip lint rule 13 —
// under src/exec rows move between chunks with AppendFrom.
namespace hana::exec {

storage::Chunk CopyRows(const storage::Chunk& in) {
  storage::Chunk out = storage::Chunk::Empty(in.schema);
  for (size_t r = 0; r < in.num_rows(); ++r) {
    std::vector<Value> row = in.Row(r);
    out.AppendRow(row);
  }
  return out;
}

}  // namespace hana::exec
