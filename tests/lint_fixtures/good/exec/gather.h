// Fixture: executor code that moves rows between chunks cell by cell
// must NOT trip lint rule 13 (AppendRowFrom and AppendFrom are the
// gather, not boxing; a RowCount() call is not Row()).
#ifndef HANA_TESTS_LINT_FIXTURES_GOOD_EXEC_GATHER_H_
#define HANA_TESTS_LINT_FIXTURES_GOOD_EXEC_GATHER_H_

namespace hana::exec {

inline void Gather(const storage::Chunk& in, storage::Chunk* out) {
  for (size_t r = 0; r < in.RowCount(); ++r) out->AppendRowFrom(in, r);
  out->columns[0]->AppendFrom(*in.columns[0], 0);
}

}  // namespace hana::exec

#endif  // HANA_TESTS_LINT_FIXTURES_GOOD_EXEC_GATHER_H_
