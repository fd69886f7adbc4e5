#ifndef PERFBENCH_TABLE_HASH_H_
#define PERFBENCH_TABLE_HASH_H_

#include <cstdint>
#include <vector>

#include "common/value.h"
#include "storage/column_vector.h"

namespace perfbench {

/// Hash of one row's canonical text. Doubles are rounded to 9
/// significant digits, so a change of summation order that moves only
/// the last bits of an aggregate keeps the hash.
uint64_t RowHash(const std::vector<hana::Value>& row);

/// Order-insensitive hash of a result: the wrapping sum of its row
/// hashes.
uint64_t TableHash(const hana::storage::Table& table);

}  // namespace perfbench

#endif  // PERFBENCH_TABLE_HASH_H_
