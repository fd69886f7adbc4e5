#include "table_hash.h"

#include <cstdio>
#include <string>

namespace perfbench {

uint64_t RowHash(const std::vector<hana::Value>& row) {
  std::string text;
  for (const hana::Value& v : row) {
    if (v.type() == hana::DataType::kDouble) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.9g", v.double_value());
      text += buf;
    } else {
      text += v.ToString();
    }
    text += '\x1f';
  }
  uint64_t h = 1469598103934665603ULL;  // FNV-1a.
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  // Finalize so that the sum over rows mixes all bits.
  h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;
  h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

uint64_t TableHash(const hana::storage::Table& table) {
  uint64_t sum = 0;
  for (const auto& row : table.rows()) sum += RowHash(row);
  return sum;
}

}  // namespace perfbench
