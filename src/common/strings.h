#ifndef HANA_COMMON_STRINGS_H_
#define HANA_COMMON_STRINGS_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace hana {

/// ASCII-only case conversion (SQL identifiers/keywords).
std::string ToUpper(const std::string& s);
std::string ToLower(const std::string& s);

/// Strips leading/trailing whitespace.
std::string Trim(const std::string& s);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char sep);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(const std::string& a, const std::string& b);

/// SQL LIKE matching with '%' and '_' wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace hana

#endif  // HANA_COMMON_STRINGS_H_
