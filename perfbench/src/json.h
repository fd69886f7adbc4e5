#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Builds one JSON object, keys in insertion order. Numbers carry all
/// their digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, Number(value));
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  /// A metric in the result-line form {"value": v, "unit": u}.
  JsonObject& Metric(const std::string& key, double value,
                     const std::string& unit) {
    return Raw(key, JsonObject().Num("value", value).Str("unit", unit).str());
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }

  static std::string Numbers(const std::vector<double>& values) {
    std::string out;
    for (double v : values) out += (out.empty() ? "" : ", ") + Number(v);
    return "[" + out + "]";
  }

  static std::string Strings(const std::vector<std::string>& values) {
    std::string out;
    for (const std::string& v : values) {
      out += (out.empty() ? "" : ", ") + Quote(v);
    }
    return "[" + out + "]";
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (unsigned char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += static_cast<char>(c);
      } else if (c < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += static_cast<char>(c);
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
