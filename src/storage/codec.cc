#include "storage/codec.h"

#include <algorithm>
#include <cstring>

#include "common/cpu_dispatch.h"

namespace hana::storage {

int BitWidth(uint64_t max_value) {
  int bits = 1;
  while (max_value >>= 1) ++bits;
  return bits;
}

std::vector<uint64_t> BitPack(const std::vector<uint32_t>& values,
                              int bit_width) {
  std::vector<uint64_t> words((values.size() * bit_width + 63) / 64, 0);
  BitPackInto(words.data(), bit_width, 0, values.data(), values.size());
  return words;
}

void BitPackInto(uint64_t* words, int bit_width, size_t start_index,
                 const uint32_t* values, size_t count) {
  if (count == 0) return;
  Kernels().bit_pack(words, bit_width, start_index, values, count);
}

uint32_t BitGet(const std::vector<uint64_t>& words, int bit_width, size_t i) {
  size_t bit = i * bit_width;
  size_t word = bit / 64;
  size_t off = bit % 64;
  uint64_t v = words[word] >> off;
  if (off + bit_width > 64) v |= words[word + 1] << (64 - off);
  uint64_t mask = bit_width == 64 ? ~0ULL : ((1ULL << bit_width) - 1);
  return static_cast<uint32_t>(v & mask);
}

std::vector<uint32_t> BitUnpack(const std::vector<uint64_t>& words,
                                int bit_width, size_t count) {
  std::vector<uint32_t> out(count);
  BitUnpackInto(words.data(), words.size(), bit_width, 0, count, out.data());
  return out;
}

void BitUnpackInto(const uint64_t* words, size_t num_words, int bit_width,
                   size_t start_index, size_t count, uint32_t* out) {
  if (count == 0) return;
  Kernels().bit_unpack(words, num_words, bit_width, start_index, count, out);
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void VarintAppend(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

namespace {

/// VarintRead without the Result wrapper, for the per-value decode loops.
inline bool ReadVarint(std::span<const uint8_t> data, size_t* pos,
                       uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < data.size()) {
    uint8_t byte = data[(*pos)++];
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) {
      *out = v;
      return true;
    }
    shift += 7;
    if (shift >= 64) break;
  }
  return false;
}

/// Expands the (value, run) pairs of an RLE body that claims `count`
/// values, starting at *pos, through emit(value, run).
template <typename Emit>
Status ForEachRun(std::span<const uint8_t> data, size_t* pos, uint64_t count,
                  Emit emit) {
  uint64_t filled = 0;
  while (filled < count) {
    uint64_t enc = 0, run = 0;
    if (!ReadVarint(data, pos, &enc) || !ReadVarint(data, pos, &run)) {
      return Status::IoError("corrupt varint");
    }
    // Subtract-form check: filled + run must not overflow past count.
    if (run > count - filled) return Status::IoError("corrupt RLE run");
    emit(ZigZagDecode(enc), run);
    filled += run;
  }
  return Status::OK();
}

/// Decodes the `count` values of a FOR body (after its count header, at
/// `pos`) into out[0..count).
Status ForBodyInto(std::span<const uint8_t> data, size_t pos, uint64_t count,
                   int64_t* out) {
  if (count == 0) return Status::OK();
  uint64_t min_enc = 0, width_u = 0;
  if (!ReadVarint(data, &pos, &min_enc) || !ReadVarint(data, &pos, &width_u)) {
    return Status::IoError("corrupt varint");
  }
  int64_t min = ZigZagDecode(min_enc);
  if (width_u < 1 || width_u > 64) return Status::IoError("corrupt FOR width");
  int width = static_cast<int>(width_u);
  if (width == 64) {
    if ((data.size() - pos) / 8 < count) return Status::IoError("corrupt FOR");
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t u = 0;
      for (int b = 0; b < 8; ++b) {
        u |= static_cast<uint64_t>(data[pos++]) << (b * 8);
      }
      out[i] = static_cast<int64_t>(u);
    }
    return Status::OK();
  }
  // Divide-form bound check: a huge corrupt `count` must not overflow
  // the byte-count multiplication into a passing comparison.
  if (count > (data.size() - pos) * 8 / static_cast<uint64_t>(width)) {
    return Status::IoError("corrupt FOR");
  }
  size_t num_words = (count * width + 63) / 64;
  if (data.size() - pos < num_words * 8) return Status::IoError("corrupt FOR");
  std::vector<uint64_t> words(num_words);
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t u = 0;
    for (int b = 0; b < 8; ++b) u |= static_cast<uint64_t>(data[pos++]) << (b * 8);
    words[w] = u;
  }
  for (uint64_t i = 0; i < count; ++i) {
    out[i] = min + BitGet(words, width, i);
  }
  return Status::OK();
}

/// Decodes the `count` values of a delta body (at `pos`) into out.
Status DeltaBodyInto(std::span<const uint8_t> data, size_t pos,
                     uint64_t count, int64_t* out) {
  int64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t enc = 0;
    if (!ReadVarint(data, &pos, &enc)) return Status::IoError("corrupt varint");
    prev += ZigZagDecode(enc);
    out[i] = prev;
  }
  return Status::OK();
}

/// Decodes the `count` values of a doubles body (at `pos`) into out.
Status DoublesBodyInto(std::span<const uint8_t> data, size_t pos,
                       uint64_t count, double* out) {
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t x = 0;
    if (!ReadVarint(data, &pos, &x)) return Status::IoError("corrupt varint");
    prev ^= x;
    std::memcpy(&out[i], &prev, sizeof(double));
  }
  return Status::OK();
}

/// Decodes the `count` strings of a string body (at `pos`) into out.
Status StringsBodyInto(std::span<const uint8_t> data, size_t pos,
                       uint64_t count, std::string* out) {
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    if (!ReadVarint(data, &pos, &len)) return Status::IoError("corrupt varint");
    if (data.size() - pos < len) return Status::IoError("corrupt string block");
    // lint: reinterpret_cast allowed — uint8_t -> char aliasing of the
    // same byte buffer, which the standard permits.
    out[i].assign(reinterpret_cast<const char*>(data.data()) + pos, len);
    pos += len;
  }
  return Status::OK();
}

/// Reads a block's count header and checks it against `expected`.
Status ExpectCount(std::span<const uint8_t> data, size_t* pos,
                   uint64_t expected) {
  uint64_t count = 0;
  if (!ReadVarint(data, pos, &count)) return Status::IoError("corrupt varint");
  if (count != expected) {
    return Status::IoError("block holds " + std::to_string(count) +
                           " values, expected " + std::to_string(expected));
  }
  return Status::OK();
}

}  // namespace

Result<uint64_t> VarintRead(std::span<const uint8_t> data, size_t* pos) {
  uint64_t v = 0;
  if (!ReadVarint(data, pos, &v)) return Status::IoError("corrupt varint");
  return v;
}

std::vector<uint8_t> DeltaEncode(const std::vector<int64_t>& values) {
  std::vector<uint8_t> out;
  VarintAppend(&out, values.size());
  int64_t prev = 0;
  for (int64_t v : values) {
    VarintAppend(&out, ZigZagEncode(v - prev));
    prev = v;
  }
  return out;
}

Result<std::vector<int64_t>> DeltaDecode(std::span<const uint8_t> data,
                                         uint64_t max_values) {
  size_t pos = 0;
  HANA_ASSIGN_OR_RETURN(uint64_t count, VarintRead(data, &pos));
  if (count > max_values) return Status::IoError("delta count beyond limit");
  // Every element is at least one varint byte, so a count beyond the
  // remaining bytes is corrupt; rejecting here keeps a hostile count
  // from driving a huge allocation.
  if (count > data.size() - pos) return Status::IoError("corrupt delta count");
  std::vector<int64_t> out(count);
  HANA_RETURN_IF_ERROR(DeltaBodyInto(data, pos, count, out.data()));
  return out;
}

std::vector<uint8_t> RleEncode(const std::vector<int64_t>& values) {
  std::vector<uint8_t> out;
  VarintAppend(&out, values.size());
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i + 1;
    while (j < values.size() && values[j] == values[i]) ++j;
    VarintAppend(&out, ZigZagEncode(values[i]));
    VarintAppend(&out, j - i);
    i = j;
  }
  return out;
}

Result<std::vector<int64_t>> RleDecode(std::span<const uint8_t> data,
                                       uint64_t max_values) {
  size_t pos = 0;
  HANA_ASSIGN_OR_RETURN(uint64_t count, VarintRead(data, &pos));
  // Runs legitimately expand without bound (a few bytes can claim 2^60
  // identical values), so the only defense against a hostile count is
  // the explicit cap — refuse before allocating, not via OOM.
  if (count > max_values) return Status::IoError("RLE count beyond limit");
  std::vector<int64_t> out;
  out.reserve(std::min<uint64_t>(count, 1u << 16));
  HANA_RETURN_IF_ERROR(ForEachRun(data, &pos, count,
                                  [&out](int64_t v, uint64_t run) {
                                    out.insert(out.end(), run, v);
                                  }));
  return out;
}

std::vector<uint8_t> ForEncode(const std::vector<int64_t>& values) {
  std::vector<uint8_t> out;
  VarintAppend(&out, values.size());
  if (values.empty()) return out;
  int64_t min = values[0], max = values[0];
  for (int64_t v : values) {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  uint64_t range = static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  // Wide ranges fall back to 64-bit little-endian raw storage.
  int width = range > 0xffffffffULL ? 64 : BitWidth(range);
  VarintAppend(&out, ZigZagEncode(min));
  VarintAppend(&out, static_cast<uint64_t>(width));
  if (width == 64) {
    for (int64_t v : values) {
      uint64_t u = static_cast<uint64_t>(v);
      for (int b = 0; b < 8; ++b) out.push_back(static_cast<uint8_t>(u >> (b * 8)));
    }
    return out;
  }
  std::vector<uint32_t> rel(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    rel[i] = static_cast<uint32_t>(values[i] - min);
  }
  std::vector<uint64_t> words = BitPack(rel, width);
  for (uint64_t w : words) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<uint8_t>(w >> (b * 8)));
  }
  return out;
}

Result<std::vector<int64_t>> ForDecode(std::span<const uint8_t> data,
                                       uint64_t max_values) {
  size_t pos = 0;
  HANA_ASSIGN_OR_RETURN(uint64_t count, VarintRead(data, &pos));
  if (count > max_values) return Status::IoError("FOR count beyond limit");
  // Every value takes at least one bit, so this bounds the allocation
  // before the body's exact width check.
  if (count > (data.size() - pos) * 8) return Status::IoError("corrupt FOR");
  std::vector<int64_t> out(count);
  HANA_RETURN_IF_ERROR(ForBodyInto(data, pos, count, out.data()));
  return out;
}

std::vector<uint8_t> EncodeIntsBest(const std::vector<int64_t>& values) {
  std::vector<uint8_t> rle = RleEncode(values);
  std::vector<uint8_t> fr = ForEncode(values);
  std::vector<uint8_t> delta = DeltaEncode(values);
  std::vector<uint8_t> out;
  if (rle.size() <= fr.size() && rle.size() <= delta.size()) {
    out.push_back(static_cast<uint8_t>(IntCodec::kRle));
    out.insert(out.end(), rle.begin(), rle.end());
  } else if (fr.size() <= delta.size()) {
    out.push_back(static_cast<uint8_t>(IntCodec::kFor));
    out.insert(out.end(), fr.begin(), fr.end());
  } else {
    out.push_back(static_cast<uint8_t>(IntCodec::kDelta));
    out.insert(out.end(), delta.begin(), delta.end());
  }
  return out;
}

Result<std::vector<int64_t>> DecodeInts(std::span<const uint8_t> data,
                                        uint64_t max_values) {
  if (data.empty()) return Status::IoError("empty int block");
  std::span<const uint8_t> body = data.subspan(1);
  switch (static_cast<IntCodec>(data[0])) {
    case IntCodec::kRle:
      return RleDecode(body, max_values);
    case IntCodec::kFor:
      return ForDecode(body, max_values);
    case IntCodec::kDelta:
      return DeltaDecode(body, max_values);
  }
  return Status::IoError("unknown int codec tag");
}

Status DecodeIntsInto(std::span<const uint8_t> data, int64_t* out,
                      size_t count) {
  if (data.empty()) return Status::IoError("empty int block");
  std::span<const uint8_t> body = data.subspan(1);
  size_t pos = 0;
  switch (static_cast<IntCodec>(data[0])) {
    case IntCodec::kRle: {
      HANA_RETURN_IF_ERROR(ExpectCount(body, &pos, count));
      int64_t* next = out;
      return ForEachRun(body, &pos, count, [&next](int64_t v, uint64_t run) {
        next = std::fill_n(next, run, v);
      });
    }
    case IntCodec::kFor:
      HANA_RETURN_IF_ERROR(ExpectCount(body, &pos, count));
      return ForBodyInto(body, pos, count, out);
    case IntCodec::kDelta:
      HANA_RETURN_IF_ERROR(ExpectCount(body, &pos, count));
      return DeltaBodyInto(body, pos, count, out);
  }
  return Status::IoError("unknown int codec tag");
}

std::vector<uint8_t> EncodeStrings(const std::vector<std::string>& values) {
  std::vector<uint8_t> out;
  VarintAppend(&out, values.size());
  for (const std::string& s : values) {
    VarintAppend(&out, s.size());
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

Result<std::vector<std::string>> DecodeStrings(
    std::span<const uint8_t> data) {
  size_t pos = 0;
  HANA_ASSIGN_OR_RETURN(uint64_t count, VarintRead(data, &pos));
  // Every string is at least its one-byte length.
  if (count > data.size() - pos) return Status::IoError("corrupt string block");
  std::vector<std::string> out(count);
  HANA_RETURN_IF_ERROR(StringsBodyInto(data, pos, count, out.data()));
  return out;
}

Status DecodeStringsInto(std::span<const uint8_t> data, std::string* out,
                         size_t count) {
  size_t pos = 0;
  HANA_RETURN_IF_ERROR(ExpectCount(data, &pos, count));
  return StringsBodyInto(data, pos, count, out);
}

std::vector<uint8_t> EncodeDoubles(const std::vector<double>& values) {
  std::vector<uint8_t> out;
  VarintAppend(&out, values.size());
  uint64_t prev = 0;
  for (double d : values) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    VarintAppend(&out, bits ^ prev);
    prev = bits;
  }
  return out;
}

Result<std::vector<double>> DecodeDoubles(std::span<const uint8_t> data) {
  size_t pos = 0;
  HANA_ASSIGN_OR_RETURN(uint64_t count, VarintRead(data, &pos));
  // Every value is at least one varint byte.
  if (count > data.size() - pos) return Status::IoError("corrupt double block");
  std::vector<double> out(count);
  HANA_RETURN_IF_ERROR(DoublesBodyInto(data, pos, count, out.data()));
  return out;
}

Status DecodeDoublesInto(std::span<const uint8_t> data, double* out,
                         size_t count) {
  size_t pos = 0;
  HANA_RETURN_IF_ERROR(ExpectCount(data, &pos, count));
  return DoublesBodyInto(data, pos, count, out);
}

}  // namespace hana::storage
