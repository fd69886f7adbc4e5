#ifndef HANA_STORAGE_CODEC_H_
#define HANA_STORAGE_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace hana::storage {

/// Bit width needed to represent `max_value` (0 -> 1 bit).
int BitWidth(uint64_t max_value);

/// Packs 32-bit codes using `bit_width` bits each into a word array.
std::vector<uint64_t> BitPack(const std::vector<uint32_t>& values,
                              int bit_width);

/// Packs `count` codes into an existing zero-initialized word array
/// starting at logical index `start_index` (i.e. bit offset
/// start_index * bit_width). Requires (start_index * bit_width) % 64 ==
/// 0 so the write range starts on a word boundary: disjoint aligned
/// ranges then touch disjoint words, which lets morsel-parallel encoders
/// pack into one shared array without atomics (each morsel's row count
/// is a multiple of 64, so every morsel's range is whole words).
void BitPackInto(uint64_t* words, int bit_width, size_t start_index,
                 const uint32_t* values, size_t count);

/// Unpacks `count` codes packed with `bit_width` bits.
std::vector<uint32_t> BitUnpack(const std::vector<uint64_t>& words,
                                int bit_width, size_t count);

/// Unpacks `count` codes starting at logical index `start_index` into a
/// caller-provided buffer, through the runtime CPU-dispatched kernel
/// (common/cpu_dispatch.h). Requires bit_width <= 32. `num_words` is
/// the length of the word array (the SIMD path needs the bound to keep
/// its two-word gathers in range).
void BitUnpackInto(const uint64_t* words, size_t num_words, int bit_width,
                   size_t start_index, size_t count, uint32_t* out);

/// Reads a single packed code without materializing the whole array.
uint32_t BitGet(const std::vector<uint64_t>& words, int bit_width, size_t i);

/// ZigZag maps signed to unsigned so small magnitudes encode small.
uint64_t ZigZagEncode(int64_t v);
int64_t ZigZagDecode(uint64_t v);

/// LEB128 variable-length encoding appended to `out`.
void VarintAppend(std::vector<uint8_t>* out, uint64_t v);
/// Decodes one varint at *pos (advancing it).
[[nodiscard]] Result<uint64_t> VarintRead(std::span<const uint8_t> data,
                                          size_t* pos);

/// Hard ceiling on the element count any int decoder will materialize.
/// RLE expansion is unbounded by construction (a 20-byte block can
/// legally claim 2^60 identical values), so a corrupt or hostile count
/// header must be refused *before* the allocation, not discovered via
/// OOM. 2^28 int64s = 2 GiB — far above any column part this system
/// writes. Callers decoding untrusted bytes can pass a tighter cap.
inline constexpr uint64_t kMaxDecodeValues = 1ull << 28;

/// Delta + zigzag + varint for sorted-ish integer sequences
/// (timestamps, surrogate keys, dictionary codes).
std::vector<uint8_t> DeltaEncode(const std::vector<int64_t>& values);
[[nodiscard]] Result<std::vector<int64_t>> DeltaDecode(
    std::span<const uint8_t> data, uint64_t max_values = kMaxDecodeValues);

/// Run-length encoding: (value, run) varint pairs. Shines on the aging
/// flag column and low-cardinality dimension attributes.
std::vector<uint8_t> RleEncode(const std::vector<int64_t>& values);
[[nodiscard]] Result<std::vector<int64_t>> RleDecode(
    std::span<const uint8_t> data, uint64_t max_values = kMaxDecodeValues);

/// Frame-of-reference + bit-packing: min + packed (v - min). Returns an
/// opaque byte buffer with a small header.
std::vector<uint8_t> ForEncode(const std::vector<int64_t>& values);
[[nodiscard]] Result<std::vector<int64_t>> ForDecode(
    std::span<const uint8_t> data, uint64_t max_values = kMaxDecodeValues);

/// Picks the smallest of RLE / FOR / delta for the sequence and prefixes
/// a codec tag byte. Used by extended-store pages.
enum class IntCodec : uint8_t { kRle = 1, kFor = 2, kDelta = 3 };
std::vector<uint8_t> EncodeIntsBest(const std::vector<int64_t>& values);
[[nodiscard]] Result<std::vector<int64_t>> DecodeInts(
    std::span<const uint8_t> data, uint64_t max_values = kMaxDecodeValues);
/// Decodes an EncodeIntsBest block straight into out[0..count), with no
/// intermediate vector; IoError unless the block holds exactly `count`
/// values. The count is the caller's, so no allocation trusts the block.
[[nodiscard]] Status DecodeIntsInto(std::span<const uint8_t> data,
                                    int64_t* out, size_t count);

/// Length-prefixed string block.
std::vector<uint8_t> EncodeStrings(const std::vector<std::string>& values);
[[nodiscard]] Result<std::vector<std::string>> DecodeStrings(
    std::span<const uint8_t> data);
/// DecodeIntsInto for a string block: assigns out[0..count).
[[nodiscard]] Status DecodeStringsInto(std::span<const uint8_t> data,
                                       std::string* out, size_t count);

/// Doubles stored raw (IEEE bits), varint-compressed via XOR with the
/// previous value (Gorilla-style byte-aligned variant).
std::vector<uint8_t> EncodeDoubles(const std::vector<double>& values);
[[nodiscard]] Result<std::vector<double>> DecodeDoubles(
    std::span<const uint8_t> data);
/// DecodeIntsInto for a double block: writes out[0..count).
[[nodiscard]] Status DecodeDoublesInto(std::span<const uint8_t> data,
                                       double* out, size_t count);

}  // namespace hana::storage

#endif  // HANA_STORAGE_CODEC_H_
