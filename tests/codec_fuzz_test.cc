// Property / round-trip fuzzing for the storage codecs (codec.h): every
// encoder must decode back to exactly its input over adversarial value
// patterns (empty, single, all-equal, alternating, INT64_MIN/MAX,
// random at every bit width), every strict prefix of a valid buffer
// must come back as a Status — never a crash or a bogus huge
// allocation — and random garbage bytes must be rejected the same way.
// The bit-pack kernels run through the runtime CPU dispatch table, so
// this suite also covers scalar-vs-native packing on whatever level the
// host binds (check_matrix runs it under HANA_CPU=scalar and =native).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "storage/codec.h"

namespace hana::storage {
namespace {

using Ints = std::vector<int64_t>;

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// The adversarial corpus: named so failures point at the pattern.
std::vector<std::pair<std::string, Ints>> Corpus() {
  std::vector<std::pair<std::string, Ints>> corpus;
  corpus.emplace_back("empty", Ints{});
  corpus.emplace_back("single_zero", Ints{0});
  corpus.emplace_back("single_min", Ints{kMin});
  corpus.emplace_back("single_max", Ints{kMax});
  corpus.emplace_back("min_max_pair", Ints{kMin, kMax});
  corpus.emplace_back("all_equal", Ints(1000, 42));
  corpus.emplace_back("all_equal_min", Ints(257, kMin));
  Ints alternating;
  for (int i = 0; i < 512; ++i) alternating.push_back(i % 2 == 0 ? 0 : 1);
  corpus.emplace_back("alternating_01", alternating);
  Ints extremes;
  for (int i = 0; i < 256; ++i) extremes.push_back(i % 2 == 0 ? kMin : kMax);
  corpus.emplace_back("alternating_extremes", extremes);
  Ints ramp;
  for (int64_t i = -500; i < 500; ++i) ramp.push_back(i * 3);
  corpus.emplace_back("sorted_ramp", ramp);
  Ints runs;
  for (int r = 0; r < 40; ++r) {
    runs.insert(runs.end(), static_cast<size_t>(1 + r % 17),
                (r % 2 == 0 ? -1 : 1) * (r * 1'000'000'007LL));
  }
  corpus.emplace_back("mixed_runs", runs);
  // Random values at every bit width: exercises every FOR packing
  // width, zigzag at both signs, and delta overflow wraparound.
  std::mt19937_64 rng(0xC0DEC5EED);  // Fixed seed: deterministic.
  for (int width = 1; width <= 64; width += 7) {
    Ints vals;
    uint64_t mask = width == 64 ? ~0ULL : (1ULL << width) - 1;
    for (int i = 0; i < 300; ++i) {
      vals.push_back(static_cast<int64_t>(rng() & mask) -
                     (i % 3 == 0 ? static_cast<int64_t>(mask / 2) : 0));
    }
    corpus.emplace_back("random_w" + std::to_string(width), vals);
  }
  return corpus;
}

void ExpectRoundTrip(const std::string& name, const Ints& input) {
  auto check = [&](const char* codec, const Result<Ints>& decoded) {
    ASSERT_TRUE(decoded.ok())
        << name << " " << codec << ": " << decoded.status().ToString();
    EXPECT_EQ(*decoded, input) << name << " " << codec;
  };
  check("rle", RleDecode(RleEncode(input)));
  check("for", ForDecode(ForEncode(input)));
  check("delta", DeltaDecode(DeltaEncode(input)));
  check("best", DecodeInts(EncodeIntsBest(input)));
}

/// Every strict prefix of `encoded` must decode without crashing; if a
/// prefix happens to parse, it must not fabricate more values than the
/// original sequence held (a hostile count must never drive a huge
/// materialization).
template <typename Decoder>
void ExpectTruncationSafe(const std::string& name, const char* codec,
                          const std::vector<uint8_t>& encoded,
                          size_t original_size, Decoder decode) {
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    std::vector<uint8_t> prefix(encoded.begin(),
                                encoded.begin() + static_cast<long>(cut));
    Result<Ints> r = decode(prefix);
    if (r.ok()) {
      EXPECT_LE(r->size(), original_size)
          << name << " " << codec << " cut=" << cut;
    }
  }
}

TEST(CodecFuzzTest, RoundTripsAdversarialCorpus) {
  for (const auto& [name, input] : Corpus()) ExpectRoundTrip(name, input);
}

TEST(CodecFuzzTest, TruncatedBuffersReturnStatus) {
  for (const auto& [name, input] : Corpus()) {
    // The exhaustive every-cut sweep is quadratic; cap the inputs used
    // for it (the corpus keeps each under ~1000 values).
    ExpectTruncationSafe(name, "rle", RleEncode(input), input.size(),
                         [](const std::vector<uint8_t>& d) {
                           return RleDecode(d);
                         });
    ExpectTruncationSafe(name, "for", ForEncode(input), input.size(),
                         [](const std::vector<uint8_t>& d) {
                           return ForDecode(d);
                         });
    ExpectTruncationSafe(name, "delta", DeltaEncode(input), input.size(),
                         [](const std::vector<uint8_t>& d) {
                           return DeltaDecode(d);
                         });
    ExpectTruncationSafe(name, "best", EncodeIntsBest(input), input.size(),
                         [](const std::vector<uint8_t>& d) {
                           return DecodeInts(d);
                         });
  }
}

TEST(CodecFuzzTest, GarbageBytesAreRejectedNotCrashed) {
  // Random bytes can parse as a *well-formed* RLE stream whose count
  // header claims billions of values — expansion is unbounded by
  // construction, so the decoder's explicit cap is the only thing
  // standing between a corrupt block and an OOM. Decode every junk
  // buffer under a tight cap and require it to hold.
  constexpr uint64_t kCap = 1u << 20;
  std::mt19937_64 rng(0xBADBADBAD);  // Fixed seed: deterministic.
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> junk(static_cast<size_t>(rng() % 64));
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng());
    for (auto* decode : {+[](const std::vector<uint8_t>& d) {
                           return RleDecode(d, 1u << 20);
                         },
                         +[](const std::vector<uint8_t>& d) {
                           return ForDecode(d, 1u << 20);
                         },
                         +[](const std::vector<uint8_t>& d) {
                           return DeltaDecode(d, 1u << 20);
                         },
                         +[](const std::vector<uint8_t>& d) {
                           return DecodeInts(d, 1u << 20);
                         }}) {
      Result<Ints> r = decode(junk);
      if (r.ok()) {
        EXPECT_LE(r->size(), kCap);
      }
    }
  }
}

TEST(CodecFuzzTest, DecodeValueCapIsEnforcedExactly) {
  // A count one past the cap is refused before any materialization; at
  // the cap the decode succeeds and round-trips.
  const Ints at_cap(2048, 5);
  Result<Ints> refused = RleDecode(RleEncode(at_cap), at_cap.size() - 1);
  EXPECT_FALSE(refused.ok());
  Result<Ints> allowed = RleDecode(RleEncode(at_cap), at_cap.size());
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(*allowed, at_cap);
  Result<Ints> best_refused =
      DecodeInts(EncodeIntsBest(at_cap), at_cap.size() - 1);
  EXPECT_FALSE(best_refused.ok());
  Result<Ints> for_refused = ForDecode(ForEncode(at_cap), at_cap.size() - 1);
  EXPECT_FALSE(for_refused.ok());
  Result<Ints> delta_refused =
      DeltaDecode(DeltaEncode(at_cap), at_cap.size() - 1);
  EXPECT_FALSE(delta_refused.ok());
}

// The Into decoders write a caller-counted array: a block must round
// trip when the count matches, be an IoError when it does not (one more
// or one fewer value), and every strict prefix must be a Status — the
// caller's array bounds every write.
TEST(CodecFuzzTest, IntoDecodersCheckTheCallersCount) {
  for (const auto& [name, input] : Corpus()) {
    const std::vector<uint8_t> ints = EncodeIntsBest(input);
    std::vector<double> doubles;
    std::vector<std::string> strings;
    for (int64_t v : input) {
      doubles.push_back(static_cast<double>(v) / 3.0);
      strings.push_back(std::to_string(v));
    }
    const std::vector<uint8_t> dbl = EncodeDoubles(doubles);
    const std::vector<uint8_t> str = EncodeStrings(strings);
    const size_t n = input.size();
    Ints int_out(n + 1);
    std::vector<double> dbl_out(n + 1);
    std::vector<std::string> str_out(n + 1);
    ASSERT_TRUE(DecodeIntsInto(ints, int_out.data(), n).ok()) << name;
    EXPECT_EQ(Ints(int_out.begin(), int_out.begin() + n), input) << name;
    ASSERT_TRUE(DecodeDoublesInto(dbl, dbl_out.data(), n).ok()) << name;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(dbl_out[i], doubles[i]) << name << " " << i;
    }
    ASSERT_TRUE(DecodeStringsInto(str, str_out.data(), n).ok()) << name;
    EXPECT_EQ(std::vector<std::string>(str_out.begin(), str_out.begin() + n),
              strings)
        << name;
    for (size_t count : {n + 1, n == 0 ? size_t{1} : n - 1}) {
      EXPECT_EQ(DecodeIntsInto(ints, int_out.data(), count).code(),
                StatusCode::kIoError)
          << name << " count " << count;
      EXPECT_EQ(DecodeDoublesInto(dbl, dbl_out.data(), count).code(),
                StatusCode::kIoError)
          << name << " count " << count;
      EXPECT_EQ(DecodeStringsInto(str, str_out.data(), count).code(),
                StatusCode::kIoError)
          << name << " count " << count;
    }
    for (size_t cut = 0; cut < ints.size(); ++cut) {
      (void)DecodeIntsInto(std::span(ints).first(cut), int_out.data(), n);
    }
    for (size_t cut = 0; cut < dbl.size(); ++cut) {
      EXPECT_FALSE(
          DecodeDoublesInto(std::span(dbl).first(cut), dbl_out.data(), n).ok())
          << name << " cut " << cut;
    }
    for (size_t cut = 0; cut < str.size(); ++cut) {
      (void)DecodeStringsInto(std::span(str).first(cut), str_out.data(), n);
    }
  }
}

TEST(CodecFuzzTest, BitPackRoundTripsEveryWidthAndOffset) {
  std::mt19937_64 rng(0x9127);  // Fixed seed: deterministic.
  for (int width = 1; width <= 32; ++width) {
    uint32_t mask = width == 32 ? 0xffffffffu
                                : ((1u << width) - 1);
    std::vector<uint32_t> values(777);
    for (uint32_t& v : values) v = static_cast<uint32_t>(rng()) & mask;
    std::vector<uint64_t> words = BitPack(values, width);
    std::vector<uint32_t> back = BitUnpack(words, width, values.size());
    ASSERT_EQ(back, values) << "width " << width;
    // Offset reads through the dispatched BitUnpackInto.
    for (size_t start : {size_t{1}, size_t{63}, size_t{64}, size_t{129}}) {
      if (start >= values.size()) continue;
      size_t count = values.size() - start;
      std::vector<uint32_t> out(count);
      BitUnpackInto(words.data(), words.size(), width, start, count,
                    out.data());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], values[start + i])
            << "width " << width << " start " << start << " i " << i;
      }
    }
  }
}

}  // namespace
}  // namespace hana::storage
