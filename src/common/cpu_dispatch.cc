#include "common/cpu_dispatch.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <vector>

#include "common/util.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HANA_CPU_X86 1
#include <immintrin.h>
#endif

namespace hana {
namespace {

// ---------------------------------------------------------------------
// Scalar reference kernels. These define the bytes every accelerated
// variant must reproduce; bit_unpack/bit_pack mirror storage::BitGet /
// storage::BitPackInto exactly.
// ---------------------------------------------------------------------

void ScalarBitUnpack(const uint64_t* words, size_t num_words, int bits,
                     size_t start, size_t count, uint32_t* out) {
  (void)num_words;
  const uint64_t mask = (1ULL << bits) - 1;  // bits is 1..32.
  for (size_t i = 0; i < count; ++i) {
    size_t bit = (start + i) * static_cast<size_t>(bits);
    size_t word = bit / 64;
    size_t off = bit % 64;
    uint64_t v = words[word] >> off;
    if (off + static_cast<size_t>(bits) > 64) {
      v |= words[word + 1] << (64 - off);
    }
    out[i] = static_cast<uint32_t>(v & mask);
  }
}

void ScalarBitPack(uint64_t* words, int bits, size_t start,
                   const uint32_t* values, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    size_t bit = (start + i) * static_cast<size_t>(bits);
    size_t word = bit / 64;
    size_t off = bit % 64;
    words[word] |= static_cast<uint64_t>(values[i]) << off;
    if (off + static_cast<size_t>(bits) > 64) {
      words[word + 1] |= static_cast<uint64_t>(values[i]) >> (64 - off);
    }
  }
}

/// Reproduces Value::Hash for int64/date/timestamp: integers whose
/// double image lands in the exactly-representable window hash through
/// std::hash<int64_t> (so 1 and 1.0 collide); the rest hash the image.
inline uint64_t HashIntLane(int64_t v) {
  double d = static_cast<double>(v);
  if (d == std::floor(d) && d >= -9.0e15 && d <= 9.0e15) {
    return std::hash<int64_t>()(v);
  }
  return std::hash<double>()(d);
}

void ScalarHashI64(const int64_t* v, size_t count, uint64_t seed,
                   uint64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = HashCombine(seed, HashIntLane(v[i]));
  }
}

// ---------------------------------------------------------------------
// Tuned portable kernels (no intrinsics, still "native"): the packer
// accumulates into a register and stores whole words instead of
// read-modify-writing memory per element. Identical bytes by
// construction (aligned-start contract: the range's partial word can
// only be the array's final word, which no other range touches).
// ---------------------------------------------------------------------

void FastBitPack(uint64_t* words, int bits, size_t start,
                 const uint32_t* values, size_t count) {
  uint64_t* w = words + (start * static_cast<size_t>(bits)) / 64;
  uint64_t acc = *w;  // Preserve any bits a prior unaligned caller left.
  int off = static_cast<int>((start * static_cast<size_t>(bits)) % 64);
  for (size_t i = 0; i < count; ++i) {
    acc |= static_cast<uint64_t>(values[i]) << off;
    off += bits;
    if (off >= 64) {
      *w++ = acc;
      off -= 64;
      acc = off != 0
                ? static_cast<uint64_t>(values[i]) >> (bits - off)
                : 0;
    }
  }
  if (off != 0) *w |= acc;
}

#if HANA_CPU_X86

// ---------------------------------------------------------------------
// AVX2 kernels.
// ---------------------------------------------------------------------

__attribute__((target("avx2"))) void Avx2BitUnpack(const uint64_t* words,
                                                   size_t num_words, int bits,
                                                   size_t start, size_t count,
                                                   uint32_t* out) {
  const uint64_t mask = (1ULL << bits) - 1;
  // The vector body reads words[word+1] unconditionally, so stop it
  // before any lane's word index can reach the final word.
  size_t safe = 0;
  if (num_words >= 2) {
    // word(i) = ((start+i)*bits)/64 <= num_words-2
    //   <=> (start+i)*bits < (num_words-1)*64.
    size_t limit_bits = (num_words - 1) * 64;
    size_t start_bits = start * static_cast<size_t>(bits);
    if (limit_bits > start_bits) {
      safe = (limit_bits - start_bits + static_cast<size_t>(bits) - 1) /
                 static_cast<size_t>(bits) -
             1;
      if (safe > count) safe = count;
    }
  }
  // lint: reinterpret_cast allowed — gather intrinsics take long long*,
  // same representation as the uint64_t word array.
  const long long* base = reinterpret_cast<const long long*>(words);
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i v64 = _mm256_set1_epi64x(64);
  size_t i = 0;
  for (; i + 4 <= safe; i += 4) {
    size_t bit0 = (start + i) * static_cast<size_t>(bits);
    __m256i bit = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(bit0)),
        _mm256_set_epi64x(3LL * bits, 2LL * bits, 1LL * bits, 0));
    __m256i word = _mm256_srli_epi64(bit, 6);
    __m256i off = _mm256_and_si256(bit, _mm256_set1_epi64x(63));
    __m256i lo = _mm256_i64gather_epi64(base, word, 8);
    __m256i hi = _mm256_i64gather_epi64(
        base, _mm256_add_epi64(word, _mm256_set1_epi64x(1)), 8);
    // off==0 => shift count 64 => srlv/sllv yield 0, exactly the
    // "no straddle" case.
    __m256i v = _mm256_or_si256(_mm256_srlv_epi64(lo, off),
                                _mm256_sllv_epi64(hi, _mm256_sub_epi64(v64, off)));
    v = _mm256_and_si256(v, vmask);
    // Pack the four 64-bit lanes' low dwords into one 128-bit store.
    __m256i packed = _mm256_permutevar8x32_epi32(
        v, _mm256_set_epi32(7, 7, 7, 7, 6, 4, 2, 0));
    // lint: reinterpret_cast allowed — unaligned SSE store to the
    // caller's uint32_t output buffer.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(packed));
  }
  if (i < count) {
    ScalarBitUnpack(words, num_words, bits, start + i, count - i, out + i);
  }
}

__attribute__((target("avx2"))) void Avx2HashI64(const int64_t* v, size_t count,
                                                 uint64_t seed, uint64_t* out) {
  // HashCombine(seed, h) = seed ^ (h + K) with K constant per batch,
  // and for lanes in [-9e15, 9e15] (all < 2^53, so the double image is
  // exact) h is std::hash<int64_t>(v), verified identity at bind time.
  const uint64_t addend =
      0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  const __m256i vadd = _mm256_set1_epi64x(static_cast<long long>(addend));
  const __m256i vseed = _mm256_set1_epi64x(static_cast<long long>(seed));
  const __m256i vhi = _mm256_set1_epi64x(9000000000000000LL);
  const __m256i vlo = _mm256_set1_epi64x(-9000000000000000LL);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    // lint: reinterpret_cast allowed — unaligned load of the caller's
    // int64_t key array.
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    __m256i oob = _mm256_or_si256(_mm256_cmpgt_epi64(x, vhi),
                                  _mm256_cmpgt_epi64(vlo, x));
    if (_mm256_testz_si256(oob, oob)) {
      __m256i h = _mm256_xor_si256(_mm256_add_epi64(x, vadd), vseed);
      // lint: reinterpret_cast allowed — unaligned store to the
      // caller's uint64_t hash array.
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), h);
    } else {
      for (size_t j = 0; j < 4; ++j) {
        out[i + j] = HashCombine(seed, HashIntLane(v[i + j]));
      }
    }
  }
  for (; i < count; ++i) out[i] = HashCombine(seed, HashIntLane(v[i]));
}

// ---------------------------------------------------------------------
// AVX-512 kernels (F + BW): 8-lane unpack with a native 64->32 narrow.
// ---------------------------------------------------------------------

__attribute__((target("avx512f,avx512bw"))) void Avx512BitUnpack(
    const uint64_t* words, size_t num_words, int bits, size_t start,
    size_t count, uint32_t* out) {
  const uint64_t mask = (1ULL << bits) - 1;
  size_t safe = 0;
  if (num_words >= 2) {
    size_t limit_bits = (num_words - 1) * 64;
    size_t start_bits = start * static_cast<size_t>(bits);
    if (limit_bits > start_bits) {
      safe = (limit_bits - start_bits + static_cast<size_t>(bits) - 1) /
                 static_cast<size_t>(bits) -
             1;
      if (safe > count) safe = count;
    }
  }
  // lint: reinterpret_cast allowed — gather intrinsics take long long*,
  // same representation as the uint64_t word array.
  const long long* base = reinterpret_cast<const long long*>(words);
  const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m512i v64 = _mm512_set1_epi64(64);
  // Per-lane bit offsets computed scalar-side (the 64-bit vector
  // multiply would need AVX512DQ, which we don't require).
  const long long b = bits;
  const __m512i lane_bits =
      _mm512_set_epi64(7 * b, 6 * b, 5 * b, 4 * b, 3 * b, 2 * b, b, 0);
  size_t i = 0;
  for (; i + 8 <= safe; i += 8) {
    size_t bit0 = (start + i) * static_cast<size_t>(bits);
    __m512i bit = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(bit0)), lane_bits);
    __m512i word = _mm512_srli_epi64(bit, 6);
    __m512i off = _mm512_and_si512(bit, _mm512_set1_epi64(63));
    __m512i lo = _mm512_i64gather_epi64(word, base, 8);
    __m512i hi = _mm512_i64gather_epi64(
        _mm512_add_epi64(word, _mm512_set1_epi64(1)), base, 8);
    __m512i v = _mm512_or_si512(
        _mm512_srlv_epi64(lo, off),
        _mm512_sllv_epi64(hi, _mm512_sub_epi64(v64, off)));
    v = _mm512_and_si512(v, vmask);
    // lint: reinterpret_cast allowed — unaligned narrow store to the
    // caller's uint32_t output buffer.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi64_epi32(v));
  }
  if (i < count) {
    ScalarBitUnpack(words, num_words, bits, start + i, count - i, out + i);
  }
}

#endif  // HANA_CPU_X86

// ---------------------------------------------------------------------
// Detection, bind-time verification and table management.
// ---------------------------------------------------------------------

CpuLevel ProbeCpu() {
#if HANA_CPU_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw")) {
    return CpuLevel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return CpuLevel::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return CpuLevel::kSse42;
#endif
  return CpuLevel::kScalar;
}

/// Adversarial probe inputs for the bind-time self-check: boundary
/// magnitudes for the hash window, every bit width for pack/unpack and
/// misaligned starts.
struct ProbeData {
  std::vector<int64_t> ints;
  ProbeData() {
    ints = {0,  1,  -1, 42, -42, 9000000000000000LL, -9000000000000000LL,
            9000000000000001LL, -9000000000000001LL, INT64_MAX, INT64_MIN,
            1LL << 52, -(1LL << 52), 999, -999, 7};
    uint64_t s = 0x243f6a8885a308d3ULL;
    for (int i = 0; i < 240; ++i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      ints.push_back(static_cast<int64_t>(s >> (i % 3 == 0 ? 1 : 40)));
    }
  }
};

bool VerifyKernels(const CpuKernels& candidate, const CpuKernels& ref) {
  ProbeData probe;
  size_t n = probe.ints.size();
  // bit pack/unpack across every width and several start offsets.
  for (int bits = 1; bits <= 32; ++bits) {
    std::vector<uint32_t> codes(n);
    uint64_t mask = (1ULL << bits) - 1;
    for (size_t i = 0; i < n; ++i) {
      codes[i] = static_cast<uint32_t>(
          static_cast<uint64_t>(probe.ints[i]) & mask);
    }
    size_t num_words = (n * bits + 63) / 64 + 1;
    std::vector<uint64_t> a(num_words, 0), b(num_words, 0);
    candidate.bit_pack(a.data(), bits, 0, codes.data(), n);
    ref.bit_pack(b.data(), bits, 0, codes.data(), n);
    if (a != b) return false;
    for (size_t start : {size_t{0}, size_t{1}, size_t{5}, size_t{64}}) {
      if (start >= n) continue;
      std::vector<uint32_t> u1(n - start), u2(n - start);
      candidate.bit_unpack(a.data(), a.size(), bits, start, n - start,
                           u1.data());
      ref.bit_unpack(b.data(), b.size(), bits, start, n - start, u2.data());
      if (u1 != u2) return false;
    }
  }
  // Hash, with and without the boundary magnitudes.
  for (uint64_t seed : {uint64_t{0x12345}, uint64_t{0}, ~uint64_t{0}}) {
    std::vector<uint64_t> h1(n), h2(n);
    candidate.hash_i64(probe.ints.data(), n, seed, h1.data());
    ref.hash_i64(probe.ints.data(), n, seed, h2.data());
    if (h1 != h2) return false;
  }
  return true;
}

struct Binding {
  CpuKernels table;
  CpuLevel level;
};

const Binding& ScalarBinding() {
  static const Binding b = {
      {&ScalarBitUnpack, &ScalarBitPack, &ScalarHashI64},
      CpuLevel::kScalar};
  return b;
}

Binding BuildNativeBinding() {
  Binding b = ScalarBinding();
  CpuLevel level = DetectedCpuLevel();
  b.table.bit_pack = &FastBitPack;
#if HANA_CPU_X86
  if (level >= CpuLevel::kAvx2) {
    b.table.bit_unpack = &Avx2BitUnpack;
    b.table.hash_i64 = &Avx2HashI64;
  }
  if (level >= CpuLevel::kAvx512) {
    b.table.bit_unpack = &Avx512BitUnpack;
  }
#endif
  b.level = level;
  // Belt and braces for the bit-identity guarantee: any kernel family
  // that disagrees with the reference on the probe set is demoted (the
  // AVX2 hash, for example, assumes libstdc++'s identity
  // std::hash<int64_t>; on a library where that does not hold the
  // verification fails and the scalar hash stays bound).
  if (!VerifyKernels(b.table, ScalarBinding().table)) {
    Binding s = ScalarBinding();
    s.table.bit_pack = &FastBitPack;  // Portable, verified below.
    if (!VerifyKernels(s.table, ScalarBinding().table)) {
      return ScalarBinding();
    }
    return s;
  }
  return b;
}

const Binding& NativeBinding() {
  static const Binding b = BuildNativeBinding();
  return b;
}

// atomic: the active table pointer is rebound by SetCpuMode while scan
// workers read it; release/acquire publishes the immutable Binding.
std::atomic<const Binding*>& ActiveSlot() {
  static std::atomic<const Binding*> slot{[] {
    const char* env = std::getenv("HANA_CPU");
    if (env != nullptr && std::strcmp(env, "scalar") == 0) {
      return &ScalarBinding();
    }
    return &NativeBinding();
  }()};
  return slot;
}

}  // namespace

const char* CpuLevelName(CpuLevel level) {
  switch (level) {
    case CpuLevel::kScalar: return "scalar";
    case CpuLevel::kSse42: return "sse4.2";
    case CpuLevel::kAvx2: return "avx2";
    case CpuLevel::kAvx512: return "avx512";
  }
  return "unknown";
}

CpuLevel DetectedCpuLevel() {
  static const CpuLevel level = ProbeCpu();
  return level;
}

CpuLevel ActiveCpuLevel() {
  return ActiveSlot().load(std::memory_order_acquire)->level;
}

const CpuKernels& Kernels() {
  return ActiveSlot().load(std::memory_order_acquire)->table;
}

const CpuKernels& ScalarKernels() { return ScalarBinding().table; }

Status SetCpuMode(const std::string& mode) {
  if (mode == "scalar") {
    ActiveSlot().store(&ScalarBinding(), std::memory_order_release);
    return Status::OK();
  }
  if (mode == "native") {
    ActiveSlot().store(&NativeBinding(), std::memory_order_release);
    return Status::OK();
  }
  return Status::InvalidArgument("cpu mode must be native or scalar: " + mode);
}

std::string CpuModeString() {
  return ActiveSlot().load(std::memory_order_acquire) == &ScalarBinding()
             ? "scalar"
             : "native";
}

}  // namespace hana
