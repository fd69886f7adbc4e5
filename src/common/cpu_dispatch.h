#ifndef HANA_COMMON_CPU_DISPATCH_H_
#define HANA_COMMON_CPU_DISPATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"

namespace hana {

/// Runtime CPU-feature dispatch for the hot scan/filter/hash kernels.
///
/// The instruction-set level is probed once (CPUID via
/// __builtin_cpu_supports) and a table of per-kernel function pointers
/// is bound to the best implementation the host supports. Call sites
/// grab the table through Kernels() and stay branch-free inside their
/// loops; nothing outside this module spells a raw intrinsic
/// (scripts/lint.sh enforces that).
///
/// Bit-identity guarantee: every accelerated kernel computes the exact
/// same bytes as its scalar reference — they are integer-exact
/// algorithms, and BindNativeTable() additionally verifies each
/// candidate against the scalar implementation on an adversarial probe
/// vector at bind time, demoting any kernel that disagrees. `HANA_CPU=
/// scalar` (env or the platform `cpu` knob) forces the reference table,
/// which is how the kernels test matrix proves scalar-vs-native
/// equivalence end to end.
enum class CpuLevel {
  kScalar = 0,  // Reference implementations, no ISA assumptions.
  kSse42 = 1,
  kAvx2 = 2,
  kAvx512 = 3,  // Requires avx512f + avx512bw.
};

const char* CpuLevelName(CpuLevel level);

/// Highest level the host CPU supports (cached CPUID probe).
CpuLevel DetectedCpuLevel();

/// Level the bound kernel table actually runs at (detection clamped by
/// the HANA_CPU override).
CpuLevel ActiveCpuLevel();

/// The dispatch table. All kernels are pure functions of their inputs;
/// accelerated variants are bit-identical to the scalar references.
struct CpuKernels {
  /// Unpacks `count` codes of `bits` (1..32) starting at logical index
  /// `start` from a packed word array of `num_words` words.
  void (*bit_unpack)(const uint64_t* words, size_t num_words, int bits,
                     size_t start, size_t count, uint32_t* out);

  /// Packs `count` codes at `bits` into a zero-initialized word array
  /// starting at logical index `start`; requires (start * bits) % 64 ==
  /// 0 (the storage::BitPackInto contract).
  void (*bit_pack)(uint64_t* words, int bits, size_t start,
                   const uint32_t* values, size_t count);

  /// Join-key hash batch: out[i] = HashCombine(seed, H(v[i])) where H
  /// reproduces Value::Hash for int64 (integers whose double image is
  /// exact hash via std::hash<int64_t>, the rest via the double image).
  void (*hash_i64)(const int64_t* v, size_t count, uint64_t seed,
                   uint64_t* out);
};

/// The active dispatch table (bound once at first use; rebindable via
/// SetCpuMode). The returned reference is to an immutable table.
const CpuKernels& Kernels();

/// The scalar reference table, always available (used by the kernels
/// bit-identity tests to diff against whatever Kernels() is bound to).
const CpuKernels& ScalarKernels();

/// Override knob: "native" binds the best verified table for the host,
/// "scalar" forces the reference table. The HANA_CPU environment
/// variable applies the same override at process start-up; this
/// function (reached through the platform `cpu` parameter) rebinds at
/// runtime. Returns InvalidArgument for anything else.
[[nodiscard]] Status SetCpuMode(const std::string& mode);

/// Current mode as a string ("native" or "scalar") for SHOW/debug.
std::string CpuModeString();

}  // namespace hana

#endif  // HANA_COMMON_CPU_DISPATCH_H_
