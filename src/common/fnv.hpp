// 64-bit FNV-1a, the one content-hash primitive behind the fig. 4 trace
// hash, the telemetry series hashes, the store's chain hashes and the
// registry fingerprints. Each caller keeps its own framing (integer
// folding, field terminators, seed). Inline because sim::TraceHash::mix
// runs once per scheduler event while a recorder is attached.
#pragma once

#include <cstdint>
#include <string_view>

namespace hcm {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

// Folds one byte into `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a_byte(std::uint64_t h,
                                                 std::uint8_t byte) {
  return (h ^ byte) * kFnv1aPrime;
}

// Folds `bytes` into `h`, in order.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::uint64_t h,
                                            std::string_view bytes) {
  for (char c : bytes) h = fnv1a_byte(h, static_cast<std::uint8_t>(c));
  return h;
}

}  // namespace hcm
