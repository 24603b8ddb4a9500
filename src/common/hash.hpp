// 64-bit FNV-1a, the one byte hash behind journal and checkpoint
// checksums, batch keys, fault-injection draws and catalog generator
// seeds. Those values are persisted or pinned: the constants never change.
#pragma once

#include <cstdint>
#include <string_view>

namespace tspopt {

inline constexpr std::uint64_t kFnv1aOffset = 0xCBF29CE484222325ULL;

// FNV-1a of `bytes`, continuing from `h` (pass a previous result to hash
// several parts as one).
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = kFnv1aOffset) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace tspopt
