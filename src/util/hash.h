// Counter-based hashing primitives.
//
// Every stochastic decision in the diffusion simulator is made by hashing a
// tuple of integers (sample seed, edge endpoints, item, promotion, step,
// purpose tag) into a uniform value in [0,1) and comparing it against the
// event probability. Compared to a mutable RNG stream this gives us:
//   * exact reproducibility independent of evaluation order, and
//   * common random numbers across "with seed S" / "without seed S"
//     simulations, which pairs the Monte-Carlo estimates used for marginal
//     gains (MCP, MA, ML) and slashes their variance.
//
// HashBytes is the bulk kernel for content keys (prep::StructuralKey,
// prep::RisSketchKey): it streams whole arrays at memory bandwidth instead
// of threading every element through one dependent HashCombine chain.
#ifndef IMDPP_UTIL_HASH_H_
#define IMDPP_UTIL_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace imdpp {

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines a hash state with one more 64-bit word.
constexpr uint64_t HashCombine(uint64_t h, uint64_t v) {
  return SplitMix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/// Continues a HashTuple fold with more fields:
/// HashExtend(HashTuple(a, b...), c...) == HashTuple(a, b..., c...), so a
/// loop whose coins share a tuple prefix hashes the prefix once and only
/// the varying suffix per coin.
template <typename... Ts>
constexpr uint64_t HashExtend(uint64_t h, Ts... rest) {
  ((h = HashCombine(h, static_cast<uint64_t>(rest))), ...);
  return h;
}

/// Hashes a variadic tuple of integers into one 64-bit value (a left fold
/// of HashCombine over the fields).
template <typename... Ts>
constexpr uint64_t HashTuple(uint64_t first, Ts... rest) {
  return HashExtend(SplitMix64(first), rest...);
}

/// Maps a 64-bit hash to a double uniformly distributed in [0, 1).
constexpr double HashToUnit(uint64_t h) {
  // Use the top 53 bits for a dyadic rational in [0,1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Uniform [0,1) value for a hashed tuple.
template <typename... Ts>
constexpr double UnitHash(uint64_t first, Ts... rest) {
  return HashToUnit(HashTuple(first, rest...));
}

namespace hash_internal {

inline constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
inline constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
inline constexpr uint64_t kPrime3 = 0x165667b19e3779f9ULL;
inline constexpr uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
inline constexpr uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

inline uint64_t Load64(const unsigned char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Load32(const unsigned char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

constexpr uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

constexpr uint64_t MergeLane(uint64_t h, uint64_t lane) {
  h ^= Round(0, lane);
  return h * kPrime1 + kPrime4;
}

}  // namespace hash_internal

/// Streaming 64-bit hash of `bytes` bytes at `data` (the XXH64 algorithm):
/// four independent multiply-rotate lanes consume 32-byte stripes, so the
/// loop runs at memory bandwidth rather than one dependent mix per word;
/// a tail shorter than 32 bytes is folded in 8-, 4- and 1-byte steps, and
/// the length is mixed in, so a zero-padded input does not hash like the
/// unpadded one. Words are read through memcpy (any alignment) in the
/// host's byte order. Chaining calls — the previous result as the next
/// seed — hashes a sequence of arrays with their boundaries.
inline uint64_t HashBytes(uint64_t seed, const void* data, size_t bytes) {
  using namespace hash_internal;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + bytes;
  uint64_t h = seed + kPrime5;
  if (bytes >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    for (const unsigned char* limit = end - 32; p <= limit; p += 32) {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeLane(h, v1);
    h = MergeLane(h, v2);
    h = MergeLane(h, v3);
    h = MergeLane(h, v4);
  }
  h += static_cast<uint64_t>(bytes);
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, Load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= Load32(p) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  return h ^ (h >> 32);
}

}  // namespace imdpp

#endif  // IMDPP_UTIL_HASH_H_
