/**
 * @file
 * Content hashing for cache keys. The rank engine keys a session by a
 * content hash of the request that determines it (application,
 * predictive machines, partial score vector); ContentHasher accumulates
 * those ingredients into a 128-bit digest so collisions are negligible
 * without storing the raw bytes.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace dtrank::util
{

/** 128-bit digest used as a cache key. */
struct HashKey
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const HashKey &other) const = default;
};

/** std::unordered_map hasher for HashKey. */
struct HashKeyHasher
{
    std::size_t operator()(const HashKey &k) const
    {
        return static_cast<std::size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
    }
};

/**
 * Streaming 128-bit content hasher: two independent 64-bit lanes, an
 * FNV-1a stream and a splitmix64-style mixing stream, fed word by word.
 * Deterministic across runs and platforms of the same endianness, which
 * is all a process-local cache needs.
 */
class ContentHasher
{
  public:
    ContentHasher &
    add(std::uint64_t word)
    {
        // Lane 1: FNV-1a over the eight bytes at once.
        lo_ = (lo_ ^ word) * 0x100000001b3ULL;
        // Lane 2: splitmix64 finalizer over the running sum.
        std::uint64_t z = (hi_ += word + 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        hi_ = z ^ (z >> 31);
        return *this;
    }

    ContentHasher &
    add(double value)
    {
        return add(std::bit_cast<std::uint64_t>(value));
    }

    ContentHasher &
    add(const std::vector<double> &values)
    {
        add(static_cast<std::uint64_t>(values.size()));
        for (double v : values)
            add(v);
        return *this;
    }

    ContentHasher &
    add(std::string_view text)
    {
        add(static_cast<std::uint64_t>(text.size()));
        std::uint64_t word = 0;
        std::size_t filled = 0;
        for (char c : text) {
            word |= static_cast<std::uint64_t>(
                        static_cast<unsigned char>(c))
                    << (8 * filled);
            if (++filled == 8) {
                add(word);
                word = 0;
                filled = 0;
            }
        }
        if (filled > 0)
            add(word);
        return *this;
    }

    /** The digest of everything added so far. */
    HashKey
    key() const
    {
        return HashKey{hi_, lo_};
    }

  private:
    std::uint64_t hi_ = 0x6a09e667f3bcc908ULL; // sqrt(2) bits
    std::uint64_t lo_ = 0xcbf29ce484222325ULL; // FNV offset basis
};

} // namespace dtrank::util

