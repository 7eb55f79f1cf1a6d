/**
 * @file
 * LRU cache of compilation results.
 *
 * Daily/batch workloads recompile the same program set against the
 * same calibration snapshot many times (re-runs, shared programs
 * across users, retry storms). The cache keys results by the content
 * fingerprints of (circuit, calibration, compiler options), so a hit
 * is exact: same program, same machine-day, same variant — byte-
 * identical output to recompiling.
 */

#ifndef QC_SERVICE_COMPILE_CACHE_HPP
#define QC_SERVICE_COMPILE_CACHE_HPP

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "mappers/mapper.hpp"

namespace qc::service {

/** Cache key: fingerprints of the three inputs that determine output. */
struct CacheKey
{
    std::uint64_t circuit = 0;
    std::uint64_t calibration = 0;
    std::uint64_t options = 0;

    bool
    operator==(const CacheKey &o) const
    {
        return circuit == o.circuit && calibration == o.calibration &&
               options == o.options;
    }
};

struct CacheKeyHash
{
    std::size_t
    operator()(const CacheKey &k) const
    {
        // The fields are already FNV digests; a cheap combine is fine.
        std::uint64_t h = k.circuit;
        h ^= k.calibration + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h ^= k.options + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        return static_cast<std::size_t>(h);
    }
};

/** Counters exposed by CompileCache::stats(). */
struct CompileCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t entries = 0; ///< resident entries right now
    std::uint64_t bytes = 0;   ///< approximate resident bytes

    std::uint64_t lookups() const { return hits + misses; }

    /** hits / lookups, 0 when no lookups happened. */
    double
    hitRate() const
    {
        return lookups() == 0
                   ? 0.0
                   : static_cast<double>(hits) /
                         static_cast<double>(lookups());
    }
};

/**
 * Approximate in-memory footprint of one compiled program: the sum
 * of its dynamic containers (schedule ops/macros, layout, traces,
 * strings) plus the struct itself. Used for the cache's byte
 * accounting, not exact allocator truth.
 */
std::size_t approxProgramBytes(const CompiledProgram &program);

/**
 * Thread-safe LRU map: CacheKey -> Value, a shared pointer to an
 * immutable entry, counted at the byte size insert() is given.
 *
 * Two capacity axes: `capacity` bounds entry count, `byteCapacity`
 * (0 = unbounded) bounds the resident bytes — the daemon's
 * long-lived cache uses it so a parade of huge schedules cannot grow
 * the heap without bound. Either bound evicts from the LRU tail.
 * Capacity 0 disables caching entirely: lookups miss, inserts drop.
 */
template <typename Value>
class LruCache
{
  public:
    explicit LruCache(std::size_t capacity = 1024,
                      std::size_t byteCapacity = 0);

    /** Fetch and promote to most-recently-used; null on miss. */
    Value lookup(const CacheKey &key);

    /**
     * Insert (or refresh) an entry of `bytes` bytes, evicting the
     * least recently used entry when over capacity.
     */
    void insert(const CacheKey &key, Value value, std::size_t bytes);

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    std::size_t byteCapacity() const { return byteCapacity_; }

    /** Bytes held by resident entries, as insert() counted them. */
    std::size_t sizeBytes() const;

    CompileCacheStats stats() const;
    void clear();

  private:
    struct Entry
    {
        CacheKey key;
        Value value;
        std::size_t bytes = 0;
    };
    using LruList = std::list<Entry>;

    /** Drop LRU-tail entries until both capacity bounds hold. */
    void evictLocked();

    const std::size_t capacity_;
    const std::size_t byteCapacity_;
    mutable std::mutex mu_;
    LruList lru_; ///< front = most recently used
    std::unordered_map<CacheKey, typename LruList::iterator, CacheKeyHash>
        map_;
    std::size_t bytes_ = 0; ///< sum of resident entry sizes
    CompileCacheStats stats_;
};

/** LRU of shared compiled programs, each counted at approxProgramBytes(). */
class CompileCache : public LruCache<std::shared_ptr<const CompiledProgram>>
{
  public:
    using LruCache::LruCache;

    /**
     * Insert (or refresh) an entry, evicting the least recently used
     * entry when over capacity.
     */
    void insert(const CacheKey &key,
                std::shared_ptr<const CompiledProgram> program);
};

extern template class LruCache<std::shared_ptr<const CompiledProgram>>;
extern template class LruCache<std::shared_ptr<const std::string>>;

} // namespace qc::service

#endif // QC_SERVICE_COMPILE_CACHE_HPP
