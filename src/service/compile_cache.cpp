#include "compile_cache.hpp"

namespace qc::service {

std::size_t
approxProgramBytes(const CompiledProgram &program)
{
    std::size_t n = sizeof(CompiledProgram);
    n += program.mapperName.size() + program.programName.size() +
         program.solverStatus.size();
    n += program.layout.size() * sizeof(HwQubit);
    n += program.junctions.size() * sizeof(int);
    n += program.schedule.ops.size() * sizeof(TimedOp);
    n += program.schedule.macros.size() * sizeof(MacroTiming);
    n += program.schedule.qubitFinish.size() * sizeof(Timeslot);
    for (const StageTrace &t : program.stageTraces)
        n += sizeof(StageTrace) + t.stage.size() + t.pass.size() +
             t.note.size();
    return n;
}

template <typename Value>
LruCache<Value>::LruCache(std::size_t capacity, std::size_t byteCapacity)
    : capacity_(capacity), byteCapacity_(byteCapacity)
{
}

template <typename Value>
Value
LruCache<Value>::lookup(const CacheKey &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second); // promote to MRU
    return it->second->value;
}

template <typename Value>
void
LruCache<Value>::insert(const CacheKey &key, Value value,
                        std::size_t bytes)
{
    if (capacity_ == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.insertions;
    auto it = map_.find(key);
    if (it != map_.end()) {
        bytes_ -= it->second->bytes;
        bytes_ += bytes;
        it->second->value = std::move(value);
        it->second->bytes = bytes;
        lru_.splice(lru_.begin(), lru_, it->second);
        evictLocked();
        return;
    }
    lru_.push_front(Entry{key, std::move(value), bytes});
    map_[key] = lru_.begin();
    bytes_ += bytes;
    evictLocked();
}

template <typename Value>
void
LruCache<Value>::evictLocked()
{
    while (map_.size() > capacity_ ||
           (byteCapacity_ > 0 && bytes_ > byteCapacity_ &&
            map_.size() > 1)) {
        ++stats_.evictions;
        bytes_ -= lru_.back().bytes;
        map_.erase(lru_.back().key);
        lru_.pop_back();
    }
}

template <typename Value>
std::size_t
LruCache<Value>::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
}

template <typename Value>
std::size_t
LruCache<Value>::sizeBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
}

template <typename Value>
CompileCacheStats
LruCache<Value>::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    CompileCacheStats s = stats_;
    s.entries = map_.size();
    s.bytes = bytes_;
    return s;
}

template <typename Value>
void
LruCache<Value>::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    map_.clear();
    bytes_ = 0;
}

void
CompileCache::insert(const CacheKey &key,
                     std::shared_ptr<const CompiledProgram> program)
{
    const std::size_t bytes = program ? approxProgramBytes(*program) : 0;
    LruCache::insert(key, std::move(program), bytes);
}

template class LruCache<std::shared_ptr<const CompiledProgram>>;
/// The daemon's memory tier: encoded program frames.
template class LruCache<std::shared_ptr<const std::string>>;

} // namespace qc::service
