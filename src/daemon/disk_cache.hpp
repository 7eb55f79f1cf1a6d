/**
 * @file
 * Content-addressed on-disk store of compiled programs.
 *
 * One file per cache entry, named by the compile-cache key's three
 * fingerprints — `<circuit>-<calibration>-<options>.ncp` in hex — so
 * the directory itself is the index: a lookup is a single open(), a
 * store is a write-to-temp + atomic rename, and replicas can share a
 * directory without coordination (last rename wins; both writers
 * produced byte-identical blobs anyway, because keys are content
 * fingerprints).
 *
 * Entries are framed by program_serdes.hpp (versioned header +
 * FNV self-checksum). A load verifies the frame before returning;
 * anything corrupt, truncated or written by an older format version
 * is counted, unlinked, and treated as a miss — a damaged cache
 * costs a recompile, never a wrong answer or a crash.
 */

#ifndef QC_DAEMON_DISK_CACHE_HPP
#define QC_DAEMON_DISK_CACHE_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "service/compile_cache.hpp"

namespace qc::daemon {

/** Counters exposed by DiskCacheStore::stats(). */
struct DiskCacheStats
{
    std::uint64_t loads = 0;         ///< successful loads
    std::uint64_t loadMisses = 0;    ///< no file for the key
    std::uint64_t corruptRejected = 0; ///< bad frame/version/checksum
    std::uint64_t stores = 0;        ///< entries written
    std::uint64_t storeFailures = 0; ///< I/O errors while writing
    std::uint64_t bytesWritten = 0;  ///< total frame bytes stored
};

/**
 * Thread-safe file-per-entry store under one cache directory.
 *
 * A default-constructed (or empty-path) store is disabled: loads
 * miss, stores drop — so callers can hold one unconditionally.
 */
class DiskCacheStore
{
  public:
    DiskCacheStore() = default;

    /**
     * @param dir cache directory; created (with parents) if missing.
     *        Throws FatalError when the directory cannot be created.
     *        Temp files a killed store() left behind are removed.
     */
    explicit DiskCacheStore(const std::string &dir);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** The entry file path for a key (valid even when disabled). */
    std::string entryPath(const service::CacheKey &key) const;

    /**
     * Load and validate the entry for `key`, decoding its program into
     * `program`, and return the frame it decoded. Null on miss or when
     * the file fails frame validation (the bad file is unlinked so
     * the next store can heal it).
     */
    std::shared_ptr<const std::string>
    loadFrame(const service::CacheKey &key, CompiledProgram &program);

    /** loadFrame()'s program alone; null on a miss. */
    std::shared_ptr<const CompiledProgram>
    load(const service::CacheKey &key);

    /**
     * Persist an entry's frame, as serializeCompiledProgram() wrote
     * it (write temp file + atomic rename).
     */
    bool storeFrame(const service::CacheKey &key,
                    const std::string &frame);

    /** storeFrame() of the program's frame. */
    bool store(const service::CacheKey &key,
               const CompiledProgram &program);

    /**
     * Unlink the entry for `key` (verify-on-load healing: the frame
     * checksum passed but the program failed validation). Returns
     * true when a file was removed.
     */
    bool remove(const service::CacheKey &key);

    /** Number of .ncp entries currently on disk (directory scan). */
    std::size_t entryCount() const;

    DiskCacheStats stats() const;

  private:
    std::string dir_;
    mutable std::mutex mu_; ///< guards stats_ and temp-name counter
    std::uint64_t tempCounter_ = 0;
    DiskCacheStats stats_;
};

} // namespace qc::daemon

#endif // QC_DAEMON_DISK_CACHE_HPP
