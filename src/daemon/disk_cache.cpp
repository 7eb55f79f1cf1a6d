#include "disk_cache.hpp"

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "daemon/program_serdes.hpp"
#include "support/logging.hpp"

namespace qc::daemon {

namespace fs = std::filesystem;

namespace {

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * Read the whole file at `path` with one read sized from fstat. False
 * when the file cannot be opened; a short or failed read leaves the
 * bytes read so far, which then fail frame validation.
 */
bool
readFile(const std::string &path, std::string &bytes)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st {};
    if (::fstat(fd, &st) == 0 && st.st_size > 0)
        bytes.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < bytes.size()) {
        const ssize_t n =
            ::read(fd, bytes.data() + got, bytes.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    bytes.resize(got);
    ::close(fd);
    return true;
}

} // namespace

DiskCacheStore::DiskCacheStore(const std::string &dir) : dir_(dir)
{
    if (dir_.empty())
        return;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        QC_FATAL("cannot create cache directory '", dir_,
                 "': ", ec.message());
    // A kill between store()'s write and its rename leaves a temp file
    // that nothing reads or removes: sweep them once, here. A replica
    // sharing the directory loses at most a store in flight, which
    // counts as a store failure.
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        if (entry.path().filename().string().find(".ncp.tmp.") !=
            std::string::npos) {
            std::error_code ignored;
            fs::remove(entry.path(), ignored);
        }
    }
}

std::string
DiskCacheStore::entryPath(const service::CacheKey &key) const
{
    return dir_ + "/" + hex16(key.circuit) + "-" +
           hex16(key.calibration) + "-" + hex16(key.options) + ".ncp";
}

std::shared_ptr<const std::string>
DiskCacheStore::loadFrame(const service::CacheKey &key,
                          CompiledProgram &program)
{
    if (!enabled())
        return nullptr;
    const std::string path = entryPath(key);
    std::string bytes;
    if (!readFile(path, bytes)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.loadMisses;
        return nullptr;
    }

    if (!deserializeCompiledProgram(bytes, program)) {
        // Corrupt/stale entry: drop it so a later store can heal the
        // slot, and report a miss — the caller recompiles.
        std::error_code ec;
        fs::remove(path, ec);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.corruptRejected;
        return nullptr;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.loads;
    return std::make_shared<const std::string>(std::move(bytes));
}

std::shared_ptr<const CompiledProgram>
DiskCacheStore::load(const service::CacheKey &key)
{
    auto program = std::make_shared<CompiledProgram>();
    if (!loadFrame(key, *program))
        return nullptr;
    return program;
}

bool
DiskCacheStore::remove(const service::CacheKey &key)
{
    if (!enabled())
        return false;
    std::error_code ec;
    return fs::remove(entryPath(key), ec) && !ec;
}

bool
DiskCacheStore::store(const service::CacheKey &key,
                      const CompiledProgram &program)
{
    return enabled() && storeFrame(key, serializeCompiledProgram(program));
}

bool
DiskCacheStore::storeFrame(const service::CacheKey &key,
                           const std::string &frame)
{
    if (!enabled())
        return false;
    const std::string path = entryPath(key);

    std::uint64_t serial = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        serial = tempCounter_++;
    }
    // Unique temp name per in-flight writer, then an atomic rename:
    // readers only ever see complete entries.
    const std::string temp =
        path + ".tmp." + std::to_string(serial);

    bool ok = false;
    {
        std::ofstream out(temp,
                          std::ios::binary | std::ios::trunc);
        ok = static_cast<bool>(out.write(frame.data(),
                                         static_cast<std::streamsize>(
                                             frame.size())));
        ok = ok && static_cast<bool>(out.flush());
    }
    if (ok) {
        std::error_code ec;
        fs::rename(temp, path, ec);
        ok = !ec;
    }
    if (!ok) {
        std::error_code ec;
        fs::remove(temp, ec);
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
        ++stats_.stores;
        stats_.bytesWritten += frame.size();
    } else {
        ++stats_.storeFailures;
    }
    return ok;
}

std::size_t
DiskCacheStore::entryCount() const
{
    if (!enabled())
        return 0;
    std::size_t n = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir_, ec))
        if (entry.path().extension() == ".ncp")
            ++n;
    return n;
}

DiskCacheStats
DiskCacheStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace qc::daemon
