/**
 * @file
 * Minimal Unix-domain-socket plumbing for the compile daemon.
 *
 * Wraps the handful of POSIX calls naqcd and naqc-client need —
 * listen on / connect to a filesystem socket path, and read/write
 * '\n'-delimited lines over a file descriptor — so the tools stay
 * free of raw socket code. Blocking I/O only; the daemon uses one
 * thread per connection and a poll(2) loop around accept.
 */

#ifndef QC_DAEMON_NET_HPP
#define QC_DAEMON_NET_HPP

#include <cstddef>
#include <string>

namespace qc::daemon {

/**
 * Create, bind, and listen on a Unix stream socket at `path`. Any
 * stale socket file at `path` is removed first. Returns the listening
 * fd, or -1 with `error` filled in.
 */
int listenUnix(const std::string &path, std::string &error);

/**
 * Connect to the Unix stream socket at `path`. Returns the connected
 * fd, or -1 with `error` filled in.
 */
int connectUnix(const std::string &path, std::string &error);

/** Longest line LineChannel::readLine() returns: 1 MiB. */
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/**
 * Buffered line-oriented reader/writer over one socket fd. Owns the
 * fd and closes it on destruction.
 */
class LineChannel
{
  public:
    explicit LineChannel(int fd) : fd_(fd) {}
    ~LineChannel();

    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;

    /**
     * Read one line (without the trailing '\n') into `line`. Returns
     * false on EOF or error with nothing (or a partial final line)
     * pending. A line longer than kMaxLineBytes is read and discarded
     * up to its '\n', so the buffer stays bounded and the stream in
     * step: it comes back as true, an empty `line` and lineTooLarge().
     */
    bool readLine(std::string &line);

    /** Whether the line readLine() last returned was over the cap. */
    bool lineTooLarge() const { return tooLarge_; }

    /** Write `line` plus '\n'; false on error. */
    bool writeLine(const std::string &line);

    /** Write raw text exactly as given; false on error. */
    bool writeText(const std::string &text);

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
    std::string buffer_;      ///< bytes read; those before head_ returned
    std::size_t head_ = 0;    ///< start of the first unreturned line
    std::size_t scanned_ = 0; ///< no '\n' in [head_, scanned_)
    bool tooLarge_ = false;   ///< the line being read is over the cap
};

} // namespace qc::daemon

#endif // QC_DAEMON_NET_HPP
