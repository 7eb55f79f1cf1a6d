#include "net.hpp"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace qc::daemon {

namespace {

bool
fillAddress(const std::string &path, sockaddr_un &addr,
            std::string &error)
{
    if (path.size() >= sizeof(addr.sun_path)) {
        error = "socket path too long: " + path;
        return false;
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

std::string
errnoText(const std::string &what)
{
    return what + ": " + std::strerror(errno);
}

} // namespace

int
listenUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillAddress(path, addr, error))
        return -1;

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = errnoText("socket");
        return -1;
    }
    ::unlink(path.c_str()); // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = errnoText("bind");
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) != 0) {
        error = errnoText("listen");
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectUnix(const std::string &path, std::string &error)
{
    sockaddr_un addr;
    if (!fillAddress(path, addr, error))
        return -1;

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        error = errnoText("socket");
        return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        error = errnoText("connect " + path);
        ::close(fd);
        return -1;
    }
    return fd;
}

LineChannel::~LineChannel()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineChannel::readLine(std::string &line)
{
    constexpr std::size_t kReadSize = 4096;
    tooLarge_ = false;
    for (;;) {
        const std::size_t nl = buffer_.find('\n', scanned_);
        if (nl != std::string::npos) {
            std::size_t end = nl;
            if (end > head_ && buffer_[end - 1] == '\r')
                --end;
            tooLarge_ = tooLarge_ || end - head_ > kMaxLineBytes;
            if (tooLarge_)
                line.clear();
            else
                line.assign(buffer_, head_, end - head_);
            head_ = scanned_ = nl + 1;
            return true;
        }
        // No whole line left: drop the returned lines once per refill
        // and read behind the partial line. A partial line over the
        // cap is dropped as well, and so is the rest of it as it comes.
        if (buffer_.size() - head_ > kMaxLineBytes) {
            tooLarge_ = true;
            head_ = buffer_.size();
        }
        buffer_.erase(0, head_);
        head_ = 0;
        scanned_ = buffer_.size();
        buffer_.resize(scanned_ + kReadSize);
        ssize_t n = 0;
        do {
            n = ::read(fd_, buffer_.data() + scanned_, kReadSize);
        } while (n < 0 && errno == EINTR);
        const std::size_t got = n > 0 ? static_cast<std::size_t>(n) : 0;
        buffer_.resize(scanned_ + got);
        if (got == 0)
            return false; // EOF or error; any partial line is dropped
    }
}

bool
LineChannel::writeLine(const std::string &line)
{
    return writeText(line + "\n");
}

bool
LineChannel::writeText(const std::string &text)
{
    std::size_t sent = 0;
    while (sent < text.size()) {
        ssize_t n =
            ::write(fd_, text.data() + sent, text.size() - sent);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace qc::daemon
