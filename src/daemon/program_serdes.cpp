#include "program_serdes.hpp"

#include <algorithm>
#include <cstring>

#include "support/fingerprint.hpp"

namespace qc::daemon {

namespace {

constexpr char kMagic[4] = {'N', 'Q', 'C', 'P'};

/** @name Frame header layout: magic, u32 version, u64 size, u64 checksum.
 *  @{ */
constexpr std::size_t kSizeOffset = sizeof(kMagic) + 4;
constexpr std::size_t kChecksumOffset = kSizeOffset + 8;
constexpr std::size_t kHeaderSize = kChecksumOffset + 8;
/** @} */

/** Store `v` little-endian in the sizeof(T) bytes at `at`. */
template <typename T>
void
storeLittleEndian(char *at, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        at[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/**
 * Little-endian byte sink: writes through a cursor into a buffer that
 * grows geometrically, and can patch bytes it already wrote.
 */
class ByteWriter
{
  public:
    explicit ByteWriter(std::size_t capacity) : bytes_(capacity, '\0') {}

    void
    putBytes(const char *data, std::size_t n)
    {
        std::memcpy(claim(n), data, n);
    }

    void
    putU8(std::uint8_t v)
    {
        *claim(1) = static_cast<char>(v);
    }

    void
    putU32(std::uint32_t v)
    {
        storeLittleEndian(claim(4), v);
    }

    void
    putU64(std::uint64_t v)
    {
        storeLittleEndian(claim(8), v);
    }

    void
    putI32(std::int32_t v)
    {
        putU32(static_cast<std::uint32_t>(v));
    }

    void
    putI64(std::int64_t v)
    {
        putU64(static_cast<std::uint64_t>(v));
    }

    void
    putDouble(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        putU64(bits);
    }

    void
    putString(const std::string &s)
    {
        putU64(s.size());
        putBytes(s.data(), s.size());
    }

    /** Overwrite the 8 bytes written at `offset`. */
    void
    patchU64(std::size_t offset, std::uint64_t v)
    {
        storeLittleEndian(bytes_.data() + offset, v);
    }

    const char *data() const { return bytes_.data(); }
    std::size_t size() const { return size_; }

    std::string
    take()
    {
        bytes_.resize(size_);
        return std::move(bytes_);
    }

  private:
    /** The next `n` bytes of the buffer, doubling it if they do not fit. */
    char *
    claim(std::size_t n)
    {
        if (n > bytes_.size() - size_)
            bytes_.resize(std::max(2 * bytes_.size(), size_ + n));
        char *at = bytes_.data() + size_;
        size_ += n;
        return at;
    }

    std::string bytes_;
    std::size_t size_ = 0;
};

/** Bounds-checked little-endian reader; every get reports success. */
class ByteReader
{
  public:
    ByteReader(const char *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    bool
    getU8(std::uint8_t &v)
    {
        if (pos_ + 1 > size_)
            return false;
        v = static_cast<std::uint8_t>(data_[pos_++]);
        return true;
    }

    bool
    getU32(std::uint32_t &v)
    {
        if (pos_ + 4 > size_)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return true;
    }

    bool
    getU64(std::uint64_t &v)
    {
        if (pos_ + 8 > size_)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(data_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return true;
    }

    bool
    getI32(std::int32_t &v)
    {
        std::uint32_t u = 0;
        if (!getU32(u))
            return false;
        v = static_cast<std::int32_t>(u);
        return true;
    }

    bool
    getI64(std::int64_t &v)
    {
        std::uint64_t u = 0;
        if (!getU64(u))
            return false;
        v = static_cast<std::int64_t>(u);
        return true;
    }

    bool
    getDouble(double &v)
    {
        std::uint64_t bits = 0;
        if (!getU64(bits))
            return false;
        std::memcpy(&v, &bits, sizeof(v));
        return true;
    }

    bool
    getString(std::string &s)
    {
        std::uint64_t n = 0;
        if (!getU64(n) || n > size_ - pos_)
            return false;
        s.assign(data_ + pos_, static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return true;
    }

    /** Element count prefix, sanity-capped against remaining bytes. */
    bool
    getCount(std::uint64_t &n, std::size_t min_elem_bytes)
    {
        if (!getU64(n))
            return false;
        // A count implying more elements than bytes left is corrupt;
        // rejecting it here keeps reserve() calls from exploding.
        return min_elem_bytes == 0 ||
               n <= (size_ - pos_) / min_elem_bytes;
    }

    bool
    atEnd() const
    {
        return pos_ == size_;
    }

  private:
    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

void
putGate(ByteWriter &w, const Gate &g)
{
    w.putU8(static_cast<std::uint8_t>(g.op));
    w.putI32(g.q0);
    w.putI32(g.q1);
    w.putI32(g.cbit);
}

bool
getGate(ByteReader &r, Gate &g)
{
    std::uint8_t op = 0;
    if (!r.getU8(op) || op > static_cast<std::uint8_t>(Op::Measure))
        return false;
    g.op = static_cast<Op>(op);
    return r.getI32(g.q0) && r.getI32(g.q1) && r.getI32(g.cbit);
}

/** Payload bytes of a program: its arrays, plus slack for the rest. */
std::size_t
payloadSizeHint(const CompiledProgram &p)
{
    const Schedule &s = p.schedule;
    return 1024 + 4 * (p.layout.size() + p.junctions.size()) +
           34 * s.ops.size() + 20 * s.macros.size() +
           8 * s.qubitFinish.size();
}

void
putPayload(ByteWriter &w, const CompiledProgram &p)
{
    w.putString(p.mapperName);
    w.putString(p.programName);

    w.putU64(p.layout.size());
    for (HwQubit h : p.layout)
        w.putI32(h);
    w.putU64(p.junctions.size());
    for (int j : p.junctions)
        w.putI32(j);

    const Schedule &s = p.schedule;
    w.putI32(s.numHwQubits);
    w.putU64(s.ops.size());
    for (const TimedOp &op : s.ops) {
        putGate(w, op.gate);
        w.putI64(op.start);
        w.putI64(op.duration);
        w.putI32(op.progGate);
        w.putU8(op.isRouteSwap ? 1 : 0);
    }
    w.putU64(s.macros.size());
    for (const MacroTiming &m : s.macros) {
        w.putI32(m.progGate);
        w.putI64(m.start);
        w.putI64(m.duration);
    }
    w.putI64(s.makespan);
    w.putU64(s.qubitFinish.size());
    for (Timeslot t : s.qubitFinish)
        w.putI64(t);

    w.putI64(p.duration);
    w.putDouble(p.logReliability);
    w.putDouble(p.predictedSuccess);
    w.putI32(p.swapCount);
    w.putDouble(p.compileSeconds);
    w.putU8(p.solverOptimal ? 1 : 0);
    w.putString(p.solverStatus);

    w.putU64(p.stageTraces.size());
    for (const StageTrace &t : p.stageTraces) {
        w.putString(t.stage);
        w.putString(t.pass);
        w.putDouble(t.seconds);
        w.putString(t.note);
    }
}

bool
deserializePayload(const char *data, std::size_t size,
                   CompiledProgram &p)
{
    ByteReader r(data, size);
    if (!r.getString(p.mapperName) || !r.getString(p.programName))
        return false;

    std::uint64_t n = 0;
    if (!r.getCount(n, 4))
        return false;
    p.layout.resize(static_cast<std::size_t>(n));
    for (HwQubit &h : p.layout)
        if (!r.getI32(h))
            return false;
    if (!r.getCount(n, 4))
        return false;
    p.junctions.resize(static_cast<std::size_t>(n));
    for (int &j : p.junctions)
        if (!r.getI32(j))
            return false;

    Schedule &s = p.schedule;
    if (!r.getI32(s.numHwQubits) || !r.getCount(n, 30))
        return false;
    s.ops.resize(static_cast<std::size_t>(n));
    for (TimedOp &op : s.ops) {
        std::uint8_t swap_flag = 0;
        if (!getGate(r, op.gate) || !r.getI64(op.start) ||
            !r.getI64(op.duration) || !r.getI32(op.progGate) ||
            !r.getU8(swap_flag))
            return false;
        op.isRouteSwap = swap_flag != 0;
    }
    if (!r.getCount(n, 20))
        return false;
    s.macros.resize(static_cast<std::size_t>(n));
    for (MacroTiming &m : s.macros)
        if (!r.getI32(m.progGate) || !r.getI64(m.start) ||
            !r.getI64(m.duration))
            return false;
    if (!r.getI64(s.makespan) || !r.getCount(n, 8))
        return false;
    s.qubitFinish.resize(static_cast<std::size_t>(n));
    for (Timeslot &t : s.qubitFinish)
        if (!r.getI64(t))
            return false;

    std::uint8_t optimal = 0;
    if (!r.getI64(p.duration) || !r.getDouble(p.logReliability) ||
        !r.getDouble(p.predictedSuccess) || !r.getI32(p.swapCount) ||
        !r.getDouble(p.compileSeconds) || !r.getU8(optimal) ||
        !r.getString(p.solverStatus))
        return false;
    p.solverOptimal = optimal != 0;

    if (!r.getCount(n, 28))
        return false;
    p.stageTraces.resize(static_cast<std::size_t>(n));
    for (StageTrace &t : p.stageTraces)
        if (!r.getString(t.stage) || !r.getString(t.pass) ||
            !r.getDouble(t.seconds) || !r.getString(t.note))
            return false;
    return r.atEnd();
}

} // namespace

std::string
serializeCompiledProgram(const CompiledProgram &program)
{
    // The header goes in first with its size and checksum zeroed; both
    // are patched in once the payload is written behind it.
    ByteWriter w(kHeaderSize + payloadSizeHint(program));
    w.putBytes(kMagic, sizeof(kMagic));
    w.putU32(kProgramSerdesVersion);
    w.putU64(0);
    w.putU64(0);
    putPayload(w, program);
    const std::size_t payload_size = w.size() - kHeaderSize;
    Fingerprint fp;
    fp.mixBytes(w.data() + kHeaderSize, payload_size);
    w.patchU64(kSizeOffset, payload_size);
    w.patchU64(kChecksumOffset, fp.value());
    return w.take();
}

bool
deserializeCompiledProgram(const std::string &bytes,
                           CompiledProgram &out)
{
    if (bytes.size() < kHeaderSize)
        return false;
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return false;
    ByteReader r(bytes.data() + sizeof(kMagic),
                 bytes.size() - sizeof(kMagic));
    std::uint32_t version = 0;
    std::uint64_t payload_size = 0;
    std::uint64_t checksum = 0;
    if (!r.getU32(version) || version != kProgramSerdesVersion)
        return false;
    if (!r.getU64(payload_size) || !r.getU64(checksum))
        return false;
    if (bytes.size() != kHeaderSize + payload_size)
        return false;
    const char *payload = bytes.data() + kHeaderSize;
    Fingerprint fp;
    fp.mixBytes(payload, static_cast<std::size_t>(payload_size));
    if (fp.value() != checksum)
        return false;
    return deserializePayload(
        payload, static_cast<std::size_t>(payload_size), out);
}

} // namespace qc::daemon
