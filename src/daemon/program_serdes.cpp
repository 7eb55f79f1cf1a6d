#include "program_serdes.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "support/fingerprint.hpp"

namespace qc::daemon {

namespace {

constexpr char kMagic[4] = {'N', 'Q', 'C', 'P'};

/** @name Frame header layout: magic, u32 version, u64 size, u64 checksum.
 *  @{ */
constexpr std::size_t kVersionOffset = sizeof(kMagic);
constexpr std::size_t kSizeOffset = kVersionOffset + 4;
constexpr std::size_t kChecksumOffset = kSizeOffset + 8;
constexpr std::size_t kHeaderSize = kChecksumOffset + 8;
/** @} */

/** Longest LEB128 encoding of a 64-bit value. */
constexpr std::size_t kMaxVarintBytes = 10;

/** A TimedOp's tag byte: its op, and isRouteSwap in the high bit. */
constexpr std::uint8_t kRouteSwapBit = 0x80;

/** @name Fewest bytes an element encodes to: the cap on its count.
 *  @{ */
constexpr std::size_t kMinIntBytes = 1;
constexpr std::size_t kMinOpBytes = 7;     ///< tag + six varints
constexpr std::size_t kMinMacroBytes = 3;  ///< three varints
constexpr std::size_t kMinTraceBytes = 11; ///< three lengths + a double
/** @} */

/** Zigzag: small magnitudes of either sign become small values. */
std::uint64_t
zigzag(std::uint64_t v)
{
    return (v << 1) ^ (0 - (v >> 63));
}

std::uint64_t
unzigzag(std::uint64_t z)
{
    return (z >> 1) ^ (0 - (z & 1));
}

/** Store `v` little-endian in the sizeof(T) bytes at `at`. */
template <typename T>
void
storeLittleEndian(char *at, T v)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        at[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/** The little-endian T in the sizeof(T) bytes at `at`. */
template <typename T>
T
loadLittleEndian(const char *at)
{
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(static_cast<unsigned char>(at[i])) << (8 * i);
    return v;
}

/**
 * Byte sink: writes through a cursor into a buffer that grows
 * geometrically, and can patch bytes it already wrote.
 */
class ByteWriter
{
  public:
    explicit ByteWriter(std::size_t capacity) : bytes_(capacity, '\0') {}

    void
    putBytes(const char *data, std::size_t n)
    {
        std::memcpy(room(n), data, n);
        size_ += n;
    }

    void
    putU8(std::uint8_t v)
    {
        *room(1) = static_cast<char>(v);
        ++size_;
    }

    /** Little-endian, in sizeof(T) bytes. */
    template <typename T>
    void
    putFixed(T v)
    {
        storeLittleEndian(room(sizeof(T)), v);
        size_ += sizeof(T);
    }

    /** LEB128: seven bits a byte, low bits first. */
    void
    putVarint(std::uint64_t v)
    {
        char *at = room(kMaxVarintBytes);
        std::size_t n = 0;
        for (; v >= 0x80; v >>= 7)
            at[n++] = static_cast<char>(v | 0x80);
        at[n++] = static_cast<char>(v);
        size_ += n;
    }

    void
    putSigned(std::int64_t v)
    {
        putVarint(zigzag(static_cast<std::uint64_t>(v)));
    }

    /** `v` as its difference from `prev`, in wrapping arithmetic. */
    void
    putDelta(std::int64_t prev, std::int64_t v)
    {
        putVarint(zigzag(static_cast<std::uint64_t>(v) -
                         static_cast<std::uint64_t>(prev)));
    }

    void
    putDouble(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        putFixed(bits);
    }

    void
    putString(const std::string &s)
    {
        putVarint(s.size());
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

    /**
     * The bytes written, allocated at exactly their size: a frame may
     * live long in a cache, and the buffer is sized for a worst case.
     */
    std::string take() const { return std::string(bytes_.data(), size_); }

  private:
    /** The next `n` bytes of the buffer, doubling it if they do not fit. */
    char *
    room(std::size_t n)
    {
        if (n > bytes_.size() - size_)
            bytes_.resize(std::max(2 * bytes_.size(), size_ + n));
        return bytes_.data() + size_;
    }

    std::string bytes_;
    std::size_t size_ = 0;
};

/**
 * Bounds-checked reader of what ByteWriter writes; every get reports
 * success, and rejects a value its field cannot hold.
 */
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
        if (pos_ == size_)
            return false;
        v = static_cast<std::uint8_t>(data_[pos_++]);
        return true;
    }

    /** LEB128 of at most 10 bytes whose value fits in 64 bits. */
    bool
    getVarint(std::uint64_t &v)
    {
        v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (pos_ == size_)
                return false;
            const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
            const std::uint64_t bits = byte & 0x7f;
            if (shift == 63 && bits > 1)
                return false; // bits past the 64th
            v |= bits << shift;
            if (!(byte & 0x80))
                return true;
        }
        return false; // an eleventh byte would follow
    }

    bool
    getSigned(std::int64_t &v)
    {
        std::uint64_t z = 0;
        if (!getVarint(z))
            return false;
        v = static_cast<std::int64_t>(unzigzag(z));
        return true;
    }

    bool
    getInt(int &v)
    {
        std::int64_t wide = 0;
        if (!getSigned(wide) || !fitsInt(wide))
            return false;
        v = static_cast<int>(wide);
        return true;
    }

    /** `prev` plus a stored difference, in wrapping arithmetic. */
    bool
    getDelta(std::int64_t prev, std::int64_t &v)
    {
        std::uint64_t z = 0;
        if (!getVarint(z))
            return false;
        v = static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) +
                                      unzigzag(z));
        return true;
    }

    bool
    getIntDelta(int prev, int &v)
    {
        std::int64_t wide = 0;
        if (!getDelta(prev, wide) || !fitsInt(wide))
            return false;
        v = static_cast<int>(wide);
        return true;
    }

    bool
    getDouble(double &v)
    {
        if (size_ - pos_ < 8)
            return false;
        const auto bits = loadLittleEndian<std::uint64_t>(data_ + pos_);
        std::memcpy(&v, &bits, sizeof(v));
        pos_ += 8;
        return true;
    }

    bool
    getString(std::string &s)
    {
        std::uint64_t n = 0;
        if (!getVarint(n) || n > size_ - pos_)
            return false;
        s.assign(data_ + pos_, static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return true;
    }

    /**
     * An element count, rejected when the bytes left cannot hold that
     * many elements of `min_elem_bytes` each: every resize stays a
     * small multiple of the frame.
     */
    bool
    getCount(std::size_t &n, std::size_t min_elem_bytes)
    {
        std::uint64_t count = 0;
        if (!getVarint(count) || count > (size_ - pos_) / min_elem_bytes)
            return false;
        n = static_cast<std::size_t>(count);
        return true;
    }

    bool
    atEnd() const
    {
        return pos_ == size_;
    }

  private:
    static bool
    fitsInt(std::int64_t v)
    {
        return v >= std::numeric_limits<int>::min() &&
               v <= std::numeric_limits<int>::max();
    }

    const char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Payload bytes of a program: a little over what it usually takes. */
std::size_t
payloadSizeHint(const CompiledProgram &p)
{
    const Schedule &s = p.schedule;
    return 256 + 2 * (p.layout.size() + p.junctions.size()) +
           12 * s.ops.size() + 6 * s.macros.size() +
           4 * s.qubitFinish.size();
}

void
putPayload(ByteWriter &w, const CompiledProgram &p)
{
    w.putString(p.mapperName);
    w.putString(p.programName);

    w.putVarint(p.layout.size());
    for (HwQubit h : p.layout)
        w.putSigned(h);
    w.putVarint(p.junctions.size());
    for (int j : p.junctions)
        w.putSigned(j);

    const Schedule &s = p.schedule;
    w.putSigned(s.numHwQubits);
    w.putVarint(s.ops.size());
    Timeslot start = 0;
    int prog_gate = 0;
    for (const TimedOp &op : s.ops) {
        w.putU8(static_cast<std::uint8_t>(
            static_cast<std::uint8_t>(op.gate.op) |
            (op.isRouteSwap ? kRouteSwapBit : 0)));
        w.putSigned(op.gate.q0);
        w.putSigned(op.gate.q1);
        w.putSigned(op.gate.cbit);
        w.putDelta(start, op.start);
        w.putSigned(op.duration);
        w.putDelta(prog_gate, op.progGate);
        start = op.start;
        prog_gate = op.progGate;
    }
    w.putVarint(s.macros.size());
    start = 0;
    prog_gate = 0;
    for (const MacroTiming &m : s.macros) {
        w.putDelta(prog_gate, m.progGate);
        w.putDelta(start, m.start);
        w.putSigned(m.duration);
        start = m.start;
        prog_gate = m.progGate;
    }
    w.putSigned(s.makespan);
    w.putVarint(s.qubitFinish.size());
    for (Timeslot t : s.qubitFinish)
        w.putSigned(t);

    w.putSigned(p.duration);
    w.putDouble(p.logReliability);
    w.putDouble(p.predictedSuccess);
    w.putSigned(p.swapCount);
    w.putDouble(p.compileSeconds);
    w.putU8(p.solverOptimal ? 1 : 0);
    w.putString(p.solverStatus);

    w.putVarint(p.stageTraces.size());
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
    std::size_t n = 0;
    if (!r.getString(p.mapperName) || !r.getString(p.programName) ||
        !r.getCount(n, kMinIntBytes))
        return false;
    p.layout.resize(n);
    for (HwQubit &h : p.layout)
        if (!r.getInt(h))
            return false;
    if (!r.getCount(n, kMinIntBytes))
        return false;
    p.junctions.resize(n);
    for (int &j : p.junctions)
        if (!r.getInt(j))
            return false;

    Schedule &s = p.schedule;
    if (!r.getInt(s.numHwQubits) || !r.getCount(n, kMinOpBytes))
        return false;
    s.ops.resize(n);
    Timeslot start = 0;
    int prog_gate = 0;
    for (TimedOp &op : s.ops) {
        std::uint8_t tag = 0;
        if (!r.getU8(tag))
            return false;
        const auto code = static_cast<std::uint8_t>(tag & ~kRouteSwapBit);
        if (code > static_cast<std::uint8_t>(Op::Measure))
            return false;
        op.gate.op = static_cast<Op>(code);
        op.isRouteSwap = (tag & kRouteSwapBit) != 0;
        if (!r.getInt(op.gate.q0) || !r.getInt(op.gate.q1) ||
            !r.getInt(op.gate.cbit) || !r.getDelta(start, op.start) ||
            !r.getSigned(op.duration) ||
            !r.getIntDelta(prog_gate, op.progGate))
            return false;
        start = op.start;
        prog_gate = op.progGate;
    }
    if (!r.getCount(n, kMinMacroBytes))
        return false;
    s.macros.resize(n);
    start = 0;
    prog_gate = 0;
    for (MacroTiming &m : s.macros) {
        if (!r.getIntDelta(prog_gate, m.progGate) ||
            !r.getDelta(start, m.start) || !r.getSigned(m.duration))
            return false;
        start = m.start;
        prog_gate = m.progGate;
    }
    if (!r.getSigned(s.makespan) || !r.getCount(n, kMinIntBytes))
        return false;
    s.qubitFinish.resize(n);
    for (Timeslot &t : s.qubitFinish)
        if (!r.getSigned(t))
            return false;

    std::uint8_t optimal = 0;
    if (!r.getSigned(p.duration) || !r.getDouble(p.logReliability) ||
        !r.getDouble(p.predictedSuccess) || !r.getInt(p.swapCount) ||
        !r.getDouble(p.compileSeconds) || !r.getU8(optimal) ||
        optimal > 1 || !r.getString(p.solverStatus))
        return false;
    p.solverOptimal = optimal != 0;

    if (!r.getCount(n, kMinTraceBytes))
        return false;
    p.stageTraces.resize(n);
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
    w.putFixed(kProgramSerdesVersion);
    w.putFixed(std::uint64_t{0});
    w.putFixed(std::uint64_t{0});
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
    const char *at = bytes.data();
    if (bytes.size() < kHeaderSize ||
        std::memcmp(at, kMagic, sizeof(kMagic)) != 0 ||
        loadLittleEndian<std::uint32_t>(at + kVersionOffset) !=
            kProgramSerdesVersion)
        return false;
    const std::size_t payload_size = bytes.size() - kHeaderSize;
    if (loadLittleEndian<std::uint64_t>(at + kSizeOffset) != payload_size)
        return false;
    Fingerprint fp;
    fp.mixBytes(at + kHeaderSize, payload_size);
    if (fp.value() != loadLittleEndian<std::uint64_t>(at + kChecksumOffset))
        return false;
    return deserializePayload(at + kHeaderSize, payload_size, out);
}

} // namespace qc::daemon
