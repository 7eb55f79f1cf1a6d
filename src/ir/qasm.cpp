#include "qasm.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <string_view>
#include <vector>

#include "support/logging.hpp"

namespace qc {

namespace {

constexpr std::string_view kPreamble =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

/** Decimal digits of the largest index below `width` (at least 1). */
std::size_t
indexDigits(int width)
{
    std::size_t digits = 1;
    for (int v = width - 1; v >= 10; v /= 10)
        ++digits;
    return digits;
}

/** Writes text through a cursor into a buffer sized beforehand. */
class TextWriter
{
  public:
    TextWriter(char *at, char *end) : at_(at), end_(end) {}

    TextWriter &
    operator<<(std::string_view s)
    {
        std::memcpy(at_, s.data(), s.size());
        at_ += s.size();
        return *this;
    }

    TextWriter &
    operator<<(int v)
    {
        at_ = std::to_chars(at_, end_, v).ptr;
        return *this;
    }

    char *at() const { return at_; }

  private:
    char *at_;
    char *end_;
};

} // namespace

std::string
emitQasm(const Circuit &circuit)
{
    // Every operand is below its register's width, so each line has a
    // known bound and the text is sized once.
    const std::size_t q = indexDigits(circuit.numQubits());
    const std::size_t c = indexDigits(circuit.numClbits());
    const std::size_t reg_line =
        10 + std::numeric_limits<int>::digits10 + 1; // qreg q[n];
    const std::size_t cx_line = 12 + 2 * q;          // cx q[a],q[b];
    std::size_t size = 3 + circuit.name().size() + 1 + kPreamble.size() +
                       2 * reg_line;
    for (const auto &g : circuit.gates()) {
        switch (g.op) {
          case Op::Swap: size += 3 * cx_line; break;
          case Op::CNOT: size += cx_line; break;
          case Op::Measure: size += 20 + q + c; break; // measure q[a] -> c[b];
          default: size += 9 + q; break;               // sdg q[a];
        }
    }

    std::string out(size, '\0');
    TextWriter w(out.data(), out.data() + out.size());
    w << "// " << circuit.name() << "\n" << kPreamble;
    w << "qreg q[" << circuit.numQubits() << "];\n";
    w << "creg c[" << circuit.numClbits() << "];\n";
    for (const auto &g : circuit.gates()) {
        switch (g.op) {
          case Op::Swap:
            // SWAP(a, b) := CX a,b; CX b,a; CX a,b (footnote 2).
            w << "cx q[" << g.q0 << "],q[" << g.q1 << "];\n";
            w << "cx q[" << g.q1 << "],q[" << g.q0 << "];\n";
            w << "cx q[" << g.q0 << "],q[" << g.q1 << "];\n";
            break;
          case Op::CNOT:
            w << "cx q[" << g.q0 << "],q[" << g.q1 << "];\n";
            break;
          case Op::Measure:
            w << "measure q[" << g.q0 << "] -> c[" << g.cbit << "];\n";
            break;
          default:
            w << opName(g.op) << " q[" << g.q0 << "];\n";
            break;
        }
    }
    out.resize(static_cast<std::size_t>(w.at() - out.data()));
    return out;
}

namespace {

/** @name The <cctype> classes the parser uses, as in the "C" locale.
 *  @{ */
bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool isDigit(char c) { return c >= '0' && c <= '9'; }

bool
isIdentChar(char c)
{
    return isDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           c == '_';
}
/** @} */

/** One statement's comment-stripped body within the shared buffer. */
struct StmtSpan
{
    std::size_t offset;
    std::size_t length;
    int line;
};

/** Cursor over one QASM statement's text. */
struct StmtCursor
{
    std::string_view text;
    size_t pos = 0;
    int line;

    void
    skipSpace()
    {
        while (pos < text.size() && isSpace(text[pos]))
            ++pos;
    }

    std::string_view
    ident()
    {
        skipSpace();
        size_t start = pos;
        while (pos < text.size() && isIdentChar(text[pos]))
            ++pos;
        if (start == pos)
            QC_FATAL("qasm line ", line, ": expected identifier");
        return text.substr(start, pos - start);
    }

    int
    number()
    {
        skipSpace();
        size_t start = pos;
        while (pos < text.size() && isDigit(text[pos]))
            ++pos;
        if (start == pos)
            QC_FATAL("qasm line ", line, ": expected number");
        // Accumulate with an overflow guard: an oversized literal
        // (q[99999999999]) must be a parse diagnostic with the line
        // number, not std::out_of_range escaping the parser.
        long long value = 0;
        for (size_t i = start; i < pos; ++i) {
            value = value * 10 + (text[i] - '0');
            if (value > std::numeric_limits<int>::max())
                QC_FATAL("qasm line ", line, ": number '",
                         text.substr(start, pos - start),
                         "' out of range");
        }
        return static_cast<int>(value);
    }

    void
    expect(char c)
    {
        skipSpace();
        if (pos >= text.size() || text[pos] != c)
            QC_FATAL("qasm line ", line, ": expected '", c, "'");
        ++pos;
    }

    bool
    accept(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    /** Parse "name[index]" and return the index. */
    int
    indexedRef()
    {
        ident();
        expect('[');
        int idx = number();
        expect(']');
        return idx;
    }
};

} // namespace

Circuit
parseQasm(const std::string &text, const std::string &name)
{
    // Split into statements at ';' in one pass, tracking line numbers
    // and stripping '//' comments. The bodies go back to back into one
    // buffer. A newline inside a statement becomes a space; whitespace
    // before a statement's first character is dropped, so each
    // statement records the line its first real character is on.
    std::string body;
    body.reserve(text.size());
    std::vector<StmtSpan> stmts;
    {
        std::size_t start = 0; // the open statement's offset in body
        int line = 1;
        int stmt_line = 1;
        for (size_t i = 0; i < text.size(); ++i) {
            char c = text[i];
            if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
                i = std::min(text.find('\n', i), text.size());
                ++line;
                continue;
            }
            if (c == '\n') {
                ++line;
                if (body.size() > start)
                    body += ' ';
                continue;
            }
            if (c == ';') {
                if (body.size() > start)
                    stmts.push_back({start, body.size() - start, stmt_line});
                start = body.size();
                continue;
            }
            if (body.size() == start) {
                if (isSpace(c))
                    continue;
                stmt_line = line;
            }
            body += c;
        }
        if (body.size() > start)
            QC_FATAL("qasm: trailing statement without ';'");
    }

    int n_qubits = -1;
    int n_clbits = -1;
    struct PendingGate
    {
        Gate gate;
        int line;
    };
    std::vector<PendingGate> pending;
    pending.reserve(stmts.size());

    const std::string_view bodies(body);
    for (const StmtSpan &stmt : stmts) {
        const int line = stmt.line;
        StmtCursor cur{bodies.substr(stmt.offset, stmt.length), 0, line};
        const std::string_view head = cur.ident();

        if (head == "OPENQASM") {
            continue; // version payload ignored
        } else if (head == "include") {
            continue;
        } else if (head == "barrier") {
            continue;
        } else if (head == "qreg") {
            n_qubits = cur.indexedRef();
        } else if (head == "creg") {
            n_clbits = cur.indexedRef();
        } else if (head == "measure") {
            cur.ident();
            cur.expect('[');
            int q = cur.number();
            cur.expect(']');
            cur.expect('-');
            cur.expect('>');
            cur.ident();
            cur.expect('[');
            int c = cur.number();
            cur.expect(']');
            pending.push_back({{Op::Measure, q, kInvalidQubit, c}, line});
        } else {
            Op op;
            if (!opFromName(head, op))
                QC_FATAL("qasm line ", line, ": unknown gate '", head, "'");
            cur.ident();
            cur.expect('[');
            int q0 = cur.number();
            cur.expect(']');
            int q1 = kInvalidQubit;
            if (cur.accept(',')) {
                cur.ident();
                cur.expect('[');
                q1 = cur.number();
                cur.expect(']');
            }
            if (opIsTwoQubit(op) && q1 == kInvalidQubit)
                QC_FATAL("qasm line ", line, ": ", head,
                         " needs two operands");
            pending.push_back({{op, q0, q1, -1}, line});
        }
    }

    if (n_qubits <= 0)
        QC_FATAL("qasm: missing qreg declaration");
    if (n_clbits < 0)
        n_clbits = n_qubits;

    // Registers may be declared after their first use, so operands are
    // checked once both sizes are final.
    Circuit circuit(name, n_qubits, n_clbits);
    for (const auto &[g, line] : pending) {
        if (g.q0 >= n_qubits || (g.isTwoQubit() && g.q1 >= n_qubits))
            QC_FATAL("qasm line ", line, ": qubit index ",
                     g.q0 >= n_qubits ? g.q0 : g.q1,
                     " out of range for qreg of size ", n_qubits);
        if (g.isTwoQubit() && g.q0 == g.q1)
            QC_FATAL("qasm line ", line, ": ", opName(g.op),
                     " needs two distinct qubits");
        if (g.isMeasure() && g.cbit >= n_clbits)
            QC_FATAL("qasm line ", line, ": clbit index ", g.cbit,
                     " out of range for creg of size ", n_clbits);
        circuit.add(g);
    }
    return circuit;
}

} // namespace qc
