/**
 * @file
 * OpenQASM emitter/parser tests, including round-trips over every
 * benchmark and hardware-level circuits with SWAP expansion.
 */

#include <gtest/gtest.h>

#include "ir/qasm.hpp"
#include "sim/executor.hpp"
#include "support/fingerprint.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_circuits.hpp"

namespace qc {
namespace {

TEST(QasmEmit, Preamble)
{
    Circuit c("demo", 2);
    c.h(0);
    c.cnot(0, 1);
    c.measure(1, 1);
    std::string q = emitQasm(c);
    EXPECT_NE(q.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(q.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(q.find("creg c[2];"), std::string::npos);
    EXPECT_NE(q.find("h q[0];"), std::string::npos);
    EXPECT_NE(q.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(q.find("measure q[1] -> c[1];"), std::string::npos);
}

TEST(QasmEmit, SwapExpandsToThreeCnots)
{
    Circuit c("swp", 2);
    c.swap(0, 1);
    std::string q = emitQasm(c);
    EXPECT_NE(q.find("cx q[0],q[1];\ncx q[1],q[0];\ncx q[0],q[1];"),
              std::string::npos);
    EXPECT_EQ(q.find("swap"), std::string::npos);
}

TEST(QasmParse, RoundTripSimple)
{
    Circuit c("demo", 3);
    c.h(0);
    c.t(1);
    c.sdg(2);
    c.cnot(0, 2);
    c.measure(0, 0);
    Circuit back = parseQasm(emitQasm(c));
    ASSERT_EQ(back.size(), c.size());
    for (size_t i = 0; i < c.size(); ++i)
        EXPECT_TRUE(back.gate(i) == c.gate(i));
    EXPECT_EQ(back.numQubits(), 3);
    EXPECT_EQ(back.numClbits(), 3);
}

TEST(QasmParse, Errors)
{
    EXPECT_THROW(parseQasm("h q[0];"), FatalError);          // no qreg
    EXPECT_THROW(parseQasm("qreg q[2]; bogus q[0];"), FatalError);
    EXPECT_THROW(parseQasm("qreg q[2]; cx q[0];"), FatalError);
    EXPECT_THROW(parseQasm("qreg q[2]; h q[0]"), FatalError); // no ';'
}

TEST(QasmParse, OversizedIndexIsParseDiagnosticWithLineNumber)
{
    // q[99999999999] overflows int: that must be a QASM parse
    // diagnostic naming the line, not std::out_of_range escaping
    // from std::stoi.
    try {
        parseQasm("OPENQASM 2.0;\nqreg q[4];\nh q[99999999999];\n");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("qasm line 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("99999999999"), std::string::npos) << msg;
        EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
    }

    // The same guard covers register declarations, and the largest
    // representable index still parses (range check, not a cap).
    EXPECT_THROW(parseQasm("qreg q[99999999999];"), FatalError);
    EXPECT_EQ(parseQasm("qreg q[2147483647];").numQubits(),
              2147483647);
}

/** The message of the FatalError parseQasm raises on `text`. */
std::string
parseError(const std::string &text)
{
    try {
        parseQasm(text);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "parsed";
}

TEST(QasmParse, OperandsOutsideRegistersAreDiagnosticsNotAborts)
{
    // These used to reach Circuit::add's assertions and abort naqc and
    // every naqcd tenant with it.
    EXPECT_EQ(parseError("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[5];\n"),
              "qasm line 3: qubit index 5 out of range for qreg of "
              "size 2");
    EXPECT_EQ(parseError("OPENQASM 2.0;\nqreg q[2];\ncx q[1],q[1];\n"),
              "qasm line 3: cx needs two distinct qubits");
    EXPECT_EQ(parseError("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
                         "measure q[0] -> c[7];\n"),
              "qasm line 4: clbit index 7 out of range for creg of "
              "size 2");

    // Registers may be declared after use; the final sizes count.
    EXPECT_EQ(parseQasm("h q[3]; qreg q[4];").numQubits(), 4);
    EXPECT_EQ(parseError("qreg q[8]; h q[3]; qreg q[2];"),
              "qasm line 1: qubit index 3 out of range for qreg of "
              "size 2");
    // Statement errors still come first, then the missing qreg.
    EXPECT_EQ(parseError("qreg q[2]; cx q[0],q[5]; bogus q[0];"),
              "qasm line 1: unknown gate 'bogus'");
    EXPECT_EQ(parseError("cx q[1],q[1];"),
              "qasm: missing qreg declaration");
}

TEST(QasmParse, CommentsAndBarriersIgnored)
{
    Circuit c = parseQasm("// header\nOPENQASM 2.0;\nqreg q[2];\n"
                          "barrier q[0];\nh q[1]; // trailing\n");
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.gate(0).op, Op::H);
    EXPECT_EQ(c.gate(0).q0, 1);
}

TEST(QasmRoundTrip, EmitParseEmitIsAFixpoint)
{
    // Seeded random circuits over every op, Swap and Measure included:
    // parsing the emitted text and emitting again gives the same bytes
    // (a Swap comes back as its three CNOTs, which emit the same way).
    const Op kOps[] = {Op::H,   Op::X,    Op::Y,    Op::Z,
                       Op::S,   Op::Sdg,  Op::T,    Op::Tdg,
                       Op::CNOT, Op::Swap, Op::Measure};
    Rng rng(20190131, "qasm-fixpoint");
    for (int i = 0; i < 200; ++i) {
        const int qubits = rng.uniformInt(2, 130);
        const int clbits = rng.uniformInt(1, 130);
        Circuit c("fixpoint-" + std::to_string(i), qubits, clbits);
        for (int n = rng.uniformInt(0, 300); n > 0; --n) {
            const Op op = kOps[rng.uniformInt(0, 10)];
            const int a = rng.uniformInt(0, qubits - 1);
            const int b = (a + rng.uniformInt(1, qubits - 1)) % qubits;
            if (op == Op::Measure)
                c.measure(a, rng.uniformInt(0, clbits - 1));
            else
                c.add({op, a, opIsTwoQubit(op) ? b : kInvalidQubit, -1});
        }
        const std::string text = emitQasm(c);
        ASSERT_EQ(emitQasm(parseQasm(text, c.name())), text) << text;
    }
}

class QasmRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(QasmRoundTrip, BenchmarkSurvivesRoundTrip)
{
    Benchmark b = benchmarkByName(GetParam());
    Circuit back = parseQasm(emitQasm(b.circuit), b.name);
    ASSERT_EQ(back.size(), b.circuit.size());
    for (size_t i = 0; i < back.size(); ++i)
        EXPECT_TRUE(back.gate(i) == b.circuit.gate(i)) << "gate " << i;
}

TEST_P(QasmRoundTrip, RoundTripPreservesSemantics)
{
    Benchmark b = benchmarkByName(GetParam());
    Circuit back = parseQasm(emitQasm(b.circuit), b.name);
    EXPECT_EQ(idealOutcome(back), b.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, QasmRoundTrip,
    ::testing::Values("BV4", "BV6", "BV8", "HS2", "HS4", "HS6", "Toffoli",
                      "Fredkin", "Or", "Peres", "QFT", "Adder"));

/**
 * Seed texts of the mutation corpus: emitter output, plus hand-written
 * programs with comments, CRLF line ends, tabs, multi-line and empty
 * statements, barriers and every mnemonic the parser knows.
 */
std::vector<std::string>
corpusSeeds()
{
    std::vector<std::string> seeds;
    for (int s = 1; s <= 4; ++s)
        seeds.push_back(emitQasm(makeRandomCircuit(
            {2 + s, 6 * s, static_cast<std::uint64_t>(s), true})));
    seeds.push_back("// header\nOPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                    "qreg q[4];\ncreg c[4];\nh q[0];\ncx q[0],q[1];\n"
                    "barrier q[0],q[1];\nswap q[1], q[2];\n"
                    "CX q[2],q[3]; // trailing\n"
                    "measure q[3] -> c[3];\n");
    seeds.push_back("qreg q[3];\r\ncreg c[2];\r\nt q[0];\tsdg q[1];\r\n"
                    "cx\n q[0],\n q[2];\r\nmeasure q[2]->c[1];\r\n");
    seeds.push_back("OPENQASM 2.0;\nqreg q[2];\n;;\n  x q[1] ;\ny q[0];"
                    "z q[1];s q[0];tdg q[1];\nmeasure q[0] -> c[0];\n");
    return seeds;
}

/** Apply one seeded mutation: overwrite, insert, erase, duplicate, cut. */
void
mutate(std::string &text, Rng &rng)
{
    static const char *const kTokens[] = {
        ";", "\n", "\r\n", "//", " ", "\t", "[", "]", ",", "->", "-",
        ">", "q", "c", "0", "1", "2", "7", "99999999999", "2147483648",
        "qreg q[2];", "creg c[1];", "cx q[0],q[0];", "h q[9];",
        "measure q[0] -> c[5];", "measure ", "cx ", "CX ", "swap ",
        "sdg ", "barrier ", "include ", "OPENQASM ", "_", "\x80", "{",
        "\""};
    const int size = static_cast<int>(text.size());
    const int pos = rng.uniformInt(0, size);
    const int kind = rng.uniformInt(0, 9);
    if (kind <= 2 && pos < size) {
        text[static_cast<std::size_t>(pos)] =
            static_cast<char>(rng.uniformInt(0, 255));
    } else if (kind <= 5) {
        const int n = static_cast<int>(std::size(kTokens));
        text.insert(static_cast<std::size_t>(pos),
                    kTokens[rng.uniformInt(0, n - 1)]);
    } else if (kind <= 7) {
        text.erase(static_cast<std::size_t>(pos),
                   static_cast<std::size_t>(rng.uniformInt(1, 8)));
    } else if (kind == 8) {
        const int from = rng.uniformInt(0, size);
        const std::string slice = text.substr(
            static_cast<std::size_t>(from),
            static_cast<std::size_t>(rng.uniformInt(1, 16)));
        text.insert(static_cast<std::size_t>(pos), slice);
    } else {
        text.resize(static_cast<std::size_t>(pos));
    }
}

/** The operand diagnostics; these inputs used to abort the process. */
bool
isOperandError(const std::string &message)
{
    return message.find(" out of range for qreg of size ") !=
               std::string::npos ||
           message.find(" out of range for creg of size ") !=
               std::string::npos ||
           message.find(" needs two distinct qubits") != std::string::npos;
}

/**
 * FNV-1a of what parseQasm made of `text`: the circuit or the error.
 * Sets `operand_error` instead when the parser rejected an operand.
 */
std::uint64_t
parseOutcome(const std::string &text, bool &operand_error)
{
    operand_error = false;
    Fingerprint fp;
    try {
        Circuit c = parseQasm(text, "mutant");
        fp.mix(std::string("ok")).mix(c.numQubits()).mix(c.numClbits());
        fp.mix(static_cast<std::uint64_t>(c.size()));
        for (const Gate &g : c.gates())
            fp.mix(static_cast<int>(g.op)).mix(g.q0).mix(g.q1).mix(g.cbit);
    } catch (const FatalError &e) {
        operand_error = isOperandError(e.what());
        fp.mix(std::string("err")).mix(std::string(e.what()));
    }
    return fp.value();
}

TEST(QasmParse, MutationCorpusOutcomesMatchGolden)
{
    // 20,000 seeded mutants of the seed texts (1-3 mutations each).
    // The main digest was captured when operand errors still aborted
    // the process, so those inputs are counted and digested apart.
    const std::vector<std::string> seeds = corpusSeeds();
    Rng rng(20190131, "qasm-mutation-corpus");
    Fingerprint digest;
    Fingerprint operand_digest;
    int skipped = 0;
    for (int i = 0; i < 20000; ++i) {
        std::string text = seeds[static_cast<std::size_t>(i) % seeds.size()];
        for (int m = rng.uniformInt(1, 3); m > 0; --m)
            mutate(text, rng);
        bool operand_error = false;
        const std::uint64_t outcome = parseOutcome(text, operand_error);
        if (operand_error) {
            ++skipped;
            operand_digest.mix(outcome);
        } else {
            digest.mix(outcome);
        }
    }
    EXPECT_EQ(skipped, 124);
    EXPECT_EQ(digest.value(), 0xf475e7296a348adcull);
    // Their diagnostics, pinned once they stopped aborting.
    EXPECT_EQ(operand_digest.value(), 0xbea225d88c673a81ull);
}

} // namespace
} // namespace qc
