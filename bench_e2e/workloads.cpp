/**
 * @file
 * The two workloads, their seeded request streams, and the checks
 * every response must pass. Why each workload exists is in README.md.
 */

#include <algorithm>
#include <memory>
#include <set>

#include "e2e.hpp"

#include "ir/qasm.hpp"
#include "machine/calibration_model.hpp"
#include "sim/executor.hpp"
#include "support/fingerprint.hpp"
#include "support/logging.hpp"
#include "verify/verifier.hpp"
#include "workloads/benchmarks.hpp"
#include "workloads/random_circuits.hpp"

namespace e2e {

using namespace qc;

namespace {

const MapperKind kHeuristicBundles[] = {
    MapperKind::Qiskit, MapperKind::GreedyV, MapperKind::GreedyE,
    MapperKind::GreedyETrack, MapperKind::Sabre};

/**
 * heuristic_stream sends requests in rounds of 10: 3 repeat an earlier
 * (program, bundle) pair and 7 draw a new program. The new programs of
 * consecutive rounds walk through every (program kind, bundle) pair in
 * a seeded order, so each seed sends the same mix and only the sizes
 * and gates differ.
 */
constexpr int kRound = 10;
constexpr int kRepeatsPerRound = 3;

/**
 * Widest heuristic_stream program on the 64-qubit grid. Wider programs
 * can abort naqcd: see the reproducer in README.md.
 */
constexpr int kMaxStreamQubits = 48;

/** A Table 2 kernel raced over all 8 bundles. */
Job
table2Job(int kernel)
{
    const Benchmark bench =
        paperBenchmarks()[static_cast<std::size_t>(kernel)];
    Job job;
    job.qasm = emitQasm(bench.circuit);
    job.kernel = kernel;
    job.gates = static_cast<int>(bench.circuit.size());
    job.protocolArgs = "portfolio=all";
    job.options.portfolio.enabled = true;
    job.bundle = "portfolio";
    Fingerprint fp;
    fp.mix(kernel).mix(job.protocolArgs);
    job.identity = fp.value();
    return job;
}

} // namespace

Workload
workloadByName(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "portfolio_race") {
        w.topology = "grid:2x8";
        w.connections = 1;
        w.wholePasses = true;
    } else if (name == "heuristic_stream") {
        w.topology = "grid:8x8";
        w.connections = 2;
        w.midpointReload = true;
        w.diskCache = true;
        w.cacheCapacity = 1024; // below the window's distinct jobs
        w.requestDeadlineS = 20.0;
        // A 60 s window answers 5800-10500 requests on a 4-vCPU host.
        w.rssAfterAnswers = 4000;
    } else {
        QC_FATAL("unknown workload '", name,
                 "' (portfolio_race, heuristic_stream)");
    }
    return w;
}

std::string
bundleLabel(MapperKind kind)
{
    switch (kind) {
      case MapperKind::Qiskit: return "qiskit";
      case MapperKind::TSmt: return "tsmt";
      case MapperKind::TSmtStar: return "tsmt_star";
      case MapperKind::RSmtStar: return "rsmt_star";
      case MapperKind::GreedyV: return "greedyv";
      case MapperKind::GreedyE: return "greedye";
      case MapperKind::GreedyETrack: return "greedye_track";
      case MapperKind::Sabre: return "sabre";
    }
    return "?";
}

bool
isSmtBundle(MapperKind kind)
{
    return kind == MapperKind::TSmt || kind == MapperKind::TSmtStar ||
           kind == MapperKind::RSmtStar;
}

RequestStream::RequestStream(const Workload &workload,
                             std::uint64_t seed, int connection)
    : rng_(seed, workload.name + "/" + std::to_string(connection))
{
    if (workload.name == "portfolio_race")
        for (int k = 0; k < 12; ++k)
            pass_.push_back(table2Job(k));
    for (std::size_t i = 0; i < pass_.size(); ++i)
        order_.push_back(i);
}

bool
RequestStream::atPassStart() const
{
    return pass_.empty() || cursor_ % pass_.size() == 0;
}

Job
RequestStream::next()
{
    if (!pass_.empty()) {
        if (cursor_ % pass_.size() == 0)
            std::shuffle(order_.begin(), order_.end(), rng_.engine());
        return pass_[order_[cursor_++ % pass_.size()]];
    }
    const bool repeat =
        static_cast<int>(cursor_++ % kRound) >= kRound - kRepeatsPerRound;
    if (repeat)
        return makeProgramJob(history_[static_cast<std::size_t>(
            rng_.uniformInt(0, static_cast<int>(history_.size()) - 1))]);
    if (mix_.empty()) {
        for (int kind = 0; kind < 10; ++kind)
            mix_.push_back(kind);
        std::shuffle(mix_.begin(), mix_.end(), rng_.engine());
    }
    const int kind = mix_.back();
    mix_.pop_back();
    Program p;
    p.denseCnot = kind % 2 == 1;
    p.bundle = kHeuristicBundles[kind / 2];
    p.qubits = rng_.uniformInt(16, kMaxStreamQubits);
    p.gates = rng_.uniformInt(256, 2048);
    p.seed = rng_.engine()();
    history_.push_back(p);
    return makeProgramJob(p);
}

Job
RequestStream::makeProgramJob(const Program &p) const
{
    const Circuit circuit =
        p.denseCnot
            ? makeDenseCnotCircuit(p.qubits, p.gates, p.seed, 600)
            : makeRandomCircuit({p.qubits, p.gates, p.seed, true});
    Job job;
    job.qasm = emitQasm(circuit);
    job.gates = static_cast<int>(circuit.size());
    job.protocolArgs =
        std::string("mapper=") + mapperKindName(p.bundle);
    job.options.mapper = p.bundle;
    job.bundle = bundleLabel(p.bundle);
    Fingerprint fp;
    fp.mix(p.denseCnot ? 1 : 0)
        .mix(p.qubits)
        .mix(p.gates)
        .mix(p.seed)
        .mix(job.protocolArgs);
    job.identity = fp.value();
    return job;
}

bool
Response::compiled() const
{
    auto field = [&](const char *key) {
        auto it = fields.find(key);
        return it == fields.end() ? std::string() : it->second;
    };
    return answered && line.rfind("ok ", 0) == 0 && field("ok") == "1" &&
           field("status") == "ok" && !qasm.empty();
}

int
Response::epoch() const
{
    auto it = fields.find("epoch");
    return it == fields.end() ? 0 : std::atoi(it->second.c_str());
}

std::uint64_t
qasmBodyHash(const std::string &qasm)
{
    std::size_t begin = 0;
    if (qasm.rfind("//", 0) == 0) {
        begin = qasm.find('\n');
        begin = begin == std::string::npos ? qasm.size() : begin + 1;
    }
    return Fingerprint()
        .mixBytes(qasm.data() + begin, qasm.size() - begin)
        .value();
}

std::string
checkResponse(const Response &response, const Topology &topology)
{
    if (!response.answered)
        return "unanswered";
    if (!response.compiled())
        return "not compiled: " + response.line;
    // Every line naming two qubits, other than a measurement, is a
    // two-qubit gate and must use a coupling edge.
    const std::string &text = response.qasm;
    for (std::size_t begin = 0; begin < text.size();) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos)
            end = text.size();
        if (text.compare(begin, 7, "measure") != 0 &&
            text.compare(begin, 2, "//") != 0) {
            int qubits[2] = {0, 0};
            int found = 0;
            for (std::size_t at = text.find("q[", begin);
                 at < end && found <= 2; at = text.find("q[", at + 2)) {
                if (found < 2)
                    qubits[found] = std::atoi(text.c_str() + at + 2);
                ++found;
            }
            if (found == 2 && !topology.adjacent(qubits[0], qubits[1]))
                return "gate off the coupling graph: " +
                       text.substr(begin, end - begin);
        }
        begin = end + 1;
    }
    return "";
}

std::string
checkTable2Outcome(const Job &job, const std::string &qasm)
{
    const Benchmark bench =
        paperBenchmarks()[static_cast<std::size_t>(job.kernel)];
    try {
        const std::string got = idealOutcome(parseQasm(qasm));
        if (got != bench.expected)
            return bench.name + " " + job.protocolArgs +
                   ": ideal outcome " + got + ", expected " +
                   bench.expected;
    } catch (const std::exception &e) {
        return bench.name + " " + job.protocolArgs + ": " + e.what();
    }
    return "";
}

std::vector<std::string>
recompileAndCompare(const Workload &workload,
                    const std::vector<SampledResponse> &samples)
{
    const Topology topo = topologyFromSpec(workload.topology);
    CalibrationModel model(topo, kCalibrationSeed);
    std::map<int, std::shared_ptr<const Machine>> machines;
    std::set<std::pair<std::uint64_t, int>> done;
    std::vector<std::string> failures;
    for (const SampledResponse &s : samples) {
        if (!done.insert({s.job.identity, s.epoch}).second)
            continue;
        auto &machine = machines[s.epoch];
        if (!machine)
            machine = std::make_shared<const Machine>(
                topo, model.forDay(s.epoch - 1));
        const Circuit circuit = parseQasm(s.job.qasm, "inline");
        const PipelineResult r =
            standardPipeline(machine, s.job.options).run(circuit);
        if (!r.ok() || !r.hasProgram) {
            failures.push_back("in-process compile failed: " +
                               r.status.message);
            continue;
        }
        const std::string text =
            emitQasm(r.program.hwCircuit(circuit.numClbits()));
        if (qasmBodyHash(text) != s.bodyHash)
            failures.push_back("response differs from the in-process " +
                               s.job.bundle + " compile (epoch " +
                               std::to_string(s.epoch) + ")");
        const VerifyReport report =
            ProgramVerifier(*machine).verify(circuit, r.program);
        if (!report.ok())
            failures.push_back("ProgramVerifier rejected " +
                               s.job.bundle + ": " + report.toString());
    }
    return failures;
}

} // namespace e2e
