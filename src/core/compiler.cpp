#include "compiler.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <type_traits>

#include "core/passes.hpp"
#include "core/portfolio.hpp"
#include "mappers/smt_mapper.hpp"
#include "support/cli.hpp"
#include "support/logging.hpp"

namespace qc {

const char *
mapperKindName(MapperKind k)
{
    switch (k) {
      case MapperKind::Qiskit: return "Qiskit";
      case MapperKind::TSmt: return "T-SMT";
      case MapperKind::TSmtStar: return "T-SMT*";
      case MapperKind::RSmtStar: return "R-SMT*";
      case MapperKind::GreedyV: return "GreedyV*";
      case MapperKind::GreedyE: return "GreedyE*";
      case MapperKind::GreedyETrack: return "GreedyE*+track";
      case MapperKind::Sabre: return "Sabre";
    }
    QC_PANIC("unknown mapper kind");
}

namespace {

/** Lower-case and strip '-', '_', '+' and whitespace. */
std::string
normalizedMapperName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '-' || c == '_' || c == '+' ||
            std::isspace(static_cast<unsigned char>(c)))
            continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

} // namespace

MapperKind
mapperKindFromName(const std::string &name)
{
    // Canonical names (normalized) plus accepted aliases. There is no
    // unstarred R-SMT variant, so "r-smt" means R-SMT*; the bare
    // greedy names mean the starred (calibrated) heuristics.
    static const struct { const char *n; MapperKind k; } table[] = {
        {"qiskit", MapperKind::Qiskit},
        {"baseline", MapperKind::Qiskit},
        {"tsmt", MapperKind::TSmt},
        {"tsmt*", MapperKind::TSmtStar},
        {"rsmt*", MapperKind::RSmtStar},
        {"rsmt", MapperKind::RSmtStar},
        {"greedyv*", MapperKind::GreedyV},
        {"greedyv", MapperKind::GreedyV},
        {"greedye*", MapperKind::GreedyE},
        {"greedye", MapperKind::GreedyE},
        {"greedye*track", MapperKind::GreedyETrack},
        {"greedyetrack", MapperKind::GreedyETrack},
        {"track", MapperKind::GreedyETrack},
        {"sabre", MapperKind::Sabre},
        {"sabretrack", MapperKind::Sabre},
    };
    const std::string norm = normalizedMapperName(name);
    for (const auto &e : table)
        if (norm == e.n)
            return e.k;

    std::string valid;
    for (MapperKind k : kAllMapperKinds) {
        if (!valid.empty())
            valid += ", ";
        valid += mapperKindName(k);
    }
    QC_FATAL("unknown mapper '", name, "' (valid: ", valid,
             "; matching is case-insensitive and ignores '-', '_', "
             "'+' and spaces, e.g. 'rsmt*' or 'r smt*'; aliases: "
             "r-smt -> R-SMT*, greedyv/greedye -> starred "
             "heuristics, track -> GreedyE*+track, sabre+track -> "
             "Sabre)");
}

std::vector<MapperKind>
resolvedPortfolioBundles(const PortfolioOptions &options)
{
    if (!options.bundles.empty())
        return options.bundles;
    return std::vector<MapperKind>(std::begin(kAllMapperKinds),
                                   std::end(kAllMapperKinds));
}

namespace {

/** A whole-token number of type T, or FatalError "bad <key> '<value>'". */
template <typename T>
T
parseOptionNumber(std::string_view key, const std::string &value)
{
    if constexpr (std::is_floating_point_v<T>) {
        double v = 0.0;
        if (cli::strictParseDouble(value, v))
            return v;
    } else {
        long long v = 0;
        if (cli::strictParseLongLong(value, v) &&
            v >= std::numeric_limits<T>::min() &&
            v <= static_cast<long long>(std::numeric_limits<T>::max()))
            return static_cast<T>(v);
    }
    QC_FATAL("bad ", key, " '", value, "'");
}

/** The setter of a numeric field, parsed by parseOptionNumber. */
template <auto Field>
void
setNumber(CompilerOptions &o, std::string_view key, const std::string &v)
{
    o.*Field = parseOptionNumber<std::decay_t<decltype(o.*Field)>>(key, v);
}

/** The kCompilerOptionKeys entry for `key`, or nullptr. */
const CompilerOptionKey *
findCompilerOption(std::string_view key)
{
    for (const CompilerOptionKey &entry : kCompilerOptionKeys)
        if (entry.key == key)
            return &entry;
    return nullptr;
}

} // namespace

const std::array<CompilerOptionKey, 7> kCompilerOptionKeys = {{
    {"mapper",
     [](CompilerOptions &o, std::string_view, const std::string &v) {
         o.mapper = mapperKindFromName(v);
     }},
    {"omega", setNumber<&CompilerOptions::readoutWeight>},
    {"timeout", setNumber<&CompilerOptions::smtTimeoutMs>},
    {"sabre_iterations", setNumber<&CompilerOptions::sabreIterations>},
    {"sabre_lookahead", setNumber<&CompilerOptions::sabreLookahead>},
    {"portfolio",
     [](CompilerOptions &o, std::string_view, const std::string &v) {
         o.portfolio.enabled = true;
         o.portfolio.bundles = v == "all" || v == "1"
                                   ? std::vector<MapperKind>{}
                                   : parsePortfolioBundles(v);
     }},
    {"portfolio_deadline_ms",
     [](CompilerOptions &o, std::string_view k, const std::string &v) {
         o.portfolio.deadlineMs = parseOptionNumber<unsigned>(k, v);
     }},
}};

void
setCompilerOption(CompilerOptions &options, std::string_view key,
                  const std::string &value)
{
    const CompilerOptionKey *entry = findCompilerOption(key);
    if (!entry)
        QC_FATAL("unknown option '", key, "'");
    entry->set(options, key, value);
}

bool
compilerOptionFlag(int argc, char **argv, int &i, std::string &key,
                   std::string &value)
{
    const std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--")
        return false;
    const std::size_t eq = arg.find('=');
    std::string name(eq == std::string_view::npos
                         ? arg.substr(2)
                         : arg.substr(2, eq - 2));
    std::replace(name.begin(), name.end(), '-', '_');
    if (!findCompilerOption(name))
        return false;
    if (eq != std::string_view::npos)
        value = arg.substr(eq + 1);
    else if (name == "portfolio")
        value = "all";
    else
        value = cli::flagValue(argc, argv, i);
    key = std::move(name);
    return true;
}

Pipeline
standardPipeline(std::shared_ptr<const Machine> machine,
                 const CompilerOptions &options)
{
    PipelineBuilder builder = Pipeline::forMachine(std::move(machine));
    if (options.verify)
        builder.verification(PipelineVerify::On);
    switch (options.mapper) {
      case MapperKind::Qiskit:
        return builder.placement(passes::qiskitBaseline())
            .routing(passes::routeSelection(RoutingPolicy::OneBendPath,
                                            RouteSelect::BestDuration,
                                            true,
                                            options.referenceScheduler))
            .build();
      case MapperKind::GreedyV:
      case MapperKind::GreedyE:
        // "Best Path": most-reliable Dijkstra paths, reserved as 1BP.
        return builder
            .placement(options.mapper == MapperKind::GreedyV
                           ? passes::greedyVertex()
                           : passes::greedyEdge())
            .routing(passes::routeSelection(RoutingPolicy::OneBendPath,
                                            RouteSelect::Dijkstra,
                                            true,
                                            options.referenceScheduler))
            .build();
      case MapperKind::GreedyETrack:
        return builder.placement(passes::greedyEdge())
            .routing(passes::liveRouting())
            .scheduling(passes::trackingScheduling())
            .named("GreedyE*+track")
            .build();
      case MapperKind::Sabre: {
        // Sabre refines its layout against the tracking router's
        // movement model, so the standard bundle schedules with it.
        SabreOptions sabre;
        sabre.iterations = options.sabreIterations;
        sabre.lookahead = options.sabreLookahead;
        return builder.placement(passes::sabrePlacement(sabre))
            .routing(passes::liveRouting())
            .scheduling(passes::trackingScheduling())
            .build();
      }
      case MapperKind::TSmt:
      case MapperKind::TSmtStar:
      case MapperKind::RSmtStar: {
        SmtMapperOptions smt;
        smt.variant = options.mapper == MapperKind::TSmt
                          ? SmtVariant::TSmt
                      : options.mapper == MapperKind::TSmtStar
                          ? SmtVariant::TSmtStar
                          : SmtVariant::RSmtStar;
        smt.policy = options.policy;
        smt.readoutWeight = options.readoutWeight;
        smt.timeoutMs = options.smtTimeoutMs;
        smt.jointScheduling = options.jointScheduling;
        smt = effectiveSmtOptions(smt);
        return builder.placement(passes::smt(smt))
            .routing(passes::routeSelection(
                smt.policy,
                smt.variant == SmtVariant::RSmtStar
                    ? RouteSelect::BestReliability
                    : RouteSelect::BestDuration,
                true, options.referenceScheduler))
            .named(smtMapperDisplayName(smt))
            .build();
      }
    }
    QC_PANIC("unknown mapper kind");
}

NoiseAdaptiveCompiler::NoiseAdaptiveCompiler(Topology topo,
                                             Calibration cal,
                                             CompilerOptions options)
    : NoiseAdaptiveCompiler(
          std::make_shared<const Machine>(std::move(topo),
                                          std::move(cal)),
          options)
{
}

NoiseAdaptiveCompiler::NoiseAdaptiveCompiler(
    std::shared_ptr<const Machine> machine, CompilerOptions options)
    : machine_(std::move(machine)), options_(options),
      // A null snapshot panics inside PipelineBuilder's constructor.
      pipeline_(standardPipeline(machine_, options_))
{
}

CompiledProgram
NoiseAdaptiveCompiler::compile(const Circuit &prog) const
{
    return pipeline_.compile(prog);
}

PipelineResult
NoiseAdaptiveCompiler::compileWithStatus(const Circuit &prog) const
{
    return pipeline_.run(prog);
}

std::string
NoiseAdaptiveCompiler::compileToQasm(const Circuit &prog) const
{
    CompiledProgram compiled = compile(prog);
    return emitQasm(compiled.hwCircuit(prog.numClbits()));
}

} // namespace qc
