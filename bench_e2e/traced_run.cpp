/**
 * @file
 * The traced mode: one process replays the requests a window sent,
 * walking the daemon's job path (CompileDaemon::runJob) through each
 * layer's public entry point, with a span around every call. Spans
 * are recorded only here, around the calls; none live inside src/.
 *
 * Queue wait comes from an in-process CompileDaemon submit/wait pair
 * per request. That daemon shares the replay's disk-cache directory
 * and finds each program there, so the pair measures queueing and
 * dispatch without compiling the job a second time. Its own job time
 * is kept out of the layer table as the `bench` row.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "e2e.hpp"

#include "core/portfolio.hpp"
#include "daemon/daemon.hpp"
#include "daemon/disk_cache.hpp"
#include "ir/qasm.hpp"
#include "machine/calibration_model.hpp"
#include "service/compile_cache.hpp"
#include "service/fingerprints.hpp"
#include "service/portfolio_executor.hpp"
#include "service/thread_pool.hpp"
#include "verify/verifier.hpp"
#include "workloads/benchmarks.hpp"

namespace e2e {

using namespace qc;

namespace {

// --- span recording ---------------------------------------------------

struct SpanRecord
{
    std::string name;
    double start = 0.0; ///< seconds since the replay began
    double end = 0.0;
    int parent = -1;    ///< index in the same thread's records
    std::uint64_t request = 0;
    bool derived = false; ///< rebuilt from a duration src/ recorded
};

/** One thread's spans; only its owner thread touches it. */
struct ThreadSpans
{
    int thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<int> open;
    std::uint64_t request = 0;
    double derivedCursor = 0.0; ///< where the next derived span goes
};

class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    ThreadSpans &attach()
    {
        std::lock_guard<std::mutex> lock(mu_);
        threads_.push_back(std::make_unique<ThreadSpans>());
        threads_.back()->thread = static_cast<int>(threads_.size());
        current() = threads_.back().get();
        return *threads_.back();
    }

    double now() const { return secondsSince(origin_); }

    static ThreadSpans *&current()
    {
        thread_local ThreadSpans *spans = nullptr;
        return spans;
    }

    /** Every thread's spans; call after the replay threads joined. */
    const std::vector<std::unique_ptr<ThreadSpans>> &threads() const
    {
        return threads_;
    }

  private:
    Clock::time_point origin_;
    std::mutex mu_;
    std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

Tracer *g_tracer = nullptr;

/** RAII span on the calling thread (no-op on unattached threads). */
class Span
{
  public:
    explicit Span(std::string name)
    {
        ThreadSpans *t = Tracer::current();
        if (t == nullptr)
            return;
        SpanRecord rec;
        rec.name = std::move(name);
        rec.start = start_ = g_tracer->now();
        rec.parent = t->open.empty() ? -1 : t->open.back();
        rec.request = t->request;
        index_ = static_cast<int>(t->spans.size());
        t->spans.push_back(std::move(rec));
        t->open.push_back(index_);
        t->derivedCursor = t->spans.back().start;
    }

    ~Span()
    {
        ThreadSpans *t = Tracer::current();
        if (t == nullptr || index_ < 0)
            return;
        t->spans[static_cast<std::size_t>(index_)].end = g_tracer->now();
        t->open.pop_back();
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Time since the span opened; 0 on an unattached thread. */
    double seconds() const
    {
        return index_ < 0 ? 0.0 : g_tracer->now() - start_;
    }

  private:
    int index_ = -1;
    double start_ = 0.0;
};

/**
 * A child of the innermost open span whose duration src/ measured
 * (portfolio candidate stages, the probe daemon's job). Laid end to
 * end from the parent's start: the durations are exact, the
 * positions are not.
 */
void
derivedSpan(const std::string &name, double seconds)
{
    ThreadSpans *t = Tracer::current();
    if (t == nullptr || t->open.empty())
        return;
    SpanRecord rec;
    rec.name = name;
    rec.start = t->derivedCursor;
    rec.end = rec.start + seconds;
    rec.parent = t->open.back();
    rec.request = t->request;
    rec.derived = true;
    t->derivedCursor = rec.end;
    t->spans.push_back(std::move(rec));
}

/** Layer of a span: its name up to the first '.'. */
std::string
layerOf(const std::string &span)
{
    return span.substr(0, span.find('.'));
}

/** Metric a span's seconds add to: "a.b" -> "a.b_s", "a.b.c" -> "a.b_s.c". */
std::string
metricOf(const std::string &span)
{
    const std::size_t first = span.find('.');
    const std::size_t second = span.find('.', first + 1);
    if (second == std::string::npos)
        return span + "_s";
    return span.substr(0, second) + "_s" + span.substr(second);
}

// --- the daemon's job path, one layer call at a time -----------------

/** Forwards to one pass of a standardPipeline inside a span. */
template <class Stage>
class SpannedPass final : public Stage
{
  public:
    SpannedPass(std::shared_ptr<const Pass> inner, std::string span)
        : inner_(std::move(inner)), span_(std::move(span))
    {
        if (auto r = dynamic_cast<const RoutingPass *>(inner_.get()))
            live_ = r->routesLive();
        if (auto s = dynamic_cast<const SchedulingPass *>(inner_.get()))
            live_ = s->routesLive();
    }

    const char *stage() const override { return inner_->stage(); }
    std::string name() const override { return inner_->name(); }

    CompileStatus run(CompileContext &ctx) const override
    {
        Span span(span_);
        return inner_->run(ctx);
    }

    /** Overrides RoutingPass/SchedulingPass::routesLive. */
    bool routesLive() const { return live_; }

  private:
    std::shared_ptr<const Pass> inner_;
    std::string span_;
    bool live_ = false;
};

std::string
placementSpan(MapperKind kind)
{
    return (isSmtBundle(kind) ? "solver.smt." : "mappers.placement.") +
           bundleLabel(kind);
}

/** standardPipeline with a span around each Pass::run. */
Pipeline
spannedPipeline(const std::shared_ptr<const Machine> &machine,
                const CompilerOptions &options)
{
    const Pipeline plain = standardPipeline(machine, options);
    const auto &st = plain.stages();
    return Pipeline::forMachine(machine)
        .placement(std::make_unique<SpannedPass<PlacementPass>>(
            st[0], placementSpan(options.mapper)))
        .routing(std::make_unique<SpannedPass<RoutingPass>>(
            st[1], "route.routing"))
        .scheduling(std::make_unique<SpannedPass<SchedulingPass>>(
            st[2], plain.routesLive() ? "sched.track" : "sched.list"))
        .prediction(std::make_unique<SpannedPass<PredictionPass>>(
            st[3], "core.prediction"))
        .named(plain.name())
        .build();
}

struct ReplayEpoch
{
    std::uint64_t machineFp = 0;
    std::shared_ptr<const Machine> machine;
};

/** Candidates finishing above this share of the deadline are "close". */
constexpr double kDeadlineMargin = 0.8;

class Replayer
{
  public:
    Replayer(const Workload &w, const std::string &dir, int clients)
        : w_(w),
          topo_(topologyFromSpec(w.topology)),
          model_(topo_, kCalibrationSeed),
          cache_(w.cacheCapacity),
          disk_(dir),
          helpers_(std::max(1, 2 - clients))
    {
        epoch_ = buildEpoch(0, "machine.build");
        daemon::DaemonOptions probe;
        probe.threads = 2;
        probe.cacheCapacity = w.cacheCapacity;
        probe.cacheDir = dir;
        probe.verifyOnLoad = false;
        probe_ = std::make_unique<daemon::CompileDaemon>(
            topo_, model_.forDay(0), probe, 0, "model-day-0");
    }

    void reload()
    {
        auto next = buildEpoch(1, "machine.reload");
        {
            std::lock_guard<std::mutex> lock(mu_);
            epoch_ = std::move(next);
        }
        Span span("bench.probe_reload");
        add("daemon.warm_recompile_count",
            probe_->reload(model_.forDay(1), 1, "model-day-1").warmed);
    }

    /** Serve one request; returns the QASM a client would receive. */
    std::string serve(const Job &job)
    {
        Span root("request");
        Circuit circuit;
        {
            Span span("ir.qasm_parse");
            circuit = parseQasm(job.qasm, "inline");
        }
        std::shared_ptr<const ReplayEpoch> ep;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ep = epoch_;
        }
        service::CacheKey key;
        key.calibration = ep->machineFp;
        {
            Span span("service.fingerprint");
            key.circuit = service::fingerprintCircuit(circuit);
            key.options = service::fingerprintOptions(job.options);
        }
        std::shared_ptr<const CompiledProgram> program;
        {
            Span span("service.mem_lookup");
            program = cache_.lookup(key);
        }
        if (!program && w_.diskCache)
            program = loadVerified(key, circuit, *ep);
        if (!program)
            program = compile(job, circuit, *ep, key);
        if (!program)
            return "";

        {
            Span span("daemon.submit_wait");
            const auto out = probe_->submit("default", daemon::Lane::Normal,
                                            circuit, job.options, "inline");
            daemon::JobSnapshot snap;
            if (out.accepted && probe_->wait(out.id, snap)) {
                derivedSpan("bench.probe_job", snap.result.seconds);
                add("daemon.queue_wait_s",
                    std::max(0.0, span.seconds() - snap.result.seconds));
            }
        }
        std::string text;
        {
            Span span("ir.qasm_emit");
            text = emitQasm(program->hwCircuit(circuit.numClbits()));
        }
        add("ir.qasm_bytes",
            static_cast<double>(job.qasm.size() + text.size()));
        return text;
    }

    /** Counters of the stores this replay owns. */
    void finish()
    {
        const service::CompileCacheStats mem = cache_.stats();
        add("service.mem_hit_ratio", mem.hitRate());
        add("service.mem_evict_count", static_cast<double>(mem.evictions));
        if (w_.diskCache)
            add("daemon.disk_store_bytes",
                static_cast<double>(disk_.stats().bytesWritten));
        const double lookups = get("bench.disk_lookups");
        add("daemon.disk_hit_ratio",
            lookups > 0 ? get("bench.disk_hits") / lookups : 0.0);
        const double all = get("bench.candidate_s");
        add("core.portfolio_useful_ratio",
            all > 0 ? get("bench.winner_s") / all : 0.0);
        probe_.reset();
    }

    std::map<std::string, double> sums() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return sums_;
    }

    /** Rows "kernel bundle seconds [outcome]" of SMT race candidates. */
    std::vector<std::string> rows() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return rows_;
    }

    std::vector<std::string> failures() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return failures_;
    }

  private:
    std::shared_ptr<const ReplayEpoch> buildEpoch(int day,
                                                  const char *span_name)
    {
        Span span(span_name);
        auto ep = std::make_shared<ReplayEpoch>();
        Calibration cal = model_.forDay(day);
        ep->machineFp = service::machineKey(topo_, cal);
        ep->machine = std::make_shared<const Machine>(topo_, std::move(cal));
        return ep;
    }

    std::shared_ptr<const CompiledProgram>
    loadVerified(const service::CacheKey &key, const Circuit &circuit,
                 const ReplayEpoch &ep)
    {
        add("bench.disk_lookups", 1);
        std::shared_ptr<const CompiledProgram> loaded;
        {
            Span span("daemon.disk_load");
            loaded = disk_.load(key);
        }
        if (!loaded)
            return nullptr;
        bool ok = false;
        {
            Span span("verify.verify");
            ok = ProgramVerifier(*ep.machine).verify(circuit, *loaded).ok();
        }
        add("verify.op_count", static_cast<double>(loaded->schedule.ops.size()));
        if (!ok) {
            disk_.remove(key);
            return nullptr;
        }
        add("bench.disk_hits", 1);
        Span span("service.mem_insert");
        cache_.insert(key, loaded);
        return loaded;
    }

    std::shared_ptr<const CompiledProgram>
    compile(const Job &job, const Circuit &circuit, const ReplayEpoch &ep,
            const service::CacheKey &key)
    {
        PipelineResult compiled;
        if (job.options.portfolio.enabled)
            compiled = race(job, circuit, ep);
        else
            compiled = spannedPipeline(ep.machine, job.options).run(circuit);
        if (!compiled.hasProgram) {
            fail("replay compile failed: " + compiled.status.message);
            return nullptr;
        }
        add("sched.swap_count", compiled.program.swapCount);
        add("sched.op_count",
            static_cast<double>(compiled.program.schedule.ops.size()));
        auto program = std::make_shared<const CompiledProgram>(
            std::move(compiled.program));
        if (compiled.status.ok()) {
            {
                Span span("service.mem_insert");
                cache_.insert(key, program);
            }
            // Without a disk tier in naqcd the store only feeds the
            // probe daemon, so it is charged to `bench`.
            Span span(w_.diskCache ? "daemon.disk_store"
                                   : "bench.probe_store");
            disk_.store(key, *program);
        }
        return program;
    }

    PipelineResult race(const Job &job, const Circuit &circuit,
                        const ReplayEpoch &ep)
    {
        PortfolioResult raced;
        Span span("core.portfolio_race");
        {
            PortfolioPass pass(ep.machine, job.options);
            service::PoolPortfolioExecutor exec(
                helpers_, job.options.portfolio.maxWorkers);
            raced = pass.run(circuit, &exec);
        }
        const double deadline_s = job.options.portfolio.deadlineMs / 1e3;
        // Candidates run side by side, so their stage times can sum to
        // more than the race's wall time. In the layer table each stage
        // gets its share of all candidate time, applied to that wall
        // time; only what candidates leave uncovered is the race's own.
        double all = 0.0;
        for (const PortfolioCandidate &c : raced.candidates)
            all += c.seconds;
        const double scale = all > 0 ? std::min(1.0, span.seconds() / all)
                                     : 0.0;
        for (const PortfolioCandidate &c : raced.candidates) {
            const std::string b = bundleLabel(c.kind);
            add("core.portfolio_candidate_s." + b, c.seconds);
            add("bench.candidate_s", c.seconds);
            if (c.winner)
                add("bench.winner_s", c.seconds);
            if (c.cancelled)
                add("core.portfolio_cancelled_count", 1);
            for (const StageTrace &t : c.stageTraces) {
                const std::string name =
                    t.stage == "placement" ? placementSpan(c.kind)
                    : t.stage == "routing"  ? "route.routing"
                    : t.stage == "scheduling"
                        ? (t.pass == "track" ? "sched.track"
                                             : "sched.list")
                    : t.stage == "prediction" ? "core.prediction"
                                              : "core.portfolio_" + t.stage;
                derivedSpan(name, t.seconds * scale);
                add(metricOf(name), t.seconds);
            }
            if (isSmtBundle(c.kind) && !c.cancelled) {
                const bool hit =
                    c.status.code == CompileStatusCode::SolverTimeout ||
                    (c.hasProgram && !c.eligible);
                add(hit ? "solver.deadline_hit_count"
                        : "solver.optimal_count",
                    1);
                if (!hit && c.seconds > kDeadlineMargin * deadline_s)
                    fail(b + " finished " + std::to_string(c.seconds) +
                         " s into a " + std::to_string(deadline_s) +
                         " s deadline: the race outcome depends on timing");
                std::ostringstream row;
                row << kernelName(job) << " " << b << " "
                    << std::fixed << std::setprecision(3) << c.seconds
                    << (hit ? " deadline" : c.winner ? " won" : "");
                note(row.str());
            }
        }
        return std::move(raced.best);
    }

    static std::string kernelName(const Job &job)
    {
        return paperBenchmarks()[static_cast<std::size_t>(job.kernel)].name;
    }

    void add(const std::string &name, double v)
    {
        std::lock_guard<std::mutex> lock(mu_);
        sums_[name] += v;
    }

    double get(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = sums_.find(name);
        return it == sums_.end() ? 0.0 : it->second;
    }

    void note(std::string row)
    {
        std::lock_guard<std::mutex> lock(mu_);
        rows_.push_back(std::move(row));
    }

    void fail(std::string why)
    {
        std::lock_guard<std::mutex> lock(mu_);
        failures_.push_back(std::move(why));
    }

    const Workload w_;
    const Topology topo_;
    CalibrationModel model_;
    service::CompileCache cache_;
    daemon::DiskCacheStore disk_;
    service::ThreadPool helpers_; ///< naqcd's second worker, for races

    mutable std::mutex mu_;
    std::shared_ptr<const ReplayEpoch> epoch_;
    std::map<std::string, double> sums_;
    std::vector<std::string> rows_;
    std::vector<std::string> failures_;

    std::unique_ptr<daemon::CompileDaemon> probe_;
};

/** Every per-layer metric, with its unit, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"solver.smt_s.tsmt", "s"},
    {"solver.smt_s.tsmt_star", "s"},
    {"solver.smt_s.rsmt_star", "s"},
    {"solver.optimal_count", "count"},
    {"solver.deadline_hit_count", "count"},
    {"core.portfolio_race_s", "s"},
    {"core.portfolio_candidate_s.qiskit", "s"},
    {"core.portfolio_candidate_s.tsmt", "s"},
    {"core.portfolio_candidate_s.tsmt_star", "s"},
    {"core.portfolio_candidate_s.rsmt_star", "s"},
    {"core.portfolio_candidate_s.greedyv", "s"},
    {"core.portfolio_candidate_s.greedye", "s"},
    {"core.portfolio_candidate_s.greedye_track", "s"},
    {"core.portfolio_candidate_s.sabre", "s"},
    {"core.portfolio_cancelled_count", "count"},
    {"core.portfolio_useful_ratio", "ratio"},
    {"mappers.placement_s.qiskit", "s"},
    {"mappers.placement_s.greedyv", "s"},
    {"mappers.placement_s.greedye", "s"},
    {"mappers.placement_s.greedye_track", "s"},
    {"mappers.placement_s.sabre", "s"},
    {"route.routing_s", "s"},
    {"sched.list_s", "s"},
    {"sched.track_s", "s"},
    {"sched.swap_count", "count"},
    {"sched.op_count", "count"},
    {"core.prediction_s", "s"},
    {"ir.qasm_parse_s", "s"},
    {"ir.qasm_emit_s", "s"},
    {"ir.qasm_bytes", "B"},
    {"service.fingerprint_s", "s"},
    {"service.mem_hit_ratio", "ratio"},
    {"service.mem_evict_count", "count"},
    {"daemon.queue_wait_s", "s"},
    {"daemon.disk_store_s", "s"},
    {"daemon.disk_store_bytes", "B"},
    {"daemon.disk_load_s", "s"},
    {"daemon.disk_hit_ratio", "ratio"},
    {"daemon.warm_recompile_count", "count"},
    {"verify.verify_s", "s"},
    {"verify.op_count", "count"},
    {"machine.build_s", "s"},
    {"machine.reload_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

void
writeSpans(const Tracer &tracer, const std::string &path)
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    bool first = true;
    for (const auto &t : tracer.threads()) {
        for (const SpanRecord &s : t->spans) {
            out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t->thread
                << ",\"ts\":" << std::fixed << std::setprecision(3)
                << s.start * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
                << ",\"args\":{\"request\":" << s.request
                << ",\"parent\":" << s.parent
                << ",\"derived\":" << (s.derived ? "true" : "false")
                << "}}";
            first = false;
        }
    }
    out << "\n]}\n";
}

} // namespace

std::vector<Metric>
runTracedReplay(const Workload &w, std::uint64_t seed,
                const WindowResult &window, const std::string &spans_path,
                std::vector<std::string> &failures)
{
    const std::string dir = "replay-cache";
    std::filesystem::remove_all(dir);
    Tracer tracer;
    g_tracer = &tracer;
    tracer.attach();

    std::atomic<std::uint64_t> next_request{1};
    std::mutex failures_mu;
    const auto start = Clock::now();
    Replayer replayer(w, dir, w.connections);
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < w.connections; ++c)
            clients.emplace_back([&, c] {
                ThreadSpans &spans = tracer.attach();
                RequestStream stream(w, seed, c);
                const std::size_t n =
                    window.sentPerConnection[static_cast<std::size_t>(c)];
                for (std::size_t i = 0; i < n; ++i) {
                    if (c == 0 && static_cast<long>(i) == window.reloadAfter)
                        replayer.reload();
                    const Job job = stream.next();
                    spans.request = next_request++;
                    const std::string text = replayer.serve(job);
                    spans.request = 0;
                    std::string why = text.empty()
                                          ? "replay produced no program"
                                          : "";
                    if (why.empty() && job.kernel >= 0)
                        why = checkTable2Outcome(job, text);
                    if (!why.empty()) {
                        std::lock_guard<std::mutex> lock(failures_mu);
                        failures.push_back(why);
                    }
                }
                Tracer::current() = nullptr;
            });
        for (std::thread &t : clients)
            t.join();
    }
    const double traced_wall = secondsSince(start);
    replayer.finish();
    Tracer::current() = nullptr;
    g_tracer = nullptr;
    std::filesystem::remove_all(dir);

    // Self time per span, then per layer.
    std::map<std::string, double> metric = replayer.sums();
    std::map<std::string, double> layer_self;
    for (const auto &t : tracer.threads()) {
        std::vector<double> child(t->spans.size(), 0.0);
        for (const SpanRecord &s : t->spans)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
        for (std::size_t i = 0; i < t->spans.size(); ++i) {
            const SpanRecord &s = t->spans[i];
            const double self = std::max(0.0, s.end - s.start - child[i]);
            if (s.name == "request") {
                layer_self["unattributed"] += self;
                metric["trace.unattributed_s"] += self;
                continue;
            }
            layer_self[layerOf(s.name)] += self;
            if (!s.derived)
                metric[metricOf(s.name)] += s.end - s.start;
        }
    }
    metric["trace.overhead_ratio"] =
        window.wallSeconds > 0 ? traced_wall / window.wallSeconds : 0.0;
    for (const std::string &why : replayer.failures())
        failures.push_back(why);
    writeSpans(tracer, spans_path);

    double measured = 0.0;
    for (const auto &[layer, self] : layer_self)
        if (layer != "bench")
            measured += self;
    std::vector<std::pair<double, std::string>> order;
    for (const auto &[layer, self] : layer_self)
        order.push_back({-self, layer});
    std::sort(order.begin(), order.end());
    std::cerr << "traced replay of " << w.name << ": " << std::fixed
              << std::setprecision(3) << traced_wall
              << " s (untraced window " << window.wallSeconds
              << " s, overhead ratio "
              << metric["trace.overhead_ratio"] << ")\n"
              << "  layer          self_s   share\n";
    for (const auto &[neg, layer] : order) {
        std::cerr << "  " << std::left << std::setw(12) << layer
                  << std::right << std::setw(9) << std::setprecision(3)
                  << -neg;
        if (layer == "bench")
            std::cerr << "   (probe daemon; not a layer)\n";
        else
            std::cerr << std::setw(7) << std::setprecision(1)
                      << 100.0 * -neg / measured << "%\n";
    }
    std::vector<std::string> rows = replayer.rows();
    std::sort(rows.begin(), rows.end());
    if (!rows.empty())
        std::cerr << "  kernel bundle solve_s [outcome]\n";
    for (const std::string &row : rows)
        std::cerr << "  " << row << "\n";

    std::vector<Metric> out;
    for (const auto &[name, unit] : kLayerMetrics)
        out.push_back({name, metric[name], unit});
    return out;
}

} // namespace e2e
