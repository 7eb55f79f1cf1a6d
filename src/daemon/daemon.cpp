#include "daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "daemon/program_serdes.hpp"
#include "service/fingerprints.hpp"
#include "support/fingerprint.hpp"
#include "support/logging.hpp"
#include "verify/verifier.hpp"

namespace qc::daemon {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string
hexFp(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

int
resolveThreads(int threads)
{
    if (threads > 0)
        return threads;
    return std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
}

int
defaultShards(int threads)
{
    return std::max(1, std::min(4, threads));
}

/** The internal tenant warm recompiles run under (bypasses quota). */
const char *const kWarmTenant = "@warm";

/** Warm-up summary entries per warmed pair. */
constexpr std::size_t kHotPerWarm = 4;

const DaemonOptions &
checkedOptions(const DaemonOptions &options)
{
    if (options.warmTopK < 0)
        QC_FATAL("warmTopK must be >= 0, got ", options.warmTopK);
    return options;
}

JobSummary
summarize(const service::CompileResult &result)
{
    JobSummary s;
    if (result.program) {
        s.hasProgram = true;
        s.swapCount = result.program->swapCount;
        s.duration = result.program->duration;
        s.predictedSuccess = result.program->predictedSuccess;
    }
    s.raced = result.portfolio.size();
    for (const PortfolioCandidate &c : result.portfolio)
        if (c.cancelled)
            ++s.cancelled;
    return s;
}

/** Drop what only the submitter needs; the summary covers the rest. */
void
releaseProgram(service::CompileResult &result)
{
    result.program.reset();
    result.machine.reset();
    result.stageTraces = std::vector<StageTrace>();
    result.portfolio = std::vector<PortfolioCandidate>();
}

} // namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Done:
        return "done";
    }
    return "?";
}

const char *
cacheSourceName(CacheSource src)
{
    switch (src) {
    case CacheSource::None:
        return "none";
    case CacheSource::Memory:
        return "memory";
    case CacheSource::Disk:
        return "disk";
    }
    return "?";
}

struct CompileDaemon::JobRecord
{
    std::uint64_t id = 0;
    std::string tenant;
    Lane lane = Lane::Normal;
    std::string tag;
    bool warm = false;
    /// The thread whose first wait() takes the program; none when no
    /// one will wait, so the program goes when the job finishes.
    std::thread::id collector;
    Circuit circuit;         ///< moved out when the job starts
    CompilerOptions options; ///< moved out when the job starts
    std::uint64_t circuitFp = 0;
    std::uint64_t optionsFp = 0;
    int numClbits = 0;

    JobState state = JobState::Queued;
    int epochId = 0;
    CacheSource cacheSource = CacheSource::None;
    JobSummary summary;
    service::CompileResult result;
};

CompileDaemon::DoneRecord::DoneRecord(const JobRecord &record)
    : epochId(record.epochId), numClbits(record.numClbits),
      swapCount(record.summary.swapCount),
      duration(record.summary.duration),
      predictedSuccess(record.summary.predictedSuccess),
      raced(static_cast<std::uint16_t>(record.summary.raced)),
      cancelled(static_cast<std::uint16_t>(record.summary.cancelled)),
      lane(static_cast<std::uint8_t>(record.lane)),
      cacheSource(static_cast<std::uint8_t>(record.cacheSource)),
      code(static_cast<std::uint8_t>(record.result.status.code)),
      ok(record.result.ok), hasProgram(record.summary.hasProgram)
{
    const service::CompileResult &r = record.result;
    tenantSize = static_cast<std::uint32_t>(record.tenant.size());
    tagSize = static_cast<std::uint32_t>(r.tag.size());
    winnerSize = static_cast<std::uint32_t>(r.winner.size());
    text = record.tenant + r.tag + r.winner + r.status.message;
}

JobSnapshot
CompileDaemon::DoneRecord::snapshot(std::uint64_t id) const
{
    std::size_t at = 0;
    auto next = [&](std::size_t n) {
        std::string field = text.substr(at, n);
        at += n;
        return field;
    };
    JobSnapshot snap;
    snap.id = id;
    snap.tenant = next(tenantSize);
    snap.lane = static_cast<Lane>(lane);
    snap.state = JobState::Done;
    snap.epochId = epochId;
    snap.cacheSource = static_cast<CacheSource>(cacheSource);
    snap.numClbits = numClbits;
    snap.summary.hasProgram = hasProgram;
    snap.summary.swapCount = swapCount;
    snap.summary.duration = duration;
    snap.summary.predictedSuccess = predictedSuccess;
    snap.summary.raced = raced;
    snap.summary.cancelled = cancelled;
    snap.result.tag = next(tagSize);
    snap.result.winner = next(winnerSize);
    snap.result.ok = ok;
    snap.result.status.code = static_cast<CompileStatusCode>(code);
    snap.result.status.message = text.substr(at);
    return snap;
}

CompileDaemon::CompileDaemon(Topology topo, Calibration initial,
                             DaemonOptions options, int day,
                             std::string source)
    : topo_(std::move(topo)),
      options_(checkedOptions(options)),
      queue_(options.shards > 0
                 ? options.shards
                 : defaultShards(resolveThreads(options.threads))),
      memCache_(options.cacheCapacity, options.cacheByteCapacity),
      disk_(options.cacheDir),
      pool_(options.threads)
{
    initial.validate(topo_);
    auto epoch = std::make_shared<Epoch>();
    epoch->id = 1;
    epoch->day = day;
    epoch->source = std::move(source);
    epoch->machineFp = service::machineKey(topo_, initial);
    epoch->machine =
        std::make_shared<const Machine>(topo_, std::move(initial));
    std::lock_guard<std::mutex> lock(epochMu_);
    epoch_ = std::move(epoch);
}

CompileDaemon::~CompileDaemon()
{
    beginShutdown();
    awaitIdle();
}

CompileDaemon::SubmitOutcome
CompileDaemon::submit(const std::string &tenant, Lane lane,
                      Circuit circuit, const CompilerOptions &options,
                      std::string tag, bool collect)
{
    const bool warm = tenant == kWarmTenant;
    const std::uint64_t circuit_fp =
        service::fingerprintCircuit(circuit);
    const std::uint64_t options_fp =
        service::fingerprintOptions(options);

    auto record = std::make_shared<JobRecord>();
    record->tenant = tenant;
    record->lane = lane;
    record->tag = std::move(tag);
    record->warm = warm;
    if (collect)
        record->collector = std::this_thread::get_id();
    record->numClbits = circuit.numClbits();
    record->circuit = std::move(circuit);
    record->options = options;
    record->circuitFp = circuit_fp;
    record->optionsFp = options_fp;

    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        if (!accepting_) {
            ++rejected_;
            return {false, 0, "rejected:shutting-down"};
        }
        auto [slot, fresh] = tenants_.try_emplace(tenant);
        TenantEntry &entry = slot->second;
        TenantStats &ts = entry.stats;
        if (fresh) {
            ts.tenant = tenant;
            entry.idle = idleTenants_.end();
        }
        if (!warm && options_.tenantQuota > 0 &&
            ts.inFlight >= options_.tenantQuota) {
            ++rejected_;
            ++ts.rejected;
            return {false, 0,
                    "rejected:over-quota tenant=" + tenant +
                        " inflight=" + std::to_string(ts.inFlight) +
                        " quota=" +
                        std::to_string(options_.tenantQuota)};
        }
        if (entry.idle != idleTenants_.end()) {
            idleTenants_.erase(entry.idle);
            entry.idle = idleTenants_.end();
        }
        record->id = nextJobId_++;
        jobs_[record->id] = record;
        ++outstanding_;
        ++submitted_;
        ++ts.submitted;
        ++ts.inFlight;
    }

    const int shard = queue_.shardForTenant(tenant);
    queue_.push(shard, lane, record->id);
    pool_.submit([this, shard]() { pump(shard); });
    return {true, record->id, ""};
}

void
CompileDaemon::pump(int home_shard)
{
    const std::uint64_t id = queue_.popReserved(home_shard);
    std::shared_ptr<JobRecord> record;
    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        auto it = jobs_.find(id);
        QC_ASSERT(it != jobs_.end(), "queued job without a record");
        record = it->second;
    }
    runJob(record);
}

void
CompileDaemon::runJob(const std::shared_ptr<JobRecord> &record)
{
    const auto start = std::chrono::steady_clock::now();

    // The epoch is captured once, here: this job compiles — and is
    // cached — against this snapshot even if a rollover flips the
    // current epoch mid-compile.
    std::shared_ptr<const Epoch> epoch = currentEpoch();

    // Nothing reads the source after this job: it leaves the record.
    Circuit circuit;
    CompilerOptions options;
    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        record->state = JobState::Running;
        record->epochId = epoch->id;
        circuit = std::move(record->circuit);
        options = std::move(record->options);
    }

    service::CacheKey key;
    key.circuit = record->circuitFp;
    key.calibration = epoch->machineFp;
    key.options = record->optionsFp;

    if (!record->warm)
        noteHotUse(circuit, options, record->circuitFp,
                   record->optionsFp);

    CacheSource source = CacheSource::None;
    bool verifiedOnLoad = false;
    bool healedEntry = false;
    service::JobHooks hooks;
    hooks.lookup = [&](service::CompileResult &hit) {
        // Both tiers hold frames. A memory hit is decoded outside the
        // cache's lock, and a frame that does not decode is never
        // served: the job recompiles.
        auto program = std::make_shared<CompiledProgram>();
        if (auto frame = memCache_.lookup(key)) {
            if (!deserializeCompiledProgram(*frame, *program))
                return false;
            source = CacheSource::Memory;
        } else if (auto loaded = loadVerified(key, circuit,
                                              *epoch->machine, *program,
                                              verifiedOnLoad,
                                              healedEntry)) {
            memCache_.insert(key, loaded, loaded->size());
            source = CacheSource::Disk;
        } else {
            return false;
        }
        hit.program = std::move(program);
        hit.machine = epoch->machine;
        return true;
    };
    hooks.machine = [&epoch] { return epoch->machine; };
    hooks.store = [&](const std::shared_ptr<const CompiledProgram> &p) {
        // Encoded once: the same bytes go to both tiers.
        auto frame = std::make_shared<const std::string>(
            serializeCompiledProgram(*p));
        memCache_.insert(key, frame, frame->size());
        disk_.storeFrame(key, *frame);
    };

    service::CompileResult result =
        service::compileJob(circuit, options, pool_, hooks);
    result.tag = std::move(record->tag);
    result.day = epoch->day;
    result.seconds = secondsSince(start);

    std::lock_guard<std::mutex> lock(jobsMu_);
    record->cacheSource = source;
    record->summary = summarize(result);
    record->result = std::move(result);
    if (source == CacheSource::Disk)
        ++diskHits_;
    if (verifiedOnLoad)
        ++verifiedOnLoad_;
    if (healedEntry)
        ++healed_;
    finishLocked(*record);
}

std::shared_ptr<const std::string>
CompileDaemon::loadVerified(const service::CacheKey &key,
                            const Circuit &circuit,
                            const Machine &machine,
                            CompiledProgram &program,
                            bool &verifiedOnLoad, bool &healedEntry)
{
    auto frame = disk_.loadFrame(key, program);
    if (!frame || !options_.verifyOnLoad)
        return frame;
    // The frame checksum only proves the bytes round-tripped; the
    // translation validator proves the program still satisfies the
    // compiled-program contracts against *this* epoch's machine (the
    // cache key pins the machine fingerprint, so a mismatch means
    // the entry is broken, not merely stale). Auto durations: the
    // producing bundle's duration model is not recorded in the entry.
    const VerifyReport report =
        ProgramVerifier(machine).verify(circuit, program);
    if (report.ok()) {
        verifiedOnLoad = true;
        return frame;
    }
    // Checksum-valid but semantically broken: purge the entry and
    // recompile — the fresh ok result re-stores, healing the slot.
    disk_.remove(key);
    healedEntry = true;
    return nullptr;
}

void
CompileDaemon::finishLocked(JobRecord &record)
{
    record.state = JobState::Done;
    ++completed_;
    auto it = tenants_.find(record.tenant);
    if (it != tenants_.end()) {
        TenantStats &ts = it->second.stats;
        ++ts.completed;
        if (--ts.inFlight == 0) {
            it->second.idle = idleTenants_.insert(idleTenants_.end(),
                                                  record.tenant);
            if (idleTenants_.size() > kMaxIdleTenants) {
                tenants_.erase(idleTenants_.front());
                idleTenants_.pop_front();
            }
        }
    }
    if (record.collector == std::thread::id())
        retireLocked(record);
    // A pruned record lives on in a wait() already blocked on it.
    doneOrder_.push_back(record.id);
    while (doneOrder_.size() > options_.jobHistory) {
        if (jobs_.erase(doneOrder_.front()) == 0)
            done_.erase(doneOrder_.front());
        doneOrder_.pop_front();
    }
    QC_ASSERT(outstanding_ > 0, "job accounting underflow");
    --outstanding_;
    jobDone_.notify_all();
    if (outstanding_ == 0)
        allIdle_.notify_all();
}

void
CompileDaemon::retireLocked(JobRecord &record)
{
    releaseProgram(record.result);
    // A record already pruned from the history stays pruned.
    auto it = jobs_.find(record.id);
    if (it == jobs_.end())
        return;
    done_.emplace(record.id, DoneRecord(record));
    jobs_.erase(it);
}

void
CompileDaemon::noteHotUse(const Circuit &circuit,
                          const CompilerOptions &options,
                          std::uint64_t circuit_fp,
                          std::uint64_t options_fp)
{
    const std::size_t capacity =
        kHotPerWarm * static_cast<std::size_t>(options_.warmTopK);
    if (capacity == 0)
        return;
    Fingerprint fp;
    fp.mix(circuit_fp).mix(options_fp);
    const std::uint64_t key = fp.value();

    // Space-Saving (Metwally, Agrawal and El Abbadi, ICDT 2005): a
    // tracked pair counts one more use; an untracked one takes over
    // the entry with the fewest uses and inherits its count plus one.
    std::lock_guard<std::mutex> lock(hotMu_);
    auto tracked = hotRanks_.find(key);
    if (tracked != hotRanks_.end()) {
        auto node = hot_.extract(tracked->second);
        ++node.key().uses;
        tracked->second = node.key();
        hot_.insert(std::move(node));
        return;
    }
    HotRank rank{1, hotSeq_++};
    if (hot_.size() == capacity) {
        auto victim = hot_.begin();
        rank.uses += victim->first.uses;
        hotRanks_.erase(victim->second.key);
        hot_.erase(victim);
    }
    hot_.emplace(rank, HotEntry{key, circuit_fp, circuit, options});
    hotRanks_.emplace(key, rank);
}

bool
CompileDaemon::status(std::uint64_t id, JobSnapshot &out) const
{
    std::lock_guard<std::mutex> lock(jobsMu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
        out = snapshotLocked(*it->second);
        return true;
    }
    auto done = done_.find(id);
    if (done == done_.end())
        return false;
    out = done->second.snapshot(id);
    return true;
}

bool
CompileDaemon::wait(std::uint64_t id, JobSnapshot &out)
{
    std::shared_ptr<JobRecord> record;
    std::unique_lock<std::mutex> lock(jobsMu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        auto done = done_.find(id);
        if (done == done_.end())
            return false;
        out = done->second.snapshot(id);
        return true;
    }
    record = it->second;
    jobDone_.wait(lock,
                  [&] { return record->state == JobState::Done; });
    out = snapshotLocked(*record);
    // Only the submitter's wait() collects: another waiter on the same
    // id (naqcd's `wait` from a second connection) must not leave the
    // submitter without its program.
    if (record->collector == std::this_thread::get_id()) {
        record->collector = std::thread::id();
        retireLocked(*record);
    }
    return true;
}

JobSnapshot
CompileDaemon::snapshotLocked(const JobRecord &record) const
{
    JobSnapshot snap;
    snap.id = record.id;
    snap.tenant = record.tenant;
    snap.lane = record.lane;
    snap.state = record.state;
    snap.epochId = record.epochId;
    snap.cacheSource = record.cacheSource;
    snap.numClbits = record.numClbits;
    snap.summary = record.summary;
    snap.result = record.result;
    return snap;
}

CompileDaemon::ReloadOutcome
CompileDaemon::reload(Calibration cal, int day, std::string source)
{
    cal.validate(topo_);

    // Build the new snapshot outside every lock: the expensive
    // all-pairs precompute runs while workers keep serving the old
    // epoch — rollover never blocks the compile path.
    auto machine =
        std::make_shared<const Machine>(topo_, cal);
    auto epoch = std::make_shared<Epoch>();
    epoch->day = day;
    epoch->source = std::move(source);
    epoch->machineFp = service::machineKey(topo_, cal);
    epoch->machine = std::move(machine);
    {
        std::lock_guard<std::mutex> lock(epochMu_);
        epoch->id = epoch_->id + 1;
        epoch_ = epoch; // the atomic flip: new jobs see it from here
    }

    // Proactive warm-up: recompile the hottest fingerprints against
    // the new day in the low-priority lane so the morning rush hits
    // a warm cache without starving interactive submits. hot_ ends
    // with the best pairs: read backwards, it ranks by uses, then
    // first seen.
    std::vector<HotEntry> hottest;
    {
        std::lock_guard<std::mutex> lock(hotMu_);
        for (auto it = hot_.rbegin();
             it != hot_.rend() &&
             hottest.size() < static_cast<std::size_t>(options_.warmTopK);
             ++it)
            hottest.push_back(it->second);
    }

    int warmed = 0;
    for (HotEntry &entry : hottest) {
        SubmitOutcome outcome = submit(
            kWarmTenant, Lane::Low, std::move(entry.circuit),
            entry.options, "warm:" + hexFp(entry.circuitFp), false);
        if (outcome.accepted)
            ++warmed;
    }
    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        warmRecompiles_ += static_cast<std::uint64_t>(warmed);
    }
    return {epoch->id, warmed};
}

std::shared_ptr<const Epoch>
CompileDaemon::currentEpoch() const
{
    std::lock_guard<std::mutex> lock(epochMu_);
    return epoch_;
}

void
CompileDaemon::awaitIdle()
{
    std::unique_lock<std::mutex> lock(jobsMu_);
    allIdle_.wait(lock, [&] { return outstanding_ == 0; });
}

void
CompileDaemon::beginShutdown()
{
    std::lock_guard<std::mutex> lock(jobsMu_);
    accepting_ = false;
}

bool
CompileDaemon::acceptingJobs() const
{
    std::lock_guard<std::mutex> lock(jobsMu_);
    return accepting_;
}

DaemonStats
CompileDaemon::stats() const
{
    DaemonStats s;
    {
        std::lock_guard<std::mutex> lock(jobsMu_);
        s.submitted = submitted_;
        s.completed = completed_;
        s.rejected = rejected_;
        s.diskHits = diskHits_;
        s.warmRecompiles = warmRecompiles_;
        s.verifiedOnLoad = verifiedOnLoad_;
        s.healed = healed_;
        s.records = jobs_.size() + done_.size();
        for (const auto &[id, record] : jobs_)
            if (record->result.program)
                ++s.programsHeld;
        for (const auto &[name, entry] : tenants_)
            s.tenants.push_back(entry.stats);
    }
    std::sort(s.tenants.begin(), s.tenants.end(),
              [](const TenantStats &a, const TenantStats &b) {
                  return a.tenant < b.tenant;
              });
    {
        std::lock_guard<std::mutex> lock(epochMu_);
        s.epochId = epoch_->id;
        s.epochDay = epoch_->day;
    }
    {
        std::lock_guard<std::mutex> lock(hotMu_);
        s.hotEntries = hot_.size();
    }
    s.queue = queue_.stats();
    s.memCache = memCache_.stats();
    s.disk = disk_.stats();
    s.diskEntries = disk_.entryCount();
    return s;
}

} // namespace qc::daemon
