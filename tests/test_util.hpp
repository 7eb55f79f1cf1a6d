/**
 * @file
 * Shared helpers for the test suite: canonical experiment
 * environments and schedule-invariant checkers reused across suites.
 */

#ifndef QC_TESTS_TEST_UTIL_HPP
#define QC_TESTS_TEST_UTIL_HPP

#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "route/routing.hpp"
#include "sched/schedule.hpp"
#include "support/fingerprint.hpp"
#include "support/logging.hpp"

namespace qc::test {

/** Seed used everywhere so failures reproduce exactly. */
inline constexpr std::uint64_t kSeed = 20190131; // paper arXiv date

/**
 * Whether this is a ThreadSanitizer build. Z3 budgets each check with
 * a timer thread that takes a std::timed_mutex through try_lock_until.
 * A TSan runtime that does not intercept pthread_mutex_clocklock (GCC
 * 12's does not) misses that lock and reports the timer's unlock as
 * an unlock of an unlocked mutex, so tests whose timed Z3 checks run
 * to completion skip under TSan.
 */
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kThreadSanitizer = true;
#else
inline constexpr bool kThreadSanitizer = false;
#endif

/** Whether this is an AddressSanitizer build (its allocator pads and
 *  quarantines, so resident-size bounds do not apply). */
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kAddressSanitizer = true;
#else
inline constexpr bool kAddressSanitizer = false;
#endif

/** Process-wide IBMQ16 environment. */
inline const ExperimentEnv &
env()
{
    static ExperimentEnv e(kSeed);
    return e;
}

/** Day-0 machine (fresh instance per call). */
inline Machine
day0()
{
    return env().machineForDay(0);
}

/** Day-0 machine as the shared snapshot pipelines compile against. */
inline std::shared_ptr<const Machine>
day0Snapshot()
{
    return std::make_shared<const Machine>(day0());
}

/**
 * `prog` compiled by the standard `kind` bundle on `machine`; throws
 * FatalError when the bundle produces no program.
 */
inline CompiledProgram
compileWith(const std::shared_ptr<const Machine> &machine,
            MapperKind kind, const Circuit &prog)
{
    CompilerOptions opts;
    opts.mapper = kind;
    return standardPipeline(machine, opts).compile(prog);
}

/**
 * FNV-1a digest of a schedule's full timed op stream (makespan, every
 * op's gate, operands, timing, provenance and SWAP flag): the identity
 * the output goldens pin.
 */
inline std::uint64_t
opStreamHash(const Schedule &s)
{
    Fingerprint fp;
    fp.mix(s.numHwQubits).mix(static_cast<std::int64_t>(s.makespan));
    fp.mix(static_cast<std::uint64_t>(s.ops.size()));
    for (const auto &op : s.ops) {
        fp.mix(static_cast<int>(op.gate.op))
            .mix(op.gate.q0)
            .mix(op.gate.q1)
            .mix(op.gate.cbit)
            .mix(static_cast<std::int64_t>(op.start))
            .mix(static_cast<std::int64_t>(op.duration))
            .mix(op.progGate)
            .mix(op.isRouteSwap);
    }
    return fp.value();
}

/**
 * Assert the structural invariants every legal schedule must satisfy:
 *  - ops on a shared qubit never overlap in time,
 *  - op windows are non-negative and within the makespan,
 *  - two-qubit ops act on adjacent hardware qubits,
 *  - qubitFinish reflects the last use of each qubit.
 */
inline void
expectScheduleWellFormed(const Machine &machine, const Schedule &sched)
{
    const auto &topo = machine.topo();
    ASSERT_EQ(sched.numHwQubits, topo.numQubits());

    std::vector<Timeslot> last_finish(sched.numHwQubits, 0);
    for (const auto &op : sched.ops) {
        EXPECT_GE(op.start, 0);
        EXPECT_GT(op.duration, 0);
        EXPECT_LE(op.finish(), sched.makespan);
        if (op.gate.isTwoQubit()) {
            EXPECT_TRUE(topo.adjacent(op.gate.q0, op.gate.q1))
                << "two-qubit op on non-adjacent qubits " << op.gate.q0
                << "," << op.gate.q1;
        }
    }

    // Pairwise qubit-overlap check (schedules here are small).
    for (size_t i = 0; i < sched.ops.size(); ++i) {
        for (size_t j = i + 1; j < sched.ops.size(); ++j) {
            const auto &a = sched.ops[i];
            const auto &b = sched.ops[j];
            bool share = a.gate.touches(b.gate.q0) ||
                         (b.gate.isTwoQubit() && a.gate.touches(b.gate.q1));
            if (!share)
                continue;
            bool disjoint =
                a.finish() <= b.start || b.finish() <= a.start;
            EXPECT_TRUE(disjoint)
                << "ops " << a.gate.toString() << " and "
                << b.gate.toString() << " overlap in time";
        }
    }

    for (const auto &op : sched.ops) {
        last_finish[op.gate.q0] =
            std::max(last_finish[op.gate.q0], op.finish());
        if (op.gate.isTwoQubit())
            last_finish[op.gate.q1] =
                std::max(last_finish[op.gate.q1], op.finish());
    }
    for (int h = 0; h < sched.numHwQubits; ++h)
        EXPECT_EQ(sched.qubitFinish[h], last_finish[h]);
}

/**
 * A perfectly uniform calibration: every edge/qubit identical. Under
 * it, reliability-optimal mappings are purely graph-theoretic (no
 * noisy-element avoidance), which makes SWAP-count assertions exact.
 */
inline Calibration
uniformCalibration(const Topology &topo)
{
    Calibration cal;
    cal.t1Us.assign(topo.numQubits(), 80.0);
    cal.t2Us.assign(topo.numQubits(), 70.0);
    cal.readoutError.assign(topo.numQubits(), 0.05);
    cal.cnotError.assign(topo.numEdges(), 0.03);
    cal.cnotDuration.assign(topo.numEdges(), 10);
    cal.oneQubitError = 0.002;
    cal.oneQubitDuration = 1;
    cal.readoutDuration = 12;
    return cal;
}

/** Noise-free execution options (one deterministic trial suffices). */
inline ExecutionOptions
noiselessOptions()
{
    ExecutionOptions opts;
    opts.trials = 8;
    opts.seed = kSeed;
    opts.noise.gateErrors = false;
    opts.noise.decoherence = false;
    opts.noise.readoutErrors = false;
    return opts;
}

} // namespace qc::test

#endif // QC_TESTS_TEST_UTIL_HPP
