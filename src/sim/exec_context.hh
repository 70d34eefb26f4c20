/**
 * @file
 * ExecContext couples the functional and timing halves of the
 * simulator: it owns the simulated virtual address space (whose
 * buffers the functional kernels read and write on the host) and the
 * multicore timing system that replays the kernels' trace phases.
 */

#ifndef ZCOMP_SIM_EXEC_CONTEXT_HH
#define ZCOMP_SIM_EXEC_CONTEXT_HH

#include "common/json.hh"
#include "cpu/system.hh"
#include "mem/vspace.hh"

namespace zcomp {

/** Timing + traffic delta of one or more phases. */
struct RunStats
{
    double cycles = 0;
    CycleBreakdown breakdown;
    HierSnapshot traffic;

    RunStats &operator+=(const RunStats &o);
};

/**
 * Serialize a RunStats delta: cycles, the compute/memory/sync
 * breakdown, and every per-level traffic counter (plus the derived
 * onChip/total byte aggregates the figures report).
 */
Json runStatsToJson(const RunStats &s);

/**
 * Rebuild a RunStats from its runStatsToJson() form (the derived
 * onChipBytes/totalBytes aggregates are ignored - they are
 * recomputed). Round-trips exactly: Json prints doubles with
 * enough digits and integers verbatim. Throws std::runtime_error on
 * missing or mistyped fields, so corrupt result-cache entries fail
 * loudly instead of decoding to zeros.
 */
RunStats runStatsFromJson(const Json &j);

/**
 * Called around each phase ExecContext::run() replays; the bench layer
 * turns the calls into --trace spans and --metrics samples. The byte
 * counts are the pass's stream bytes before compression and as its
 * policy moves them (both 0 when the caller does not count them).
 */
class PhaseObserver
{
  public:
    virtual ~PhaseObserver() = default;
    virtual void beforePhase(const TracePhase &phase, uint64_t orig_bytes,
                             uint64_t comp_bytes) = 0;
    virtual void afterPhase(const TracePhase &phase,
                            const PhaseResult &r) = 0;
};

class ExecContext
{
  public:
    /**
     * A non-null @p arena backs the context's VSpace: every tensor and
     * scratch buffer is carved from it instead of individual heap
     * allocations. The arena must outlive the context and may only be
     * reset() after the context (and everything holding its buffers)
     * is gone.
     */
    explicit ExecContext(const ArchConfig &cfg, BumpArena *arena = nullptr)
        : vs_(0x10000, /*allocate_host=*/true, arena), sys_(cfg)
    {}

    VSpace &vs() { return vs_; }
    MultiCoreSystem &sys() { return sys_; }
    const ArchConfig &config() const { return sys_.config(); }

    /**
     * Run one phase and return its cycle/traffic delta (counters are
     * snapshotted around the phase; cache contents persist).
     */
    RunStats run(const TracePhase &phase, uint64_t orig_bytes = 0,
                 uint64_t comp_bytes = 0);

    /** Run a phase without accounting (cache warmup). */
    void warm(const TracePhase &phase);

    /** Observe later run() phases (null stops); not owned. */
    void setObserver(PhaseObserver *obs) { observer_ = obs; }
    PhaseObserver *observer() const { return observer_; }

  private:
    VSpace vs_;
    MultiCoreSystem sys_;
    PhaseObserver *observer_ = nullptr;
};

} // namespace zcomp

#endif // ZCOMP_SIM_EXEC_CONTEXT_HH
