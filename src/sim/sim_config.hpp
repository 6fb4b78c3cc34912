/**
 * @file
 * SimConfig: every knob of the cycle-accounting layer, grouped in one
 * struct with the defaults documented in one place (previously the
 * MCACHE/PE service constants lived loose in AcceleratorConfig while
 * the timing backends had no knobs at all).
 *
 * Two backends implement the sim::CostModel API (sim/cost_model.hpp):
 *
 *  - Analytic (default): the closed-form per-layer Dataflow
 *    arithmetic summed by the shared step schedule. Deterministic,
 *    fast, and the source of every gated BENCH_*.json modeled number.
 *  - Event (src/sim/event_model/): a discrete-event replay of the
 *    same step schedule through banked DRAM, a banked GlobalBuffer
 *    with MSHR-style pending slots, MCACHE probe/insert traffic, and
 *    the PE array. Compute service times come from the SAME Dataflow
 *    closed forms — the event machinery adds only the memory-
 *    hierarchy contention the analytic model cannot see, so with the
 *    default sizings (compute-bound) the two backends agree on the
 *    pinned validation points.
 *
 * Selection: SimConfig::backend, overridable per process with
 * MERCURY_SIM_BACKEND=analytic|event (the same pattern as
 * MERCURY_KERNELS). Every fig/bench binary and the MercuryServer stat
 * path resolve the backend through sim::CostModel::create, so the
 * choice is by name, never a hard call into Dataflow.
 */

#ifndef MERCURY_SIM_SIM_CONFIG_HPP
#define MERCURY_SIM_SIM_CONFIG_HPP

#include <cstdint>

namespace mercury {

/** Timing backend implementing sim::CostModel. */
enum class SimBackend
{
    Analytic, ///< closed-form Dataflow + step schedule (default)
    Event,    ///< discrete-event memory-hierarchy replay
};

/** Printable backend name ("analytic" / "event"). */
const char *simBackendName(SimBackend backend);

/**
 * Event-model replay granularity. PerPass simulates every detection
 * pass of every layer; Sampled simulates one representative pass per
 * layer in full detail and scales it by the layer's pass count —
 * the ImageNet-scale sweep fidelity (contention state such as DRAM
 * open rows is carried across layers either way).
 */
enum class SimFidelity
{
    PerPass,
    Sampled,
};

/** Printable fidelity name ("per-pass" / "sampled"). */
const char *simFidelityName(SimFidelity fidelity);

/** All cycle-accounting knobs, with defaults documented here. */
struct SimConfig
{
    /** Timing backend; MERCURY_SIM_BACKEND overrides at create(). */
    SimBackend backend = SimBackend::Analytic;

    /** Event-model replay granularity (see SimFidelity). */
    SimFidelity fidelity = SimFidelity::PerPass;

    // ---- Service constants shared by both backends (previously on
    // ---- AcceleratorConfig) -------------------------------------

    /** Cycles to fetch a computed result from MCACHE by entry id. */
    int cacheReadCycles = 1;

    /** Per-insert serialization cost of a set's queue controller (§V). */
    int cacheInsertCycles = 1;

    /** Cycles for an earlier PE to forward one FC result (§III-C3). */
    int resultSendCycles = 1;

    // ---- Event backend: DRAM ------------------------------------
    // A modest LPDDR-class part: 8 banks, open-row policy, 16 B/cycle
    // of transfer bandwidth at the accelerator clock. Row hit = CAS
    // only; row miss = precharge + activate + CAS.

    int dramBanks = 8;
    int dramRowHitCycles = 20;
    int dramRowMissCycles = 60;
    int dramBusBytesPerCycle = 16;
    int64_t dramRowBytes = 2048;

    // ---- Event backend: GlobalBuffer ----------------------------
    // Eyeriss-class 108 KiB GLB split over 4 banks, each serving
    // 16 B/cycle, with 8 MSHR-style pending slots bounding the
    // outstanding DRAM fills (a 9th miss stalls until a slot frees).

    int gbBanks = 4;
    int gbPendingSlots = 8;
    int gbBytesPerBankCycle = 16;
    uint64_t gbCapacityBytes = 108 * 1024;
    int64_t gbLineBytes = 64;

    /**
     * Event-count bound: one pass's streaming is issued as at most
     * this many chunked requests (chunks grow with the pass size, so
     * ImageNet-scale passes stay tractable without changing totals).
     */
    int maxChunksPerPass = 32;
};

/**
 * Backend selection honoring the MERCURY_SIM_BACKEND environment
 * override ("analytic" / "event", case-sensitive; unset or empty
 * keeps `configured`). Unknown values fatal — a typo silently
 * falling back to analytic would invalidate an event-model study.
 */
SimBackend resolvedSimBackend(SimBackend configured);

} // namespace mercury

#endif // MERCURY_SIM_SIM_CONFIG_HPP
