/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * The benchmark records spans from its own code, around its calls
 * into each layer of the library (the layer shims in training.cpp,
 * the submit / wait calls in serving.cpp). Every span carries a
 * name, a start, an end, the span that encloses it and the step or
 * job id it belongs to. Spans stay in memory until the run ends; then
 * they are reduced to per-layer self times and written out as Chrome
 * trace-event JSON, which Perfetto and chrome://tracing open.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded interval. */
struct Span
{
    int name = 0;        ///< Tracer::intern id
    double startUs = 0;  ///< microseconds since the tracer's origin
    double endUs = 0;
    int64_t parent = -1; ///< enclosing span's index in the list, -1: none
    int64_t id = 0;      ///< step or job id
    int tid = 0;         ///< recording slot (one thread at a time)
};

/**
 * Self time of every span, in microseconds: its duration minus the
 * part of its interval covered by its children. Children may overlap
 * one another (their union is subtracted once) and may stick out of
 * the parent (only the clipped part counts).
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans);

/** Span recorder with one buffer per recording slot. */
class Tracer
{
  public:
    /**
     * `slots` buffers, each used by one thread at a time, with room
     * for `reserve` spans each before a buffer has to grow.
     */
    Tracer(int slots, size_t reserve);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Id of the span name `name` in category `cat` (the layer the
     * span measures). Not thread-safe: intern every name before
     * threads start recording.
     */
    int intern(const std::string &name, const std::string &cat);

    /** Open a span on `slot`; it nests in the slot's innermost one. */
    void begin(int slot, int name, int64_t id);

    /** Close the innermost open span of `slot`. */
    void end(int slot);

    /** Every recorded span, slot by slot, with list-wide parents. */
    std::vector<Span> spans() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Slot
    {
        std::vector<Span> spans;
        std::vector<size_t> open; ///< stack of open span indices
    };

    double nowUs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<std::string> names_;
    std::vector<std::string> cats_;
    std::vector<Slot> slots_;
};

/** RAII span; a null tracer makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, int slot, int name, int64_t id)
        : tracer_(tracer), slot_(slot)
    {
        if (tracer_)
            tracer_->begin(slot_, name, id);
    }

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(slot_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int slot_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
