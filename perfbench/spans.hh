/**
 * @file
 * In-memory span recorder for the benchmark's traced run. The
 * benchmark wraps every call it makes into a simulator layer in a
 * span (name, start, end, parent span, op id); spans stay in memory
 * and are written once, at exit, as a Chrome/Perfetto trace. A
 * disabled recorder (the untraced run) records nothing and never
 * reads the clock, so the traced and untraced runs execute the same
 * layer calls.
 *
 * Single-threaded by design: spans are opened and closed on the
 * benchmark's driving thread only, which keeps the parent stack a
 * plain vector.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock since the recorder's time zero. */
int64_t nowNs();

struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;    //!< index of the enclosing span, -1 at top level
    int64_t op = -1;    //!< op id (-1 for set-up spans)

    double
    seconds() const
    {
        return static_cast<double>(endNs - startNs) * 1e-9;
    }
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    /** Open a span under the innermost open one; -1 when disabled. */
    int begin(std::string name, int64_t op);

    /** Close span id (must be the innermost open span). */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Test hook: append a finished span with explicit times. Spans
     * must be added in start order, parent first, as begin() records
     * them.
     */
    int add(Span s);

    /**
     * Seconds of span id covered by none of its direct children (the
     * union of the children's intervals, clipped to the parent, is
     * subtracted once even where children overlap).
     */
    double selfSeconds(int id) const;

    /** Fraction of span id's duration covered by its children. */
    double childCoverage(int id) const;

    /** Write every span as a Chrome trace ("X" events, one lane). */
    void writeChromeTrace(const std::string &path) const;

  private:
    /** Covered nanoseconds of span id by its direct children. */
    int64_t childCoveredNs(int id) const;

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * RAII span: opens on construction, closes on destruction. Nesting by
 * scope always closes spans innermost first, so end() cannot throw
 * here unless a manual begin() inside the scope was left open - a
 * program bug that terminates from the (noexcept) destructor.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, int64_t op)
        : rec_(rec), id_(rec.begin(std::move(name), op))
    {}
    ~ScopedSpan() { rec_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
