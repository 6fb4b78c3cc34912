/**
 * @file
 * Self-tests of the benchmark's own arithmetic: nearest-rank
 * percentiles and tail selection, span self time with nested and
 * overlapping children, host-speed normalization, and the tracer's
 * span bookkeeping. Exits
 * nonzero on the first failed expectation. Run by test_perfbench.py.
 */

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++g_failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

void
expectNear(double got, double want, const std::string &what)
{
    expect(std::fabs(got - want) < 1e-9,
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
}

perfbench::Span
span(double start, double end, int64_t parent)
{
    perfbench::Span s;
    s.startUs = start;
    s.endUs = end;
    s.parent = parent;
    return s;
}

void
testPercentiles()
{
    using namespace perfbench;
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    expect(nearestRank(0.9, 100) == 90, "p90 of 100 is rank 90");
    expect(samplesBeyond(0.9, 100) == 10, "p90 of 100 leaves 10 beyond");
    expectNear(percentile(hundred, 0.9), 90.0, "p90 of 1..100");
    expectNear(percentile(hundred, 0.99), 99.0, "p99 of 1..100");
    expectNear(median({3.0, 1.0, 2.0}), 2.0, "median of three");
    expectNear(median({4.0, 1.0, 3.0, 2.0}), 2.0,
               "nearest-rank median of four is the lower middle");
    expectNear(median({7.0}), 7.0, "median of one");

    // The highest ladder percentile with at least ten samples beyond.
    expect(tailLevel(99) == 0.0, "99 samples support no tail");
    expect(tailLevel(100) == 0.90, "100 samples support p90");
    expect(tailLevel(199) == 0.90, "199 samples: p95 would leave 9");
    expect(tailLevel(200) == 0.95, "200 samples support p95");
    expect(tailLevel(999) == 0.95, "999 samples: p99 would leave 9");
    expect(tailLevel(1000) == 0.99, "1000 samples support p99");
    expect(tailLevel(10000) == 0.999, "10000 samples support p99.9");
    expect(std::string(tailName(tailLevel(1000))) == "p99", "tail name");
    expect(std::string(tailName(tailLevel(10))) == "none", "no tail name");
}

void
testSelfTime()
{
    using namespace perfbench;
    // 0: parent [0, 100]
    // 1: child [10, 30], 2: child [20, 50] overlapping it,
    // 3: child [90, 120] sticking out of the parent,
    // 4: grandchild [15, 25] inside child 1.
    const std::vector<Span> spans = {span(0, 100, -1), span(10, 30, 0),
                                     span(20, 50, 0), span(90, 120, 0),
                                     span(15, 25, 1)};
    const std::vector<double> self = selfTimesUs(spans);
    expectNear(self[0], 100.0 - 40.0 - 10.0,
               "parent minus the union of its children, clipped");
    expectNear(self[1], 20.0 - 10.0, "child minus its grandchild");
    expectNear(self[2], 30.0, "leaf child keeps its duration");
    expectNear(self[3], 30.0, "leaf outside the parent keeps its own");
    expectNear(self[4], 10.0, "grandchild keeps its duration");

    // Disjoint children and a childless root.
    const std::vector<Span> flat = {span(0, 10, -1), span(1, 2, 0),
                                    span(3, 5, 0), span(20, 30, -1)};
    const std::vector<double> f = selfTimesUs(flat);
    expectNear(f[0], 10.0 - 1.0 - 2.0, "disjoint children");
    expectNear(f[3], 10.0, "root without children");
}

void
testHostNormalized()
{
    using namespace perfbench;
    // Each sample is read against the mean of the passes around it.
    const std::vector<double> n =
        hostNormalized({10.0, 30.0}, {1.0, 3.0, 3.0}, 0.5);
    expect(n.size() == 2, "one normalized value per sample");
    if (n.size() == 2) {
        expectNear(n[0], 10.0 * 0.5 / 2.0, "bracketed by passes 0 and 1");
        expectNear(n[1], 30.0 * 0.5 / 3.0, "bracketed by passes 1 and 2");
    }
    // A host twice as slow on both the samples and the passes reads
    // the same.
    const std::vector<double> slow =
        hostNormalized({20.0, 60.0}, {2.0, 6.0, 6.0}, 0.5);
    expect(slow == n, "host speed cancels");
    bool threw = false;
    try {
        hostNormalized({1.0, 2.0}, {1.0, 1.0}, 1.0);
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    expect(threw, "a sample without a closing pass is refused");
}

void
testTracer()
{
    using namespace perfbench;
    Tracer tracer(2, 8);
    const int outer = tracer.intern("outer", "test");
    const int inner = tracer.intern("inner", "test");
    expect(tracer.intern("outer", "test") == outer, "intern is stable");
    {
        ScopedSpan a(&tracer, 1, outer, 7);
        ScopedSpan b(&tracer, 1, inner, 7);
    }
    {
        ScopedSpan c(&tracer, 0, outer, 3);
    }
    {
        ScopedSpan off(nullptr, 0, outer, 3); // disabled: records nothing
    }
    const std::vector<Span> spans = tracer.spans();
    expect(spans.size() == 3, "three spans recorded");
    if (spans.size() != 3)
        return;
    // Slot 0 comes first, so slot 1's spans are offset by one.
    expect(spans[0].tid == 0 && spans[0].parent == -1 && spans[0].id == 3,
           "slot 0 root");
    expect(spans[1].tid == 1 && spans[1].parent == -1 &&
               spans[1].name == outer,
           "slot 1 root");
    expect(spans[2].parent == 1 && spans[2].name == inner &&
               spans[2].id == 7,
           "nested span points at its slot-1 parent");
    expect(spans[2].startUs >= spans[1].startUs &&
               spans[2].endUs <= spans[1].endUs,
           "child interval inside the parent's");
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTime();
    testHostNormalized();
    testTracer();
    if (g_failures == 0)
        std::printf("perfbench self-tests passed\n");
    return g_failures == 0 ? 0 : 1;
}
