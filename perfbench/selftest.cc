/**
 * @file
 * Checks of the benchmark's own arithmetic (stats.hh). Run with
 * `ctest --test-dir .bench_build/perfbench` after a benchmark run has
 * built it, or directly as .bench_build/perfbench/perfbench_selftest.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/stats.hh"

namespace {

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "selftest.cc:%d: %s\n", line, what);
        ++failures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void
percentiles()
{
    using perfbench::quantile;
    using perfbench::tailResolved;

    // p99 needs ten samples beyond it: 1000 samples, not 999.
    EXPECT(tailResolved(1000, 0.99));
    EXPECT(!tailResolved(999, 0.99));
    EXPECT(tailResolved(20, 0.50));
    EXPECT(!tailResolved(19, 0.50));
    EXPECT(tailResolved(10000, 0.999));
    EXPECT(!tailResolved(9999, 0.999));

    // Nearest rank over 1..1000: p50 = 500, p99 = 990, 10 values above.
    std::vector<int> v;
    for (int i = 1000; i >= 1; --i)
        v.push_back(i);
    EXPECT(quantile(v, 0.50) == 500);
    EXPECT(quantile(v, 0.99) == 990);
    EXPECT(quantile(v, 1.0) == 1000);
    EXPECT(quantile(v, 0.0) == 1);

    std::vector<double> one{7.5};
    EXPECT(quantile(one, 0.99) == 7.5);
    std::vector<double> none;
    EXPECT(quantile(none, 0.5) == 0);

    EXPECT(perfbench::median({3, 1, 2}) == 2);
    EXPECT(perfbench::median({4, 1, 3, 2}) == 2); // lower median
    EXPECT(near(perfbench::mean({1, 2, 3, 6}), 3));
}

void
phaseMedian()
{
    // Two slow phases and one fast one out of five leave the median at
    // the common speed.
    struct Phase
    {
        double ops;
    };
    std::vector<Phase> phases{{100}, {500}, {520}, {90}, {510}};
    EXPECT(perfbench::medianOf(phases, [](const Phase &p) {
               return p.ops;
           }) == 500);
    EXPECT(perfbench::medianOf(std::vector<Phase>{},
                               [](const Phase &p) { return p.ops; }) == 0);
}

void
split()
{
    perfbench::Split s{0.5, 30.0, 1.5};
    EXPECT(near(s.total(), 32.0));
    // The stages account for all of a 32 us latency ...
    EXPECT(near(perfbench::splitResidual(32.0, s), 0.0));
    // ... for 80% of a 40 us one ...
    EXPECT(near(perfbench::splitResidual(40.0, s), 0.2));
    // ... and overshoot a 16 us one (tracing slowed the stages).
    EXPECT(near(perfbench::splitResidual(16.0, s), -1.0));
    EXPECT(perfbench::splitResidual(0.0, s) == 0.0);
}

void
sliceGaps()
{
    // A body spinning in 20 ns steps, preempted twice: after 50 us of
    // running (pause 30 us) and after another 52 us (pause 8 us).
    perfbench::SliceClock c(1000, 2000);
    std::uint64_t t = 1000;
    auto spin = [&](std::uint64_t ns) {
        for (std::uint64_t end = t + ns; t < end;) {
            t += 20;
            EXPECT(!c.tick(t));
        }
    };
    spin(50000);
    t += 30000;
    EXPECT(c.tick(t));
    spin(52000);
    t += 8000;
    EXPECT(c.tick(t));
    spin(10000);

    EXPECT(c.pauses() == 2);
    EXPECT(c.recorded() == 2);
    EXPECT(c.slice(0) == 50000);
    EXPECT(c.pause(0) == 30000);
    EXPECT(c.slice(1) == 52000);
    EXPECT(c.pause(1) == 8000);
    EXPECT(c.running() == 112000);

    // A step exactly at the threshold is still running time.
    perfbench::SliceClock edge(0, 2000);
    EXPECT(!edge.tick(2000));
    EXPECT(edge.tick(4001));
    EXPECT(edge.running() == 2000);

    // More pauses than slots: all counted, the first kMaxSlices kept.
    perfbench::SliceClock many(0, 10);
    for (std::uint64_t i = 1; i <= 100; ++i)
        EXPECT(many.tick(i * 1000));
    EXPECT(many.pauses() == 100);
    EXPECT(many.recorded() == perfbench::SliceClock::kMaxSlices);
}

void
failCounting()
{
    perfbench::Tally t;
    EXPECT(t.ratio() == 0);
    t.add(100, 100, 100); // clean batch
    EXPECT(t.attempted == 100 && t.failed == 0);
    t.add(100, 97, 95); // 3 refused + 2 accepted but never finished
    EXPECT(t.attempted == 200 && t.failed == 5);
    EXPECT(near(t.ratio(), 0.025));
    t.add(10, 12, 20); // inconsistent inputs never underflow
    EXPECT(t.attempted == 210 && t.failed == 5);
}

} // namespace

int
main()
{
    percentiles();
    phaseMedian();
    split();
    sliceGaps();
    failCounting();
    if (failures) {
        std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("perfbench_selftest: ok\n");
    return 0;
}
