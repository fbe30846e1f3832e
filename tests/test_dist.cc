/** @file Unit and property tests for the distribution library. */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>

#include "common/dist.hh"

namespace preempt {
namespace {

TEST(ConstantDist, AlwaysSameValue)
{
    Rng rng(1);
    ConstantDist d(42.5);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(d.sample(rng), 42.5);
    EXPECT_DOUBLE_EQ(d.mean(), 42.5);
}

TEST(ExponentialDist, MeanMatches)
{
    Rng rng(2);
    ExponentialDist d(5000.0);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += d.sample(rng);
    EXPECT_NEAR(sum / n, 5000.0, 50.0);
}

TEST(ExponentialDist, RejectsNonPositiveMean)
{
    EXPECT_EXIT(ExponentialDist(-1.0), testing::ExitedWithCode(1), "");
}

TEST(UniformDist, BoundsAndMean)
{
    Rng rng(3);
    UniformDist d(10.0, 20.0);
    double sum = 0;
    for (int i = 0; i < 50000; ++i) {
        double v = d.sample(rng);
        ASSERT_GE(v, 10.0);
        ASSERT_LT(v, 20.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 50000, 15.0, 0.1);
}

TEST(BimodalDist, ProportionsMatch)
{
    Rng rng(4);
    BimodalDist d(500.0, 500000.0, 0.005);
    int longs = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        double v = d.sample(rng);
        ASSERT_TRUE(v == 500.0 || v == 500000.0);
        longs += v == 500000.0;
    }
    EXPECT_NEAR(static_cast<double>(longs) / n, 0.005, 0.001);
    EXPECT_NEAR(d.mean(), 0.995 * 500 + 0.005 * 500000, 1e-9);
}

TEST(LogNormalDist, MeanMatches)
{
    Rng rng(5);
    LogNormalDist d(1000.0, 0.5);
    double sum = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i)
        sum += d.sample(rng);
    EXPECT_NEAR(sum / n, 1000.0, 20.0);
}

TEST(ParetoDist, TailHeavinessAndMean)
{
    Rng rng(6);
    ParetoDist d(100.0, 2.5);
    double sum = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        double v = d.sample(rng);
        ASSERT_GE(v, 100.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, d.mean(), d.mean() * 0.05);
}

TEST(ParetoDist, InfiniteMeanBelowOne)
{
    ParetoDist d(1.0, 0.9);
    EXPECT_TRUE(std::isinf(d.mean()));
}

TEST(MixtureDist, WeightsRespected)
{
    Rng rng(7);
    auto a = std::make_shared<ConstantDist>(1.0);
    auto b = std::make_shared<ConstantDist>(2.0);
    MixtureDist mix({a, b}, {0.75, 0.25});
    int ones = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ones += mix.sample(rng) == 1.0;
    EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
    EXPECT_NEAR(mix.mean(), 1.25, 1e-9);
}

TEST(MixtureDist, RejectsMismatchedSizes)
{
    auto a = std::make_shared<ConstantDist>(1.0);
    EXPECT_EXIT(MixtureDist({a}, {0.5, 0.5}), testing::ExitedWithCode(1),
                "");
}

TEST(Zipfian, SkewConcentratesOnHotKeys)
{
    Rng rng(8);
    ZipfianGenerator zipf(10000, 0.99);
    std::map<std::uint64_t, int> counts;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.next(rng)];
    // Key 0 is the hottest; with theta=0.99 it draws a large share.
    EXPECT_GT(counts[0], n / 20);
    // All keys in range.
    for (const auto &[k, c] : counts)
        ASSERT_LT(k, 10000u);
}

TEST(Zipfian, ZeroThetaIsUniformish)
{
    Rng rng(9);
    ZipfianGenerator zipf(100, 0.0);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.next(rng)];
    // No key should dominate.
    for (const auto &[k, c] : counts)
        ASSERT_LT(c, 3000);
}

TEST(PaperWorkloads, ParametersMatchSectionVA)
{
    Rng rng(10);
    auto a1 = makePaperWorkload("A1");
    auto a2 = makePaperWorkload("A2");
    auto b = makePaperWorkload("B");
    EXPECT_NEAR(a1->mean(), 0.995 * 500 + 0.005 * 500000, 1e-6);
    EXPECT_NEAR(a2->mean(), 0.995 * 5000 + 0.005 * 500000, 1e-6);
    EXPECT_NEAR(b->mean(), 5000.0, 1e-6);
}

TEST(PaperWorkloads, UnknownNameIsFatal)
{
    EXPECT_EXIT(makePaperWorkload("Z9"), testing::ExitedWithCode(1),
                "unknown paper workload");
}

TEST(Scv, RanksWorkloadsByDispersion)
{
    Rng rng(11);
    double scv_a1 = estimateScv(*makePaperWorkload("A1"), rng);
    double scv_a2 = estimateScv(*makePaperWorkload("A2"), rng);
    double scv_b = estimateScv(*makePaperWorkload("B"), rng);
    // A1 is the most dispersive, B (exponential) has SCV ~1.
    EXPECT_GT(scv_a1, scv_a2);
    EXPECT_GT(scv_a2, scv_b);
    EXPECT_NEAR(scv_b, 1.0, 0.1);
}

// Property sweep: every distribution yields non-negative samples and a
// sampled mean near the analytic mean.
struct DistCase
{
    const char *name;
    DistributionPtr dist;
};

// Prints the case by name, so the listed test names hold no pointers.
void PrintTo(const DistCase &c, std::ostream *os) { *os << c.name; }

class DistributionProperty : public testing::TestWithParam<DistCase>
{
};

TEST_P(DistributionProperty, NonNegativeAndMeanConsistent)
{
    Rng rng(99);
    const auto &dist = *GetParam().dist;
    double sum = 0;
    const int n = 300000;
    for (int i = 0; i < n; ++i) {
        double v = dist.sample(rng);
        ASSERT_GE(v, 0.0) << dist.name();
        sum += v;
    }
    double mean = sum / n;
    EXPECT_NEAR(mean, dist.mean(), dist.mean() * 0.05 + 1e-9)
        << dist.name();
}

TEST_P(DistributionProperty, SampleNsRoundsSanely)
{
    Rng rng(100);
    const auto &dist = *GetParam().dist;
    for (int i = 0; i < 1000; ++i) {
        TimeNs v = dist.sampleNs(rng);
        ASSERT_LT(v, static_cast<TimeNs>(1) << 62);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionProperty,
    testing::Values(
        DistCase{"const", std::make_shared<ConstantDist>(7.0)},
        DistCase{"exp", std::make_shared<ExponentialDist>(5000.0)},
        DistCase{"uniform", std::make_shared<UniformDist>(1.0, 2.0)},
        DistCase{"bimodalA1", makePaperWorkload("A1")},
        DistCase{"bimodalA2", makePaperWorkload("A2")},
        DistCase{"lognormal", std::make_shared<LogNormalDist>(1000.0, 0.6)},
        DistCase{"pareto", std::make_shared<ParetoDist>(10.0, 2.2)}),
    [](const testing::TestParamInfo<DistCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace preempt
