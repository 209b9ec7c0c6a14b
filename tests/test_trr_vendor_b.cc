#include <gtest/gtest.h>

#include "trr/vendor_b.hh"
#include "trr_fold_check.hh"

namespace utrr
{
namespace
{

VendorBTrr::Params
chipWide(int period = 4)
{
    VendorBTrr::Params params;
    params.trrRefPeriod = period;
    params.perBank = false;
    return params;
}

TEST(VendorBTrr, SamplesAfterEnoughActivations)
{
    // Obs. B3: thousands of consecutive ACTs to one row make its
    // detection essentially certain.
    VendorBTrr trr(1, chipWide(), 1);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 123);
    ASSERT_TRUE(trr.currentSample().has_value());
    EXPECT_EQ(trr.currentSample()->aggressorPhysRow, 123);
}

TEST(VendorBTrr, OnlyEveryFourthRefPerformsTrr)
{
    VendorBTrr trr(1, chipWide(4), 2);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 5);
    for (int ref = 1; ref <= 40; ++ref) {
        const auto actions = trr.onRefresh();
        EXPECT_EQ(!actions.empty(), ref % 4 == 0)
            << "unexpected action set at REF " << ref;
    }
}

TEST(VendorBTrr, ConfigurablePeriods)
{
    for (int period : {2, 9}) {
        VendorBTrr trr(1, chipWide(period), 3);
        for (int i = 0; i < 2'000; ++i)
            trr.onActivate(0, 5);
        int first_action_ref = 0;
        for (int ref = 1; ref <= period * 2; ++ref) {
            if (!trr.onRefresh().empty() && first_action_ref == 0)
                first_action_ref = ref;
        }
        EXPECT_EQ(first_action_ref, period);
    }
}

TEST(VendorBTrr, NewSampleOverwritesOld)
{
    // Obs. B4: sampling capacity of exactly one row.
    VendorBTrr trr(1, chipWide(), 4);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 111);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 222);
    ASSERT_TRUE(trr.currentSample().has_value());
    EXPECT_EQ(trr.currentSample()->aggressorPhysRow, 222);
}

TEST(VendorBTrr, SamplerSharedAcrossBanks)
{
    // Obs. B4: a row from another bank overwrites the sample.
    VendorBTrr trr(4, chipWide(), 5);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 111);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(3, 333);
    ASSERT_TRUE(trr.currentSample().has_value());
    EXPECT_EQ(trr.currentSample()->bank, 3);
    EXPECT_EQ(trr.currentSample()->aggressorPhysRow, 333);
}

TEST(VendorBTrr, TrrRefreshDoesNotClearSample)
{
    // Obs. B5.
    VendorBTrr trr(1, chipWide(), 6);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 77);
    int detections = 0;
    for (int ref = 0; ref < 16; ++ref) {
        for (const auto &action : trr.onRefresh()) {
            EXPECT_EQ(action.aggressorPhysRow, 77);
            ++detections;
        }
    }
    EXPECT_EQ(detections, 4); // every 4th of 16 REFs, same row
}

TEST(VendorBTrr, PerBankModeKeepsIndependentSamples)
{
    VendorBTrr::Params params;
    params.trrRefPeriod = 2;
    params.perBank = true;
    VendorBTrr trr(2, params, 7);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 100);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(1, 200);
    EXPECT_EQ(trr.currentSampleOf(0).value(), 100);
    EXPECT_EQ(trr.currentSampleOf(1).value(), 200);
    trr.onRefresh();
    const auto actions = trr.onRefresh(); // 2nd REF: TRR-capable
    ASSERT_EQ(actions.size(), 2u);
}

TEST(VendorBTrr, SamplingIsProbabilistic)
{
    // A handful of ACTs is usually not sampled; the probability over
    // many trials matches the configured rate roughly.
    int sampled = 0;
    for (int trial = 0; trial < 300; ++trial) {
        VendorBTrr trr(1, chipWide(), 1'000 + trial);
        trr.onActivate(0, 9);
        sampled += trr.currentSample().has_value() ? 1 : 0;
    }
    // One ACT: expected sampling rate = params.sampleProbability.
    EXPECT_GT(sampled, 1);
    EXPECT_LT(sampled, 60);
}

TEST(VendorBTrr, ResetClearsSampleAndPhase)
{
    VendorBTrr trr(1, chipWide(), 8);
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 42);
    trr.onRefresh();
    trr.reset();
    EXPECT_FALSE(trr.currentSample().has_value());
    for (int i = 0; i < 2'000; ++i)
        trr.onActivate(0, 43);
    for (int ref = 1; ref <= 4; ++ref) {
        const auto actions = trr.onRefresh();
        EXPECT_EQ(!actions.empty(), ref == 4);
    }
}

TEST(VendorBTrr, RoundRobinAndBurstFoldsMatchPerActReplay)
{
    // The fold keeps one draw per ACT in ACT order, so the RNG stream
    // position — and every later sample — must match the replay.
    const FoldCheckShape shape;
    for (const TrrVersion version :
         {TrrVersion::kBTrr1, TrrVersion::kBTrr2, TrrVersion::kBTrr3}) {
        SCOPED_TRACE(trrVersionName(version));
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            checkFoldMatchesReplay(makeTrr(version, shape.banks, seed),
                                   sampleView(shape.banks), seed, shape);
        }
    }
}

} // namespace
} // namespace utrr
