#include <gtest/gtest.h>

#include "trr/vendor_c.hh"
#include "trr_fold_check.hh"

namespace utrr
{
namespace
{

VendorCTrr::Params
defaultParams()
{
    VendorCTrr::Params params;
    params.trrRefPeriod = 17;
    params.windowActs = 2'048;
    return params;
}

/** Hammer until the bank holds a candidate (sampling is
 *  probabilistic). */
void
hammerUntilCandidate(VendorCTrr &trr, Bank bank, Row row,
                     int max_acts = 4'000)
{
    for (int i = 0; i < max_acts && !trr.candidateOf(bank); ++i)
        trr.onActivate(bank, row);
}

TEST(VendorCTrr, EligibleEverySeventeenthRef)
{
    VendorCTrr trr(1, defaultParams(), 1);
    hammerUntilCandidate(trr, 0, 55);
    ASSERT_TRUE(trr.candidateOf(0).has_value());
    for (int ref = 1; ref <= 17; ++ref) {
        const auto actions = trr.onRefresh();
        EXPECT_EQ(!actions.empty(), ref == 17) << "ref " << ref;
    }
}

TEST(VendorCTrr, DeferredWhenNoCandidate)
{
    // Obs. C1: with no aggressor detected, the TRR-induced refresh is
    // deferred past the eligibility point to a later REF.
    VendorCTrr trr(1, defaultParams(), 2);
    for (int ref = 0; ref < 40; ++ref)
        EXPECT_TRUE(trr.onRefresh().empty());
    // Now a candidate appears; the very next REF performs the refresh.
    hammerUntilCandidate(trr, 0, 77);
    const auto actions = trr.onRefresh();
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].aggressorPhysRow, 77);
}

TEST(VendorCTrr, EarlierRowsStronglyFavoured)
{
    // Obs. C2: hammer row A heavily first, then row B; A should be the
    // detected candidate nearly always.
    int a_wins = 0;
    for (int trial = 0; trial < 50; ++trial) {
        VendorCTrr trr(1, defaultParams(), 100 + trial);
        for (int i = 0; i < 1'000; ++i)
            trr.onActivate(0, 10);
        for (int i = 0; i < 1'000; ++i)
            trr.onActivate(0, 20);
        if (trr.candidateOf(0) && *trr.candidateOf(0) == 10)
            ++a_wins;
    }
    EXPECT_GE(a_wins, 45);
}

TEST(VendorCTrr, ActsBeyondWindowInvisibleWhileCandidateHeld)
{
    VendorCTrr::Params params = defaultParams();
    params.windowActs = 64;
    params.sampleProbability = 1.0; // first ACT is always the candidate
    VendorCTrr trr(1, params, 3);
    trr.onActivate(0, 10);
    // Fill the rest of the window.
    while (trr.windowActsOf(0) < 64)
        trr.onActivate(0, 10);
    ASSERT_TRUE(trr.candidateOf(0).has_value());
    // Massive hammering of another row cannot displace the candidate.
    for (int i = 0; i < 50'000; ++i)
        trr.onActivate(0, 99);
    EXPECT_EQ(*trr.candidateOf(0), 10);
}

TEST(VendorCTrr, WindowReopensWhenExhaustedEmpty)
{
    // Obs. C1 (defer): if the whole window passes without a detection,
    // the mechanism keeps looking instead of going blind.
    VendorCTrr::Params params = defaultParams();
    params.windowActs = 16;
    params.sampleProbability = 0.0; // nothing sampled...
    VendorCTrr trr(1, params, 4);
    for (int i = 0; i < 100; ++i)
        trr.onActivate(0, 5);
    EXPECT_FALSE(trr.candidateOf(0).has_value());
    EXPECT_LE(trr.windowActsOf(0), 16);
}

TEST(VendorCTrr, FiringConsumesCandidateAndReopensWindow)
{
    VendorCTrr trr(1, defaultParams(), 5);
    hammerUntilCandidate(trr, 0, 42);
    for (int ref = 0; ref < 17; ++ref)
        trr.onRefresh();
    EXPECT_FALSE(trr.candidateOf(0).has_value());
    EXPECT_EQ(trr.windowActsOf(0), 0);
}

TEST(VendorCTrr, PerBankCandidates)
{
    VendorCTrr trr(2, defaultParams(), 6);
    hammerUntilCandidate(trr, 0, 100);
    hammerUntilCandidate(trr, 1, 200);
    for (int ref = 0; ref < 16; ++ref)
        trr.onRefresh();
    const auto actions = trr.onRefresh();
    ASSERT_EQ(actions.size(), 2u);
    EXPECT_EQ(actions[0].aggressorPhysRow, 100);
    EXPECT_EQ(actions[1].aggressorPhysRow, 200);
}

TEST(VendorCTrr, CadenceAnchoredOnFiring)
{
    // After a deferred firing, the next eligibility is a full period
    // after the fire, not after the original eligibility point.
    VendorCTrr trr(1, defaultParams(), 7);
    for (int ref = 0; ref < 25; ++ref)
        EXPECT_TRUE(trr.onRefresh().empty()); // deferred (no candidate)
    hammerUntilCandidate(trr, 0, 9);
    EXPECT_FALSE(trr.onRefresh().empty()); // fires now
    hammerUntilCandidate(trr, 0, 9);
    for (int ref = 1; ref <= 17; ++ref) {
        const auto actions = trr.onRefresh();
        EXPECT_EQ(!actions.empty(), ref == 17);
    }
}

TEST(VendorCTrr, ResetClearsEverything)
{
    VendorCTrr trr(1, defaultParams(), 8);
    hammerUntilCandidate(trr, 0, 11);
    for (int ref = 0; ref < 10; ++ref)
        trr.onRefresh();
    trr.reset();
    EXPECT_FALSE(trr.candidateOf(0).has_value());
    EXPECT_EQ(trr.windowActsOf(0), 0);
}

TEST(VendorCTrr, ShortWindowVersion)
{
    // C_TRR3: 1K-ACT window, every 8th REF.
    VendorCTrr::Params params;
    params.trrRefPeriod = 8;
    params.windowActs = 1'024;
    VendorCTrr trr(1, params, 9);
    hammerUntilCandidate(trr, 0, 3);
    for (int ref = 1; ref <= 8; ++ref) {
        const auto actions = trr.onRefresh();
        EXPECT_EQ(!actions.empty(), ref == 8);
    }
}

TEST(VendorCTrr, RoundRobinAndBurstFoldsMatchPerActReplay)
{
    const FoldCheckShape shape;
    for (const TrrVersion version :
         {TrrVersion::kCTrr1, TrrVersion::kCTrr2, TrrVersion::kCTrr3}) {
        SCOPED_TRACE(trrVersionName(version));
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            checkFoldMatchesReplay(makeTrr(version, shape.banks, seed),
                                   windowView(shape.banks), seed, shape);
        }
    }
}

TEST(VendorCTrr, FoldMatchesReplayAcrossWindowWraps)
{
    // A 16-ACT window sampled at 1/2000 usually runs out empty and
    // reopens (Obs. C1) before any candidate locks, so the replay
    // phase ahead of the fold spans many window wraps.
    VendorCTrr::Params params;
    params.trrRefPeriod = 3;
    params.windowActs = 16;
    params.sampleProbability = 1.0 / 2'000.0;
    const FoldCheckShape shape;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        checkFoldMatchesReplay(
            std::make_unique<VendorCTrr>(shape.banks, params, seed),
            windowView(shape.banks), seed, shape);
    }
}

} // namespace
} // namespace utrr
