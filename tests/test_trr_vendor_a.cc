#include <gtest/gtest.h>

#include <algorithm>

#include "trr/vendor_a.hh"
#include "trr_fold_check.hh"

namespace utrr
{
namespace
{

std::vector<TrrRefreshAction>
advanceToTrrRef(VendorATrr &trr, int period = 9)
{
    // Issue REFs until the TRR-capable one; return its actions.
    for (int i = 0; i < period - 1; ++i) {
        const auto actions = trr.onRefresh();
        EXPECT_TRUE(actions.empty());
    }
    return trr.onRefresh();
}

TEST(VendorATrr, OnlyEveryNinthRefIsTrrCapable)
{
    VendorATrr trr(1);
    trr.onActivate(0, 100);
    int trr_refs = 0;
    for (int ref = 1; ref <= 90; ++ref) {
        const auto actions = trr.onRefresh();
        if (!actions.empty()) {
            ++trr_refs;
            EXPECT_EQ(ref % 9, 0) << "TRR refresh at REF " << ref;
        }
    }
    EXPECT_GE(trr_refs, 5);
}

TEST(VendorATrr, CountsActivationsPerRow)
{
    VendorATrr trr(1);
    for (int i = 0; i < 5; ++i)
        trr.onActivate(0, 100);
    trr.onActivate(0, 200);
    const auto table = trr.tableOf(0);
    ASSERT_EQ(table.size(), 2u);
    EXPECT_EQ(table[0].first, 100);
    EXPECT_EQ(table[0].second, 5u);
    EXPECT_EQ(table[1].second, 1u);
}

TEST(VendorATrr, TrefADetectsHighestCounter)
{
    VendorATrr trr(1);
    for (int i = 0; i < 10; ++i)
        trr.onActivate(0, 100);
    for (int i = 0; i < 50; ++i)
        trr.onActivate(0, 200);
    const auto actions = advanceToTrrRef(trr);
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].aggressorPhysRow, 200);
}

TEST(VendorATrr, DetectionResetsCounter)
{
    // Obs. A6: after detection the counter restarts from zero, so the
    // other aggressor wins the next TREF even if hammered less since.
    VendorATrr trr(1);
    for (int i = 0; i < 50; ++i)
        trr.onActivate(0, 200);
    for (int i = 0; i < 10; ++i)
        trr.onActivate(0, 100);
    auto actions = advanceToTrrRef(trr); // TREF_a: row 200, reset
    ASSERT_EQ(actions[0].aggressorPhysRow, 200);
    const auto table = trr.tableOf(0);
    const auto it = std::find_if(table.begin(), table.end(),
                                 [](const auto &entry) {
                                     return entry.first == 200;
                                 });
    ASSERT_NE(it, table.end());
    EXPECT_EQ(it->second, 0u);
}

TEST(VendorATrr, TableCapacity16)
{
    // Obs. A4: at most 16 rows tracked per bank.
    VendorATrr trr(1);
    for (Row r = 0; r < 40; ++r)
        trr.onActivate(0, r);
    EXPECT_EQ(trr.tableOf(0).size(), 16u);
}

TEST(VendorATrr, EvictsMinimumCounter)
{
    // Obs. A5: inserting into a full table evicts the smallest counter.
    VendorATrr trr(1);
    for (Row r = 0; r < 16; ++r) {
        for (int i = 0; i < 10; ++i)
            trr.onActivate(0, r);
    }
    trr.onActivate(0, 5); // row 5 now has 11
    for (int i = 0; i < 3; ++i)
        trr.onActivate(0, 100); // must evict one 10-count row
    const auto table = trr.tableOf(0);
    bool has100 = false;
    for (const auto &[row, count] : table)
        has100 = has100 || row == 100;
    EXPECT_TRUE(has100);
    EXPECT_EQ(table.size(), 16u);
}

TEST(VendorATrr, TrefBTraversesTable)
{
    // Obs. A3/A7: TREF_b walks the table and re-detects entries whose
    // counters are zero, indefinitely.
    VendorATrr trr(1);
    trr.onActivate(0, 100);
    trr.onActivate(0, 200);

    std::vector<Row> detected;
    for (int ref = 0; ref < 9 * 8; ++ref) {
        for (const auto &action : trr.onRefresh())
            detected.push_back(action.aggressorPhysRow);
    }
    // Both rows keep being detected even though activation stopped.
    EXPECT_GE(std::count(detected.begin(), detected.end(), 100), 2);
    EXPECT_GE(std::count(detected.begin(), detected.end(), 200), 2);
}

TEST(VendorATrr, PerBankTables)
{
    VendorATrr trr(2);
    for (int i = 0; i < 10; ++i) {
        trr.onActivate(0, 100);
        trr.onActivate(1, 900);
    }
    const auto actions = advanceToTrrRef(trr);
    ASSERT_EQ(actions.size(), 2u);
    EXPECT_EQ(actions[0].bank, 0);
    EXPECT_EQ(actions[0].aggressorPhysRow, 100);
    EXPECT_EQ(actions[1].bank, 1);
    EXPECT_EQ(actions[1].aggressorPhysRow, 900);
}

TEST(VendorATrr, NoDetectionWithEmptyTable)
{
    VendorATrr trr(1);
    for (int ref = 0; ref < 36; ++ref)
        EXPECT_TRUE(trr.onRefresh().empty());
}

TEST(VendorATrr, TrefASkipsAllZeroCounters)
{
    // After the only entry is detected (count -> 0) and never
    // re-hammered, TREF_a has nothing to detect; only TREF_b keeps
    // cycling the entry.
    VendorATrr trr(1);
    trr.onActivate(0, 100);
    int detections = 0;
    for (int ref = 0; ref < 18 * 4; ++ref)
        detections += static_cast<int>(trr.onRefresh().size());
    // TREF_b fires every 18 REFs on the single entry; TREF_a only the
    // first time (counter 1), then the counter stays zero.
    EXPECT_GE(detections, 4);
    EXPECT_LE(detections, 6);
}

TEST(VendorATrr, ResetClearsState)
{
    VendorATrr trr(1);
    for (int i = 0; i < 100; ++i)
        trr.onActivate(0, 50);
    trr.reset();
    EXPECT_TRUE(trr.tableOf(0).empty());
    // REF counter restarts: the 9th REF after reset is TRR-capable.
    trr.onActivate(0, 60);
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(trr.onRefresh().empty());
    EXPECT_FALSE(trr.onRefresh().empty());
}

TEST(VendorATrr, RoundRobinAndBurstFoldsMatchPerActReplay)
{
    // Forty rows over four banks overflow the 16-entry tables, so the
    // checks cover inserts and Obs. A5 evictions ahead of the fold.
    FoldCheckShape shape;
    shape.rowPool = 40;
    for (const TrrVersion version :
         {TrrVersion::kATrr1, TrrVersion::kATrr2}) {
        SCOPED_TRACE(trrVersionName(version));
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            checkFoldMatchesReplay(makeTrr(version, shape.banks, seed),
                                   tableView(shape.banks), seed, shape);
        }
    }
}

TEST(VendorATrr, FoldMatchesReplayUnderEvictionThrash)
{
    // Up to eight listed rows per bank against a 4-entry table: a pass
    // listing more than four rows of one bank evicts listed rows, so
    // the fold must keep replaying it.
    FoldCheckShape shape;
    shape.banks = 2;
    shape.rowPool = 12;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        checkFoldMatchesReplay(
            std::make_unique<VendorATrr>(shape.banks,
                                         VendorATrr::Params{4, 9}),
            tableView(shape.banks), seed, shape);
    }
}

} // namespace
} // namespace utrr
