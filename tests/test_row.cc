#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dram/row.hh"

namespace utrr
{
namespace
{

constexpr int kBits = 64 * 1024;

RowState
makeRow(RowPhysics physics, Time now = 0)
{
    return RowState(std::move(physics), now, Rng(1), kBits,
                    msToNs(4'000), 3.0);
}

RowPhysics
oneWeakCell(Col col, Time retention, bool charged = true)
{
    RowPhysics phys;
    WeakCell cell;
    cell.col = col;
    cell.retention = retention;
    cell.chargedValue = charged;
    phys.weakCells.push_back(cell);
    return phys;
}

TEST(RowState, FreshRowReadsCleanly)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
}

TEST(RowState, RetentionFlipAppearsAfterRetentionTime)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // ACT at 150 ms: flip commits
    const RowReadout readout = row.read();
    const auto flips = readout.flipsVs(DataPattern::allOnes(), 5);
    ASSERT_EQ(flips.size(), 1u);
    EXPECT_EQ(flips[0], 10);
    EXPECT_FALSE(readout.bit(10));
}

TEST(RowState, RefreshBeforeRetentionPreventsFlip)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(60));  // refresh in time
    row.restoreCharge(msToNs(150)); // 90 ms since refresh: still fine
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
}

TEST(RowState, RefreshAfterFailureCommitsTheFlip)
{
    // Paper footnote 4 / §3: a refresh restores whatever the cell
    // holds; a flip that already happened is preserved.
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // too late, flip committed
    row.restoreCharge(msToNs(160));
    row.restoreCharge(msToNs(10'000));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 1);
}

TEST(RowState, WriteClearsFlips)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150));
    row.writePattern(DataPattern::allOnes(), 5, msToNs(151));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
}

TEST(RowState, DischargedCellDoesNotFlip)
{
    // A true-cell storing 0 has no charge to lose.
    RowState row = makeRow(oneWeakCell(10, msToNs(100), true));
    row.writePattern(DataPattern::allZeros(), 5, 0);
    row.restoreCharge(msToNs(500));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allZeros(), 5), 0);
}

TEST(RowState, AntiCellFlipsZeroToOne)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100), false));
    row.writePattern(DataPattern::allZeros(), 5, 0);
    row.restoreCharge(msToNs(200));
    const RowReadout readout = row.read();
    EXPECT_TRUE(readout.bit(10)); // 0 decayed to 1
}

TEST(RowState, HammerFlipAtThreshold)
{
    RowPhysics phys;
    HammerCell cell;
    cell.col = 20;
    cell.threshold = 100.0;
    cell.chargedValue = true;
    phys.hammerCells.push_back(cell);
    RowState row = makeRow(std::move(phys));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.addDisturbance(99, 99.0);
    row.restoreCharge(1'000);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
    row.addDisturbance(99, 101.0);
    row.restoreCharge(2'000);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 1);
}

TEST(RowState, RestoreResetsHammerCharge)
{
    RowPhysics phys;
    HammerCell cell;
    cell.col = 20;
    cell.threshold = 100.0;
    cell.chargedValue = true;
    phys.hammerCells.push_back(cell);
    RowState row = makeRow(std::move(phys));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.addDisturbance(99, 60.0);
    row.restoreCharge(1'000); // resets accumulated charge
    row.addDisturbance(99, 60.0);
    row.restoreCharge(2'000);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
    EXPECT_EQ(row.hammerCharge(), 0.0);
}

TEST(RowState, LastDisturberTracked)
{
    RowState row = makeRow(RowPhysics{});
    EXPECT_EQ(row.lastDisturber(), kInvalidRow);
    row.addDisturbance(42, 1.0);
    EXPECT_EQ(row.lastDisturber(), 42);
    row.restoreCharge(10);
    EXPECT_EQ(row.lastDisturber(), kInvalidRow);
}

TEST(RowState, WriteWordOverridesAndRecharges)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // col 10 flipped
    row.writeWord(0, 0xffffffffffffffffULL); // rewrite word 0
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
}

TEST(RowState, WriteWordLeavesOtherFlips)
{
    RowState row = makeRow(oneWeakCell(100, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // col 100 (word 1) flipped
    row.writeWord(0, 0x1234ULL);    // unrelated word
    const RowReadout readout = row.read();
    EXPECT_EQ(readout.word(0), 0x1234ULL);
    // Diffs vs all-ones: 59 zero bits of 0x1234 plus the retention
    // flip at col 100.
    EXPECT_EQ(readout.flipsVs(DataPattern::allOnes(), 5).size(), 60u);
}

TEST(RowState, VrtCellRetentionVaries)
{
    RowPhysics phys = oneWeakCell(10, msToNs(100));
    phys.weakCells[0].vrt = true;
    RowState row = makeRow(std::move(phys));

    // Over many trials the VRT cell must sometimes survive past its
    // low-state retention (high state = 3x retention).
    int survived = 0;
    int failed = 0;
    Time now = 0;
    for (int i = 0; i < 200; ++i) {
        row.writePattern(DataPattern::allOnes(), 5, now);
        now += msToNs(150); // beyond low-state, below high-state
        row.restoreCharge(now);
        if (row.read().countFlipsVs(DataPattern::allOnes(), 5) == 0)
            ++survived;
        else
            ++failed;
        now += msToNs(50);
    }
    EXPECT_GT(survived, 5);
    EXPECT_GT(failed, 5);
}

TEST(RowState, FastPathStillAdvancesLastRestore)
{
    // A chain of skipped scans (each restore well inside retention)
    // must keep advancing lastRestore: if a skip left it stale, the
    // final window would look longer than retention and flip a cell
    // that was in fact refreshed in time.
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    for (int i = 1; i <= 20; ++i)
        row.restoreCharge(msToNs(90) * i); // always 90 ms apart
    EXPECT_EQ(row.lastRefresh(), msToNs(90) * 20);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
    // One window past retention still commits.
    row.restoreCharge(msToNs(90) * 20 + msToNs(150));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 1);
}

TEST(RowState, ScaleRetentionInvalidatesFastPathCache)
{
    // Halving the retention scale must take effect on the very next
    // restore, even though the previous restores were fast-path skips
    // that never touched the cell list.
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(90)); // within nominal retention
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
    row.scaleRetention(0.5); // effective retention now 50 ms
    row.restoreCharge(msToNs(90) + msToNs(90));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 1);
}

TEST(RowState, ScaleRetentionUpExtendsTheSkipWindow)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.setRetentionScale(10.0); // effective retention 1 s
    row.restoreCharge(msToNs(800));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 0);
    row.restoreCharge(msToNs(800) + msToNs(1'100));
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allOnes(), 5), 1);
}

TEST(RowReadout, IsStableSnapshotAcrossRowMutation)
{
    // The readout shares state with the row copy-on-write: mutating the
    // row after the read must not change the snapshot.
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // col 10 flipped
    row.writeWord(2, 0xabcdULL);
    const RowReadout snapshot = row.read();
    // col-10 retention flip + the 54 zero bits of the 0xabcd override.
    ASSERT_EQ(snapshot.countFlipsVs(DataPattern::allOnes(), 5), 1 + 54);

    row.writeWord(0, ~0ULL);        // clears the col-10 flip
    row.writeWord(2, ~0ULL);        // rewrites the override
    row.restoreCharge(msToNs(400)); // commits nothing new
    row.writePattern(DataPattern::allZeros(), 5, msToNs(401));

    // Snapshot unchanged; the row reflects the new state.
    EXPECT_EQ(snapshot.countFlipsVs(DataPattern::allOnes(), 5), 1 + 54);
    EXPECT_FALSE(snapshot.bit(10));
    EXPECT_EQ(snapshot.word(2), 0xabcdULL);
    EXPECT_EQ(row.read().countFlipsVs(DataPattern::allZeros(), 5), 0);
}

TEST(RowReadout, InjectFlipDoesNotTouchTheRow)
{
    RowState row = makeRow(oneWeakCell(10, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 5, 0);
    row.restoreCharge(msToNs(150)); // col 10 flipped
    RowReadout readout = row.read();

    readout.injectFlip(20);
    EXPECT_EQ(readout.countFlipsVs(DataPattern::allOnes(), 5), 2);
    readout.injectFlip(10); // double fault on the committed flip
    EXPECT_EQ(readout.countFlipsVs(DataPattern::allOnes(), 5), 1);

    // The stored row never saw either injection.
    EXPECT_EQ(row.committedFlipCount(), 1u);
    const auto real = row.read().flipsVs(DataPattern::allOnes(), 5);
    ASSERT_EQ(real.size(), 1u);
    EXPECT_EQ(real[0], 10);
}

TEST(RowReadout, WordAppliesFlips)
{
    RowState row = makeRow(oneWeakCell(3, msToNs(100)));
    row.writePattern(DataPattern::allOnes(), 0, 0);
    row.restoreCharge(msToNs(200));
    const RowReadout readout = row.read();
    EXPECT_EQ(readout.word(0), ~0ULL ^ (1ULL << 3));
    EXPECT_EQ(readout.word(1), ~0ULL);
}

TEST(RowReadout, FlipsVsDifferentPatternDiffsWholeRow)
{
    RowState row = makeRow(RowPhysics{});
    row.writePattern(DataPattern::allOnes(), 0, 0);
    const RowReadout readout = row.read();
    const auto diff = readout.flipsVs(DataPattern::allZeros(), 0);
    EXPECT_EQ(diff.size(), static_cast<std::size_t>(kBits));
}

// ---------------------------------------------------------------------
// diffReadout / diffReadoutCount: the word-at-a-time XOR+ctz diff
// behind every readback scan (DESIGN.md §17).
// ---------------------------------------------------------------------

/** Readout of @p bits bits holding @p pattern at @p row with the given
 *  committed flips — built directly, no RowState needed. */
RowReadout
makeReadout(const DataPattern &pattern, Row row, std::vector<Col> flips,
            int bits)
{
    return RowReadout(
        pattern, row, nullptr,
        flips.empty()
            ? nullptr
            : std::make_shared<const std::vector<Col>>(std::move(flips)),
        bits);
}

/** Reference implementation: probe every bit position one at a time. */
std::vector<Col>
naiveDiff(const RowReadout &readout, const DataPattern &expected,
          Row expected_row)
{
    std::vector<Col> result;
    for (Col col = 0; col < readout.rowBits(); ++col)
        if (readout.bit(col) != expected.bit(expected_row, col))
            result.push_back(col);
    return result;
}

TEST(DiffReadout, AllZeroDiffIsEmpty)
{
    const RowReadout readout =
        makeReadout(DataPattern::random(9), 42, {}, 512);
    EXPECT_TRUE(diffReadout(readout, DataPattern::random(9), 42).empty());
    EXPECT_EQ(diffReadoutCount(readout, DataPattern::random(9), 42), 0);
}

TEST(DiffReadout, SparseFlipsInAlignedRow)
{
    // Flips in the first, a middle and the last word of a word-aligned
    // row, including bit 0 and bit 63 word boundaries.
    const std::vector<Col> flips = {0, 63, 200, 511};
    const RowReadout readout =
        makeReadout(DataPattern::allOnes(), 7, flips, 512);
    EXPECT_EQ(diffReadout(readout, DataPattern::allOnes(), 7), flips);
    EXPECT_EQ(diffReadoutCount(readout, DataPattern::allOnes(), 7), 4);
}

TEST(DiffReadout, UnalignedTailIsMaskedNotTruncated)
{
    // 130-bit row: two full words plus a 2-bit tail. A flip inside the
    // tail must be reported; the 62 garbage bit positions past the end
    // of the row must not be.
    const int bits = 130;
    const RowReadout readout =
        makeReadout(DataPattern::allOnes(), 0, {129}, bits);
    // vs the stored pattern: only the committed tail flip.
    const std::vector<Col> tail_only = {129};
    EXPECT_EQ(diffReadout(readout, DataPattern::allOnes(), 0), tail_only);
    // vs the inverse pattern: every *real* bit differs except col 129
    // (which the flip restored to zero) — nothing beyond bit 129.
    const auto diff = diffReadout(readout, DataPattern::allZeros(), 0);
    EXPECT_EQ(diff.size(), static_cast<std::size_t>(bits - 1));
    EXPECT_EQ(diff.back(), 128);
    EXPECT_EQ(diffReadoutCount(readout, DataPattern::allZeros(), 0),
              bits - 1);
}

TEST(DiffReadout, DenseDiffMatchesNaiveBitProbe)
{
    // Random data vs a different random expectation: roughly half of
    // all bits differ. The word-at-a-time diff must agree with the
    // per-bit reference probe exactly, columns in ascending order.
    for (const int bits : {64, 192, 321}) {
        SCOPED_TRACE(bits);
        const RowReadout readout =
            makeReadout(DataPattern::random(3), 11, {5, 70}, bits);
        const auto fast = diffReadout(readout, DataPattern::random(4), 11);
        EXPECT_EQ(fast, naiveDiff(readout, DataPattern::random(4), 11));
        EXPECT_EQ(diffReadoutCount(readout, DataPattern::random(4), 11),
                  static_cast<int>(fast.size()));
        EXPECT_TRUE(std::is_sorted(fast.begin(), fast.end()));
    }
}

// --- Exact fold of disturbance accumulation (DESIGN.md §17) -------------

/** A weight from one of the fold's stress families. */
double
foldWeight(Rng &rng, int family)
{
    switch (family) {
      case 0: // dyadic: w/ulp often lands exactly on a .5 tie
        return static_cast<double>(rng.uniformInt(0, 16)) *
            std::ldexp(1.0, static_cast<int>(rng.uniformInt(-70, -40)));
      case 1: // tiny, down to the smallest subnormal
        return rng.chance(0.3)
            ? std::numeric_limits<double>::denorm_min() *
                static_cast<double>(rng.uniformInt(0, 5))
            : rng.uniformReal(0.0, 1e-300);
      case 2: // huge: the charge overflows to infinity mid-run
        return rng.uniformReal(1e300, 1e305);
      default: // realistic disturbance weights, sometimes zero
        return rng.chance(0.1)
            ? 0.0
            : rng.uniformReal(0.5, 3.0) *
                std::ldexp(1.0, static_cast<int>(rng.uniformInt(-10, 10)));
    }
}

/** A starting charge: zero, tiny, or just below a binade top. */
double
foldStart(Rng &rng)
{
    const double pick = rng.uniform();
    if (pick < 0.3)
        return 0.0;
    if (pick < 0.4)
        return rng.uniformReal(0.0, 1e-305);
    const double top =
        std::ldexp(1.0, static_cast<int>(rng.uniformInt(-20, 20)));
    return pick < 0.7
        ? top - static_cast<double>(rng.uniformInt(1, 64)) *
            std::ldexp(top, -53)
        : rng.uniformReal(0.0, top);
}

std::string
rowChargeText(const RowState &row)
{
    std::ostringstream out;
    out << std::bit_cast<std::uint64_t>(row.hammerCharge()) << " ("
        << row.hammerCharge() << ") last " << row.lastDisturber();
    return out.str();
}

/**
 * Random cases comparing addDisturbanceRoundRobin with the plain
 * addDisturbance loop it stands for, about a third of them with one
 * aggressor (a single-row hammer burst). Returns the number of cases
 * whose charge bits or last disturber differ; @p first_diff describes
 * the first.
 */
int
foldMismatches(std::uint64_t seed, int cases, std::string *first_diff)
{
    Rng rng(seed);
    int mismatches = 0;
    for (int c = 0; c < cases; ++c) {
        const int family = static_cast<int>(rng.uniformInt(0, 3));
        const int m = static_cast<int>(rng.uniformInt(1, 8));
        const int rounds = static_cast<int>(rng.uniformInt(0, 3'000));
        Row aggrs[8];
        double w_first[8];
        double w_repeat[8];
        for (int i = 0; i < m; ++i) {
            // Mostly distinct aggressors (as a bank lists them), with
            // an occasional repeat to exercise the repeat weight.
            aggrs[i] = rng.chance(0.1) && i > 0
                ? aggrs[rng.uniformInt(0, i - 1)]
                : static_cast<Row>(100 + i);
            w_first[i] = foldWeight(rng, family);
            w_repeat[i] = foldWeight(rng, family);
        }
        const double start = foldStart(rng);
        const int n = rng.chance(0.3) ? 1 : m;
        // The previous disturber is either the last aggressor of a pass
        // (so the first add may take its repeat weight) or a stranger.
        const Row pre = rng.chance(0.5) ? aggrs[n - 1] : 7;

        RowState folded = makeRow(RowPhysics{});
        RowState looped = makeRow(RowPhysics{});
        folded.addDisturbance(pre, start);
        looped.addDisturbance(pre, start);
        folded.addDisturbanceRoundRobin(aggrs, w_first, w_repeat, n,
                                        rounds);
        for (int k = 0; k < rounds; ++k) {
            for (int i = 0; i < n; ++i) {
                looped.addDisturbance(aggrs[i],
                                      looped.lastDisturber() == aggrs[i]
                                          ? w_repeat[i]
                                          : w_first[i]);
            }
        }
        const std::string got = rowChargeText(folded);
        const std::string want = rowChargeText(looped);
        if (got == want)
            continue;
        if (mismatches++ == 0 && first_diff != nullptr) {
            *first_diff = "case " + std::to_string(c) + ": folded " +
                got + ", looped " + want;
        }
    }
    return mismatches;
}

#ifndef UTRR_MUTATION_ACCUM_TIE
// These assume the clean tree; the mutation build runs only the
// MutationSanity case below.

TEST(RowState, AccumulationFoldIsBitIdenticalToTheAddLoop)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        std::string diff;
        EXPECT_EQ(foldMismatches(seed, 5'000, &diff), 0)
            << "seed " << seed << ", " << diff;
    }
}

TEST(RowState, AccumulationFoldResolvesTiesLive)
{
    // From 1.0 (ulp 2^-52) each add of 3 * 2^-53 is a tie; ties go to
    // the even neighbour, so the charge grows by 2 ulps per add, not
    // the 1 ulp a round-down would give.
    const double w = 3.0 * std::ldexp(1.0, -53);
    const Row aggr = 2;
    RowState folded = makeRow(RowPhysics{});
    RowState looped = makeRow(RowPhysics{});
    folded.addDisturbance(1, 1.0);
    looped.addDisturbance(1, 1.0);
    folded.addDisturbanceRoundRobin(&aggr, &w, &w, 1, 1'000);
    for (int i = 0; i < 1'000; ++i)
        looped.addDisturbance(2, w);
    EXPECT_EQ(rowChargeText(folded), rowChargeText(looped));
    EXPECT_EQ(folded.hammerCharge(), 1.0 + 2'000 * std::ldexp(1.0, -52));
}

TEST(RowState, AccumulationFoldKeepsFirstPassLastDisturber)
{
    // The first pass sees the pre-burst last disturber: aggrs[0] takes
    // its repeat weight only if it disturbed the row last.
    const Row aggrs[2] = {10, 11};
    const double w_first[2] = {1.0, 2.0};
    const double w_repeat[2] = {100.0, 200.0};
    RowState row = makeRow(RowPhysics{});
    row.addDisturbance(10, 0.0);
    row.addDisturbanceRoundRobin(aggrs, w_first, w_repeat, 2, 3);
    EXPECT_EQ(row.hammerCharge(), 100.0 + 2.0 + 2 * (1.0 + 2.0));
    EXPECT_EQ(row.lastDisturber(), 11);
}

#endif // !UTRR_MUTATION_ACCUM_TIE

/**
 * Mutation sanity for the accumulation fold: UTRR_MUTATION makes a tie
 * (w/ulp with fraction exactly 0.5) round down inside the fold instead
 * of running live. The random property sweep must notice; without the
 * mutation the identical sweep must be clean.
 */
TEST(MutationSanity, AccumulationFoldPropertyCatchesTieRounding)
{
    std::string diff;
    const int mismatches = foldMismatches(1, 5'000, &diff);
#ifdef UTRR_MUTATION_ACCUM_TIE
    EXPECT_GT(mismatches, 0)
        << "fold property sweep missed the planted tie bug";
#else
    EXPECT_EQ(mismatches, 0) << diff;
#endif
}

} // namespace
} // namespace utrr
