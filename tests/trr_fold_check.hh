/**
 * @file
 * Randomized fold-vs-replay check shared by the vendor TRR tests.
 *
 * onActivateRoundRobin() may fold its ACT sequence (DESIGN.md §17);
 * the contract is that the result equals replaying onActivate() once
 * per ACT in round-robin order, for one aggressor (a single-row hammer
 * burst) as for many. The check
 * drives a mechanism through random folded calls and REFs while a
 * clone() of it, attached to a ground-truth store of its own, receives
 * the same ACTs one onActivate() at a time, and compares the REF
 * outputs, a vendor-specific white-box view and the ground-truth
 * counters and gauges after every step. The vendors' white-box views
 * live here too, for checks that compare whole devices.
 */

#ifndef UTRR_TESTS_TRR_FOLD_CHECK_HH
#define UTRR_TESTS_TRR_FOLD_CHECK_HH

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "obs/metrics.hh"
#include "trr/trr.hh"
#include "trr/vendor_a.hh"
#include "trr/vendor_b.hh"
#include "trr/vendor_c.hh"

namespace utrr
{

/** Shape of the random ACT sequences one check generates. */
struct FoldCheckShape
{
    int banks = 4;
    /** Rows are drawn from [0, rowPool): small pools repeat rows. */
    int rowPool = 12;
    /** Aggressors per round-robin call, drawn from [1, maxN]. */
    int maxN = 8;
    /** Rounds (or burst count) per call, drawn from [0, maxRounds]. */
    int maxRounds = 600;
    int steps = 300;
};

/** Canonical text of a white-box view, compared folded vs replayed. */
using FoldView = std::function<std::string(const TrrMechanism &)>;

inline std::string
refreshText(const std::vector<TrrRefreshAction> &actions)
{
    std::ostringstream out;
    for (const TrrRefreshAction &a : actions)
        out << a.bank << ":" << a.aggressorPhysRow << " ";
    return out.str();
}

/** Every bank's table, in slot order (eviction picks by slot). */
inline FoldView
tableView(int banks)
{
    return [banks](const TrrMechanism &trr) {
        const auto &a = dynamic_cast<const VendorATrr &>(trr);
        std::ostringstream out;
        for (Bank b = 0; b < banks; ++b) {
            for (const auto &[row, count] : a.tableOf(b))
                out << b << ":" << row << "=" << count << " ";
            out << "| ";
        }
        return out.str();
    };
}

/** The chip-wide sample and every per-bank sample. */
inline FoldView
sampleView(int banks)
{
    return [banks](const TrrMechanism &trr) {
        const auto &b = dynamic_cast<const VendorBTrr &>(trr);
        std::ostringstream out;
        if (const auto s = b.currentSample())
            out << s->bank << ":" << s->aggressorPhysRow;
        out << " |";
        for (Bank bank = 0; bank < banks; ++bank)
            out << " " << b.currentSampleOf(bank).value_or(-1);
        return out.str();
    };
}

/** Every bank's candidate and in-window ACT count. */
inline FoldView
windowView(int banks)
{
    return [banks](const TrrMechanism &trr) {
        const auto &c = dynamic_cast<const VendorCTrr &>(trr);
        std::ostringstream out;
        for (Bank b = 0; b < banks; ++b) {
            out << b << ":" << c.candidateOf(b).value_or(-1) << "@"
                << c.windowActsOf(b) << " ";
        }
        return out.str();
    };
}

/** The view of whichever vendor @p trr is ("" for NoTrr). */
inline std::string
trrStateView(const TrrMechanism &trr, int banks)
{
    if (dynamic_cast<const VendorATrr *>(&trr) != nullptr)
        return tableView(banks)(trr);
    if (dynamic_cast<const VendorBTrr *>(&trr) != nullptr)
        return sampleView(banks)(trr);
    if (dynamic_cast<const VendorCTrr *>(&trr) != nullptr)
        return windowView(banks)(trr);
    return "";
}

/**
 * Drive @p folded (fresh from its factory) and a per-ACT replay clone
 * of it through @p shape.steps random steps drawn from @p seed.
 */
inline void
checkFoldMatchesReplay(std::unique_ptr<TrrMechanism> folded,
                       const FoldView &view, std::uint64_t seed,
                       const FoldCheckShape &shape = {})
{
    GroundTruthStore folded_truth;
    GroundTruthStore replay_truth;
    folded->attachGroundTruth(&folded_truth);
    std::unique_ptr<TrrMechanism> replay = folded->clone();
    replay->attachGroundTruth(&replay_truth);

    Rng rng(seed);
    std::vector<Bank> banks;
    std::vector<Row> rows;
    for (int step = 0; step < shape.steps; ++step) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                          << step);
        const double kind = rng.uniform();
        // Mostly short calls, sometimes a long one that runs deep into
        // the folded regime.
        const int rounds = static_cast<int>(rng.uniformInt(
            0, rng.chance(0.2) ? 20 * shape.maxRounds : shape.maxRounds));
        if (kind < 0.6) {
            const int n = static_cast<int>(rng.uniformInt(1, shape.maxN));
            banks.resize(static_cast<std::size_t>(n));
            rows.resize(static_cast<std::size_t>(n));
            for (int i = 0; i < n; ++i) {
                banks[static_cast<std::size_t>(i)] = static_cast<Bank>(
                    rng.uniformInt(0, shape.banks - 1));
                rows[static_cast<std::size_t>(i)] = static_cast<Row>(
                    rng.uniformInt(0, shape.rowPool - 1));
            }
            folded->onActivateRoundRobin(banks.data(), rows.data(), n,
                                         rounds);
            for (int k = 0; k < rounds; ++k) {
                for (int i = 0; i < n; ++i) {
                    replay->onActivate(banks[static_cast<std::size_t>(i)],
                                       rows[static_cast<std::size_t>(i)]);
                }
            }
        } else if (kind < 0.8) {
            const auto bank =
                static_cast<Bank>(rng.uniformInt(0, shape.banks - 1));
            const auto row =
                static_cast<Row>(rng.uniformInt(0, shape.rowPool - 1));
            folded->onActivateRoundRobin(&bank, &row, 1, rounds);
            for (int k = 0; k < rounds; ++k)
                replay->onActivate(bank, row);
        } else {
            const int refs = static_cast<int>(rng.uniformInt(1, 12));
            for (int r = 0; r < refs; ++r) {
                ASSERT_EQ(refreshText(folded->onRefresh()),
                          refreshText(replay->onRefresh()));
            }
        }
        ASSERT_EQ(view(*folded), view(*replay));
        ASSERT_EQ(GroundTruthProbe(folded_truth).snapshot().dump(),
                  GroundTruthProbe(replay_truth).snapshot().dump());
    }
}

} // namespace utrr

#endif // UTRR_TESTS_TRR_FOLD_CHECK_HH
