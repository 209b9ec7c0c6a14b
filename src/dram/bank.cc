#include "dram/bank.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "obs/profiler.hh"

namespace utrr
{

DramBank::DramBank(Bank id, Row phys_rows,
                   const PhysicsGenerator *generator)
    : id(id), physRowCount(phys_rows), gen(generator),
      slotOf(static_cast<std::size_t>(phys_rows), -1)
{
    UTRR_ASSERT(gen != nullptr, "bank needs a physics generator");
}

RowState &
DramBank::materialize(Row phys_row, Time now)
{
    UTRR_ASSERT(phys_row >= 0 && phys_row < physRowCount,
                logFmt("physical row ", phys_row, " out of range in bank ",
                       id));
    // Materialize with retention physics only; hammer cells attach
    // lazily once disturbance charge approaches the row's base
    // threshold (they are ~30x larger to generate).
    RowPhysics phys = gen->generateRetention(id, phys_row);
    const auto &ret = gen->retentionConfig();
    Rng vrt_rng = Rng(hashMix(
        0x9e3779b9ULL ^ (static_cast<std::uint64_t>(id) << 44) ^
        static_cast<std::uint64_t>(phys_row)));
    slotOf[static_cast<std::size_t>(phys_row)] =
        static_cast<std::int32_t>(states.size());
    states.emplace_back(std::move(phys), now, vrt_rng, gen->rowBits(),
                        msToNs(ret.vrtDwellMs), ret.vrtHighFactor);
    states.back().attachPerf(&perfCounters);
    if (baseRetentionScale != 1.0)
        states.back().setRetentionScale(baseRetentionScale);
    return states.back();
}

void
DramBank::attachHammerCells(Row phys_row, RowState &state)
{
    UTRR_PROF_SCOPE("bank.attach_hammer_cells");
    ++perfCounters.hammerCellAttaches;
    RowPhysics full = gen->generate(id, phys_row);
    state.setHammerCells(std::move(full.hammerCells));
}

void
DramBank::scaleRowRetention(Row phys_row, double factor, Time now)
{
    rowAt(phys_row, now).scaleRetention(factor);
}

void
DramBank::scaleAllRetention(double factor)
{
    baseRetentionScale *= factor;
    for (RowState &state : states)
        state.scaleRetention(factor);
}

const RowState *
DramBank::peekRow(Row phys_row) const
{
    if (phys_row < 0 || phys_row >= physRowCount)
        return nullptr;
    const std::int32_t slot = slotOf[static_cast<std::size_t>(phys_row)];
    return slot < 0 ? nullptr : &states[static_cast<std::size_t>(slot)];
}

void
DramBank::disturbOne(Row aggressor, std::uint64_t aggr_word0, Row victim,
                     double weight, Time now)
{
    if (victim < 0 || victim >= physRowCount)
        return;
    RowState &v = rowAt(victim, now);

    const auto &ham = gen->hammerConfig();
    double w = weight;
    // Alternating aggressors pump more charge than repeated activation
    // of the same row (makes interleaved > cascaded, §5.2).
    if (v.lastDisturber() == aggressor)
        w *= ham.repeatWeight;
    // Aggressor/victim data coupling: same stored data disturbs less.
    if (aggr_word0 == v.storedWord0())
        w *= ham.sameDataWeight;
    v.addDisturbance(aggressor, w);
}

void
DramBank::disturbNeighbours(Row aggressor, std::uint64_t word0, Time now)
{
    const auto &ham = gen->hammerConfig();
    if (ham.paired) {
        // Paired-row organization (C0-8): a row only disturbs its pair.
        disturbOne(aggressor, word0, aggressor ^ 1, 1.0, now);
        return;
    }
    disturbOne(aggressor, word0, aggressor - 1, 1.0, now);
    disturbOne(aggressor, word0, aggressor + 1, 1.0, now);
    if (ham.distance2Weight > 0.0) {
        disturbOne(aggressor, word0, aggressor - 2, ham.distance2Weight,
                   now);
        disturbOne(aggressor, word0, aggressor + 2, ham.distance2Weight,
                   now);
    }
}

void
DramBank::activate(Row phys_row, Time now)
{
    UTRR_ASSERT(open == kInvalidRow,
                logFmt("ACT to bank ", id, " with row ", open,
                       " still open"));
    open = phys_row;
    ++acts;
    RowState &state = rowAt(phys_row, now);
    if (state.needsHammerCells())
        attachHammerCells(phys_row, state);
    state.restoreCharge(now);
    // The aggressor's coupling word goes by value: victim
    // materialization must not rely on the aggressor reference.
    disturbNeighbours(phys_row, state.storedWord0(), now);
}

void
DramBank::writeCycle(Row phys_row, const DataPattern &pattern,
                     Row pattern_row, Time act_now, Time wr_now)
{
    UTRR_ASSERT(open == kInvalidRow,
                logFmt("ACT to bank ", id, " with row ", open,
                       " still open"));
    ++acts;
    RowState &state = rowAt(phys_row, act_now);
    if (state.needsHammerCells())
        attachHammerCells(phys_row, state);
    state.restoreBeforeOverwrite(act_now);
    // Victims see the row's data as of the ACT, before the WR.
    disturbNeighbours(phys_row, state.storedWord0(), act_now);
    state.writePattern(pattern, pattern_row, wr_now);
}

void
DramBank::precharge(Time /*now*/)
{
    open = kInvalidRow;
}

DramBank::ActPlan
DramBank::buildActPlan(Row phys_row, Time now)
{
    ActPlan plan;
    plan.phys = phys_row;
    plan.aggr = &rowAt(phys_row, now);
    const auto &ham = gen->hammerConfig();
    const std::uint64_t word0 = plan.aggr->storedWord0();
    const auto add = [&](Row victim, double base) {
        if (victim < 0 || victim >= physRowCount)
            return;
        RowState &v = rowAt(victim, now);
        // Mirror disturbOne()'s multiply order exactly: FP products are
        // order-sensitive and both weights must match what the
        // interpreter would compute on each branch.
        double w_first = base;
        double w_repeat = base * ham.repeatWeight;
        if (word0 == v.storedWord0()) {
            w_first *= ham.sameDataWeight;
            w_repeat *= ham.sameDataWeight;
        }
        plan.victims[plan.victimCount++] = {&v, w_first, w_repeat};
    };
    if (ham.paired) {
        add(phys_row ^ 1, 1.0);
    } else {
        add(phys_row - 1, 1.0);
        add(phys_row + 1, 1.0);
        if (ham.distance2Weight > 0.0) {
            add(phys_row - 2, ham.distance2Weight);
            add(phys_row + 2, ham.distance2Weight);
        }
    }
    return plan;
}

void
DramBank::activatePlanned(const ActPlan &plan, Time now)
{
    UTRR_ASSERT(open == kInvalidRow,
                logFmt("ACT to bank ", id, " with row ", open,
                       " still open"));
    ++acts;
    RowState &aggr = *plan.aggr;
    if (aggr.needsHammerCells())
        attachHammerCells(plan.phys, aggr);
    aggr.restoreCharge(now);
    for (int i = 0; i < plan.victimCount; ++i) {
        const ActPlan::PlannedVictim &v = plan.victims[i];
        const double w = v.state->lastDisturber() == plan.phys
            ? v.wRepeat : v.wFirst;
        v.state->addDisturbance(plan.phys, w);
    }
}

bool
DramBank::interleavedRoundsFoldable(const ActPlan *const *plans, int n,
                                    Time round_gap) const
{
    for (int i = 0; i < n; ++i) {
        // A duplicate aggressor would restore twice per pass, breaking
        // the one-fast-forward-per-aggressor bookkeeping below.
        for (int j = 0; j < i; ++j) {
            if (plans[j]->phys == plans[i]->phys)
                return false;
        }
    }
    for (int i = 0; i < n; ++i) {
        // Worst-case charge the other listed aggressors pump into this
        // one between two of its restores: each lands at most once per
        // pass, with whichever of its two planned weights is larger.
        double bound = 0.0;
        for (int j = 0; j < n; ++j) {
            if (j == i)
                continue;
            for (int v = 0; v < plans[j]->victimCount; ++v) {
                const ActPlan::PlannedVictim &pv = plans[j]->victims[v];
                if (pv.state == plans[i]->aggr)
                    bound += std::max(pv.wFirst, pv.wRepeat);
            }
        }
        if (!plans[i]->aggr->restoresFastForwardable(round_gap, bound))
            return false;
    }
    return true;
}

void
DramBank::applyInterleavedRounds(const ActPlan *const *plans,
                                 const Time *last_times, int n, int rounds)
{
    UTRR_ASSERT(open == kInvalidRow,
                logFmt("ACT to bank ", id, " with row ", open,
                       " still open"));
    // Non-aggressor victims: at each row's first occurrence, gather its
    // contributors in round order, then replay `rounds` passes with the
    // live repeat-weight branch (addDisturbanceRoundRobin). Every
    // aggressor hits a given victim at most once per pass, so a victim
    // has at most n contributors; the scratch lives on the stack.
    const auto isListedAggr = [&](const RowState *s) {
        for (int k = 0; k < n; ++k) {
            if (plans[k]->aggr == s)
                return true;
        }
        return false;
    };
    const auto victimOf = [&](int k, const RowState *s)
        -> const ActPlan::PlannedVictim * {
        for (int v = 0; v < plans[k]->victimCount; ++v) {
            if (plans[k]->victims[v].state == s)
                return &plans[k]->victims[v];
        }
        return nullptr;
    };
    Row aggrs[kMaxInterleavedFold];
    double wFirst[kMaxInterleavedFold];
    double wRepeat[kMaxInterleavedFold];
    for (int i = 0; i < n; ++i) {
        for (int v = 0; v < plans[i]->victimCount; ++v) {
            RowState *state = plans[i]->victims[v].state;
            bool seen = isListedAggr(state);
            for (int k = 0; k < i && !seen; ++k)
                seen = victimOf(k, state) != nullptr;
            if (seen)
                continue;
            int m = 0;
            for (int k = i; k < n; ++k) {
                if (const ActPlan::PlannedVictim *pv = victimOf(k, state)) {
                    aggrs[m] = plans[k]->phys;
                    wFirst[m] = pv->wFirst;
                    wRepeat[m] = pv->wRepeat;
                    ++m;
                }
            }
            state->addDisturbanceRoundRobin(aggrs, wFirst, wRepeat, m,
                                            rounds);
        }
    }

    // Aggressors: every pass restores each one on the proven fast path,
    // wiping whatever earlier-in-round aggressors added since its last
    // restore — so only the final pass's disturbances from
    // later-in-round aggressors survive, applied here against the
    // post-restore (invalid) lastDisturber exactly as the per-cycle
    // loop would leave them.
    for (int i = 0; i < n; ++i) {
        plans[i]->aggr->fastForwardRestores(
            last_times[i], static_cast<std::uint64_t>(rounds));
    }
    for (int i = 0; i < n; ++i) {
        for (int v = 0; v < plans[i]->victimCount; ++v) {
            const ActPlan::PlannedVictim &pv = plans[i]->victims[v];
            for (int k = 0; k < i; ++k) {
                if (plans[k]->aggr != pv.state)
                    continue;
                const double w =
                    pv.state->lastDisturber() == plans[i]->phys
                    ? pv.wRepeat : pv.wFirst;
                pv.state->addDisturbance(plans[i]->phys, w);
            }
        }
    }
    acts += static_cast<std::uint64_t>(n) *
        static_cast<std::uint64_t>(rounds);
}

void
DramBank::writeOpenRow(const DataPattern &pattern, Row pattern_row,
                       Time now)
{
    UTRR_ASSERT(open != kInvalidRow, "WR with no open row");
    rowAt(open, now).writePattern(pattern, pattern_row, now);
}

void
DramBank::writeOpenRowWord(int word_idx, std::uint64_t value)
{
    UTRR_ASSERT(open != kInvalidRow, "WR with no open row");
    const std::int32_t slot = slotOf[static_cast<std::size_t>(open)];
    UTRR_ASSERT(slot >= 0, "open row must be materialized");
    states[static_cast<std::size_t>(slot)].writeWord(word_idx, value);
}

RowReadout
DramBank::readOpenRow() const
{
    UTRR_ASSERT(open != kInvalidRow, "RD with no open row");
    const std::int32_t slot = slotOf[static_cast<std::size_t>(open)];
    UTRR_ASSERT(slot >= 0, "open row must be materialized");
    return states[static_cast<std::size_t>(slot)].read();
}

void
DramBank::refreshRow(Row phys_row, Time now)
{
    ++rowRefreshes;
    if (phys_row < 0 || phys_row >= physRowCount)
        return;
    const std::int32_t slot = slotOf[static_cast<std::size_t>(phys_row)];
    if (slot < 0)
        return; // untouched rows count as fresh at materialization
    RowState &state = states[static_cast<std::size_t>(slot)];
    if (state.needsHammerCells())
        attachHammerCells(phys_row, state);
    state.restoreCharge(now);
}

void
DramBank::refreshRange(Row phys_lo, Row phys_hi, Time now)
{
    const Row lo = std::max<Row>(phys_lo, 0);
    const Row hi = std::min(phys_hi, physRowCount);
    for (Row r = lo; r < hi; ++r) {
        const std::int32_t slot = slotOf[static_cast<std::size_t>(r)];
        if (slot < 0)
            continue;
        ++rowRefreshes;
        RowState &state = states[static_cast<std::size_t>(slot)];
        if (state.needsHammerCells())
            attachHammerCells(r, state);
        state.restoreCharge(now);
    }
}

DramBank::Snapshot
DramBank::snapshotState() const
{
    Snapshot snap;
    snap.slotOf = slotOf;
    // Copying a RowState shares its overrides/flips containers
    // copy-on-write; the snapshot therefore pins this instant's row
    // contents without duplicating them, and the live bank clones lazily
    // on its next mutation of each row.
    snap.states = states;
    snap.open = open;
    snap.acts = acts;
    snap.rowRefreshes = rowRefreshes;
    snap.baseRetentionScale = baseRetentionScale;
    snap.perfCounters = perfCounters;
    return snap;
}

void
DramBank::restoreState(const Snapshot &snap)
{
    slotOf = snap.slotOf;
    states = snap.states;
    open = snap.open;
    acts = snap.acts;
    rowRefreshes = snap.rowRefreshes;
    baseRetentionScale = snap.baseRetentionScale;
    perfCounters = snap.perfCounters;
    // The copied rows still point their perf tallies at whatever bank
    // the snapshot was taken from; re-home them here.
    for (RowState &state : states)
        state.attachPerf(&perfCounters);
}

} // namespace utrr
