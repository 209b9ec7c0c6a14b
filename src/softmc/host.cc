#include "softmc/host.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "obs/profiler.hh"
#include "softmc/compiler.hh"

namespace utrr
{

namespace
{

/** Process-wide default tier. Atomic: campaign workers construct hosts
 *  concurrently; writes happen in CLI setup, before workers spawn. */
std::atomic<ExecMode> g_defaultExecMode{ExecMode::kCompiled};

} // namespace

void
SoftMcHost::setDefaultExecMode(ExecMode mode)
{
    g_defaultExecMode.store(mode, std::memory_order_relaxed);
}

ExecMode
SoftMcHost::defaultExecMode()
{
    return g_defaultExecMode.load(std::memory_order_relaxed);
}

WatchdogTimeout::WatchdogTimeout(Time budget_ns, Time deadline_ns,
                                 Time now_ns, std::uint64_t acts_issued,
                                 std::uint64_t refs_issued)
    : std::runtime_error(logFmt(
          "watchdog budget of ", budget_ns, "ns exceeded: now=", now_ns,
          "ns deadline=", deadline_ns, "ns after ", acts_issued,
          " ACTs / ", refs_issued, " REFs")),
      budgetNs(budget_ns), deadlineNs(deadline_ns), nowNs(now_ns),
      actsIssued(acts_issued), refsIssued(refs_issued)
{
}

StopRequested::StopRequested(Time now_ns)
    : std::runtime_error(
          logFmt("cooperative stop requested at ", now_ns, "ns")),
      nowNs(now_ns)
{
}

SoftMcHost::SoftMcHost(DramModule &module, Timing timing)
    : dram(module), timingParams(timing), planCache(kPlanCacheSlots)
{
}

SoftMcHost::PlanCacheEntry &
SoftMcHost::planSlotFor(Bank bank, Row row)
{
    const std::size_t h =
        (static_cast<std::size_t>(static_cast<std::uint32_t>(row)) *
             31u +
         static_cast<std::size_t>(static_cast<std::uint32_t>(bank))) %
        kPlanCacheSlots;
    return planCache[h];
}

void
SoftMcHost::attachMetrics(MetricsRegistry *registry)
{
    metrics = registry;
    dram.attachMetrics(registry);
    if (fault != nullptr)
        fault->attachMetrics(registry);
}

void
SoftMcHost::publishPerfCounters()
{
    dram.publishPerfCounters();
    if (metrics != nullptr)
        metrics->counter("trace.dropped_events").value = cmdTrace.dropped();
}

void
SoftMcHost::attachFaultInjector(FaultInjector *injector)
{
    if (fault != nullptr && fault != injector)
        fault->attachTrace(nullptr);
    fault = injector;
    if (fault != nullptr) {
        fault->attachTrace(&cmdTrace);
        if (metrics != nullptr)
            fault->attachMetrics(metrics);
    }
}

void
SoftMcHost::setWatchdogBudget(Time budget_ns)
{
    if (budget_ns <= 0) {
        clearWatchdog();
        return;
    }
    wdBudget = budget_ns;
    wdDeadline = clock + budget_ns;
}

void
SoftMcHost::clearWatchdog()
{
    wdBudget = 0;
    wdDeadline = -1;
}

SoftMcHost::Snapshot
SoftMcHost::snapshotState() const
{
    Snapshot snap;
    snap.clock = clock;
    snap.acts = acts;
    snap.refCmds = refCmds;
    snap.wdBudget = wdBudget;
    snap.wdDeadline = wdDeadline;
    snap.trace = cmdTrace;
    return snap;
}

void
SoftMcHost::restoreState(const Snapshot &snap)
{
    clock = snap.clock;
    acts = snap.acts;
    refCmds = snap.refCmds;
    wdBudget = snap.wdBudget;
    wdDeadline = snap.wdDeadline;
    cmdTrace = snap.trace;
    // An attached fault injector records into the host's trace through
    // a cached pointer; the copy assignment above did not move the
    // object, so the pointer stays valid.
}

void
SoftMcHost::checkWatchdog()
{
    // The stop flag shares the watchdog's poll point (after every
    // command); the null check keeps the fault-free hot path to one
    // predictable branch.
    pollStopFlag();
    if (wdDeadline >= 0 && clock > wdDeadline)
        throw WatchdogTimeout(wdBudget, wdDeadline, clock, acts, refCmds);
}

void
SoftMcHost::applyMitigation(Bank bank, Row row)
{
    const MitigationAction action =
        mitigation->onActivate(bank, row, clock);
    clock += action.delayNs;
    // Victim refreshes are real ACT+PRE cycles issued while the bank
    // is still precharged (before the triggering activation opens it).
    const Row rows = dram.spec().rowsPerBank;
    for (Row victim : action.refreshRows) {
        if (victim < 0 || victim >= rows)
            continue;
        dram.act(bank, victim, clock);
        dram.pre(bank, clock);
        cmdTrace.record(TraceKind::kAct, bank, victim, clock,
                        timingParams.tRAS);
        clock += timingParams.hammerCycle();
        ++acts;
    }
}

void
SoftMcHost::act(Bank bank, Row row)
{
    if (mitigation != nullptr)
        applyMitigation(bank, row);
    dram.act(bank, row, clock);
    cmdTrace.record(TraceKind::kAct, bank, row, clock, timingParams.tRAS);
    clock += timingParams.tRAS;
    ++acts;
    checkWatchdog();
}

void
SoftMcHost::pre(Bank bank)
{
    dram.pre(bank, clock);
    cmdTrace.record(TraceKind::kPre, bank, kInvalidRow, clock,
                    timingParams.tRP);
    clock += timingParams.tRP;
}

void
SoftMcHost::wr(Bank bank, const DataPattern &pattern)
{
    // A dropped WR occupies the bus but leaves the row's old contents
    // in place; the consumer sees it as massive unexpected flips.
    if (fault == nullptr || !fault->shouldDropWr(bank, clock))
        dram.wr(bank, pattern, clock);
    cmdTrace.record(TraceKind::kWr, bank, kInvalidRow, clock,
                    timingParams.tBURST);
    clock += timingParams.tBURST;
}

void
SoftMcHost::wrWord(Bank bank, int word_idx, std::uint64_t value)
{
    dram.wrWord(bank, word_idx, value);
    cmdTrace.record(TraceKind::kWr, bank, kInvalidRow, clock,
                    timingParams.tBURST);
    clock += timingParams.tBURST;
}

RowReadout
SoftMcHost::rd(Bank bank)
{
    if (fault != nullptr)
        fault->onRowRead(dram, bank, dram.bankAt(bank).openRow(), clock);
    RowReadout readout = dram.rd(bank);
    if (fault != nullptr)
        fault->corruptReadout(readout, bank, clock);
    cmdTrace.record(TraceKind::kRd, bank, kInvalidRow, clock,
                    timingParams.tBURST);
    clock += timingParams.tBURST;
    return readout;
}

void
SoftMcHost::ref()
{
    if (mitigation != nullptr)
        mitigation->onRefresh(clock);
    // A dropped REF occupies the bus and counts on the host side, but
    // the module never performs the refresh sweep.
    if (fault == nullptr || !fault->shouldDropRef(clock))
        dram.ref(clock);
    cmdTrace.record(TraceKind::kRef, 0, kInvalidRow, clock,
                    timingParams.tRFC);
    clock += timingParams.tRFC;
    ++refCmds;
    checkWatchdog();
}

void
SoftMcHost::refBurst(int count)
{
    UTRR_PROF_SCOPE_SIM("softmc.ref_burst", &clock);
    for (int i = 0; i < count; ++i)
        ref();
}

void
SoftMcHost::refAtDefaultRate(int count)
{
    UTRR_PROF_SCOPE_SIM("softmc.ref_default_rate", &clock);
    const Time start = clock;
    for (int i = 0; i < count; ++i) {
        ref();
        Time gap = timingParams.tREFI - timingParams.tRFC;
        if (fault != nullptr)
            gap += fault->refJitter(clock);
        clock += gap;
    }
    if (fault != nullptr)
        fault->onTimeAdvance(dram, start, clock);
    checkWatchdog();
}

void
SoftMcHost::wait(Time ns)
{
    UTRR_PROF_SCOPE_SIM("softmc.wait", &clock);
    UTRR_ASSERT(ns >= 0, "cannot wait negative time");
    cmdTrace.record(TraceKind::kWait, 0, kInvalidRow, clock, ns);
    const Time start = clock;
    clock += ns;
    if (fault != nullptr)
        fault->onTimeAdvance(dram, start, clock);
    checkWatchdog();
}

void
SoftMcHost::waitWithRefresh(Time ns)
{
    UTRR_PROF_SCOPE_SIM("softmc.wait_refresh", &clock);
    const Time start = clock;
    const Time deadline = clock + ns;
    while (clock + timingParams.tREFI <= deadline) {
        Time gap = timingParams.tREFI - timingParams.tRFC;
        if (fault != nullptr)
            gap += fault->refJitter(clock);
        clock += gap;
        ref();
    }
    clock = std::max(clock, deadline);
    if (fault != nullptr)
        fault->onTimeAdvance(dram, start, clock);
    checkWatchdog();
}

void
SoftMcHost::writeRow(Bank bank, Row row, const DataPattern &pattern)
{
    act(bank, row);
    wr(bank, pattern);
    pre(bank);
}

RowReadout
SoftMcHost::readRow(Bank bank, Row row)
{
    act(bank, row);
    RowReadout readout = rd(bank);
    pre(bank);
    return readout;
}

void
SoftMcHost::hammerOnce(Bank bank, Row row)
{
    if (fault != nullptr && fault->shouldDropHammerAct(bank, row, clock)) {
        // The cycle burns bus time and counts on the host side, but the
        // module never sees the activation (no disturbance, no TRR
        // sampling).
        cmdTrace.record(TraceKind::kAct, bank, row, clock,
                        timingParams.tRAS);
        clock += timingParams.hammerCycle();
        ++acts;
        checkWatchdog();
        return;
    }
    act(bank, row);
    pre(bank);
}

bool
SoftMcHost::canBatch(std::int64_t cycles, Time cycle_ns) const
{
    if (execModeV != ExecMode::kCompiled || mitigation != nullptr ||
        fault != nullptr || cycles <= 1) {
        return false;
    }
    // The per-command watchdog fires after the ACT that crosses the
    // deadline (mid-run, with the bank left open); if any ACT of this
    // run could cross it, run the exact per-cycle path instead. The
    // last ACT's poll point is at start + (cycles-1)*cycle_ns + tRAS.
    return wdDeadline < 0 ||
        clock + (cycles - 1) * cycle_ns + timingParams.tRAS <= wdDeadline;
}

void
SoftMcHost::recordRowPass(Bank bank, Row first, int count,
                          TraceKind access, Time start)
{
    if (!cmdTrace.enabled())
        return;
    const Timing &t = timingParams;
    Time at = start;
    for (int i = 0; i < count; ++i, at += rowCycle()) {
        cmdTrace.record(TraceKind::kAct, bank, first + i, at, t.tRAS);
        cmdTrace.record(access, bank, kInvalidRow, at + t.tRAS, t.tBURST);
        cmdTrace.record(TraceKind::kPre, bank, kInvalidRow,
                        at + t.tRAS + t.tBURST, t.tRP);
    }
}

void
SoftMcHost::writeRows(Bank bank, Row first, int count,
                      const DataPattern &pattern)
{
    if (!canBatch(count, rowCycle())) {
        for (int i = 0; i < count; ++i)
            writeRow(bank, first + i, pattern);
        return;
    }
    dram.writePass(bank, first, count, pattern, clock, rowCycle(),
                   timingParams.tRAS);
    recordRowPass(bank, first, count, TraceKind::kWr, clock);
    clock += static_cast<Time>(count) * rowCycle();
    acts += static_cast<std::uint64_t>(count);
    // The fused pass polls cancellation once instead of per ACT.
    pollStopFlag();
}

void
SoftMcHost::readRows(Bank bank, Row first, int count,
                     const DramModule::ReadoutSink &sink)
{
    if (!canBatch(count, rowCycle())) {
        for (int i = 0; i < count; ++i)
            sink(i, readRow(bank, first + i));
        return;
    }
    dram.readPass(bank, first, count, clock, rowCycle(), sink);
    recordRowPass(bank, first, count, TraceKind::kRd, clock);
    clock += static_cast<Time>(count) * rowCycle();
    acts += static_cast<std::uint64_t>(count);
    pollStopFlag();
}

void
SoftMcHost::hammer(Bank bank, Row row, int count)
{
    UTRR_PROF_SCOPE_SIM("softmc.hammer", &clock);
    const std::pair<Bank, Row> aggr{bank, row};
    hammerRoundRobin(&aggr, &count, 1);
}

void
SoftMcHost::hammerInterleaved(
    const std::vector<std::pair<Bank, Row>> &rows,
    const std::vector<int> &counts)
{
    UTRR_PROF_SCOPE_SIM("softmc.hammer_interleaved", &clock);
    UTRR_ASSERT(rows.size() == counts.size(),
                "one count per aggressor row");
    hammerRoundRobin(rows.data(), counts.data(), rows.size());
}

void
SoftMcHost::hammerPlanned(const DramModule::ActPlan &plan, Bank bank,
                          Row row)
{
    // act()+pre() minus the lookups and the watchdog poll, which
    // canBatch pre-checked for the whole run.
    dram.actPlanned(plan, clock);
    cmdTrace.record(TraceKind::kAct, bank, row, clock, timingParams.tRAS);
    clock += timingParams.tRAS;
    ++acts;
    pollStopFlag();
    cmdTrace.record(TraceKind::kPre, bank, kInvalidRow, clock,
                    timingParams.tRP);
    clock += timingParams.tRP;
}

const DramModule::ActPlan &
SoftMcHost::hammerPlan(Bank bank, Row row, Time first_act)
{
    PlanCacheEntry &entry = planSlotFor(bank, row);
    if (entry.bank != bank || entry.row != row ||
        entry.epoch != dram.planEpoch()) {
        // Building materializes the aggressor, then its victims in the
        // per-command -1/+1/-2/+2 order, at the time its first ACT
        // would have: value-identical to activate()'s own lookups.
        entry.plan = dram.buildActPlan(bank, row, first_act);
        entry.bank = bank;
        entry.row = row;
        entry.epoch = dram.planEpoch();
    }
    return entry.plan;
}

void
SoftMcHost::hammerRoundRobin(const std::pair<Bank, Row> *rows,
                             const int *counts, std::size_t n)
{
    std::int64_t total = 0;
    int cmin = n == 0 ? 0 : counts[0];
    for (std::size_t i = 0; i < n; ++i) {
        total += std::max(counts[i], 0);
        cmin = std::min(cmin, counts[i]);
    }
    const bool batch = canBatch(total, timingParams.hammerCycle());

    if (hammerLeft.size() < n) {
        hammerPlans.resize(n);
        hammerLeft.resize(n);
    }
    DramModule::ActPlan *plans = hammerPlans.data();
    int *left = hammerLeft.data();
    std::copy(counts, counts + n, left);

    // Plans for every aggressor that hammers, each as of its first-round
    // ACT (an aggressor with no cycles must not materialize rows).
    const Time cycle = timingParams.hammerCycle();
    Time first_act = clock;
    for (std::size_t i = 0; batch && i < n; ++i) {
        if (counts[i] > 0) {
            plans[i] = hammerPlan(rows[i].first, rows[i].second, first_act);
            first_act += cycle;
        }
    }

    // The uniform min(counts) rounds go to the module in one call
    // (folded where provably exact); the host replays their trace
    // records and clock. Stragglers with larger counts — and every
    // cycle when batching is off — then issue round-robin one by one.
    if (batch && cmin >= 1 && n <= DramBank::kMaxInterleavedFold) {
        dram.actInterleavedBurst(plans, static_cast<int>(n), cmin, clock,
                                 cycle);
        if (cmdTrace.enabled()) {
            Time t = clock;
            for (int k = 0; k < cmin; ++k) {
                for (std::size_t i = 0; i < n; ++i) {
                    cmdTrace.record(TraceKind::kAct, rows[i].first,
                                    rows[i].second, t, timingParams.tRAS);
                    cmdTrace.record(TraceKind::kPre, rows[i].first,
                                    kInvalidRow, t + timingParams.tRAS,
                                    timingParams.tRP);
                    t += cycle;
                }
            }
        }
        clock += static_cast<Time>(cmin) * static_cast<Time>(n) * cycle;
        acts += static_cast<std::uint64_t>(n) *
            static_cast<std::uint64_t>(cmin);
        for (std::size_t i = 0; i < n; ++i)
            left[i] -= cmin;
        // The fused span polls cancellation once instead of per ACT.
        pollStopFlag();
    }
    for (bool remaining = true; remaining;) {
        remaining = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (left[i] <= 0)
                continue;
            if (batch)
                hammerPlanned(plans[i], rows[i].first, rows[i].second);
            else
                hammerOnce(rows[i].first, rows[i].second);
            remaining = --left[i] > 0 || remaining;
        }
    }
}

void
SoftMcHost::hammerCascaded(const std::vector<std::pair<Bank, Row>> &rows,
                           const std::vector<int> &counts)
{
    UTRR_PROF_SCOPE_SIM("softmc.hammer_cascaded", &clock);
    UTRR_ASSERT(rows.size() == counts.size(),
                "one count per aggressor row");
    for (std::size_t i = 0; i < rows.size(); ++i)
        hammer(rows[i].first, rows[i].second, counts[i]);
}

void
SoftMcHost::hammerMultiBank(
    const std::vector<std::pair<Bank, Row>> &rows, int count_each)
{
    UTRR_PROF_SCOPE_SIM("softmc.hammer_multibank", &clock);
    // Banks hammer in parallel; throughput is limited by both the
    // per-bank cycle time and the four-activation window.
    const auto banks = static_cast<std::int64_t>(rows.size());
    if (banks == 0 || count_each <= 0)
        return;

    const Time start = clock;
    Time penalty = 0;
    for (int i = 0; i < count_each; ++i) {
        for (const auto &[bank, row] : rows) {
            if (mitigation != nullptr) {
                const Time before = clock;
                applyMitigation(bank, row);
                penalty += clock - before;
                clock = before;
            }
            cmdTrace.record(TraceKind::kAct, bank, row, clock,
                            timingParams.tRAS);
            ++acts;
            if (fault != nullptr &&
                fault->shouldDropHammerAct(bank, row, clock))
                continue; // bus slot burnt, module never sees the ACT
            dram.act(bank, row, clock);
            dram.pre(bank, clock);
        }
    }
    const Time per_bank_bound =
        static_cast<Time>(count_each) * timingParams.hammerCycle();
    const Time tfaw_bound = static_cast<Time>(count_each) * banks *
        timingParams.tFAW / 4;
    clock = start + std::max(per_bank_bound, tfaw_bound) + penalty;
    checkWatchdog();
}

ExecResult
SoftMcHost::execute(const Program &program)
{
    // Mitigation and fault injection hook individual commands (e.g. a
    // dropped hammer ACT exists only on the immediate API), so programs
    // run under them — and on the interpreted tier — compile unfused:
    // every hook fires exactly as recorded.
    const bool fuse = execModeV == ExecMode::kCompiled &&
        mitigation == nullptr && fault == nullptr;
    return executeCompiled(ProgramCompiler::compile(program, fuse));
}

ExecResult
SoftMcHost::executeCompiled(const CompiledProgram &compiled)
{
    UTRR_PROF_SCOPE_SIM("softmc.execute", &clock);
    ExecResult result;
    result.startTime = clock;
    result.reads.reserve(compiled.readCount);
    // RD of the open row, recorded under its logical address.
    const auto capture = [&](Bank bank) {
        ReadRecord record;
        record.bank = bank;
        record.row = dram.toLogical(bank, dram.bankAt(bank).openRow());
        record.when = clock;
        record.readout = rd(bank);
        result.reads.push_back(std::move(record));
    };
    for (const CompiledOp &op : compiled.ops) {
        switch (op.kind) {
          case CompiledOpKind::kHammer:
            hammer(op.bank, op.row, op.count);
            break;
          case CompiledOpKind::kWriteRow:
            writeRows(op.bank, op.row, op.count,
                      compiled.patterns[static_cast<std::size_t>(
                          op.patternIdx)]);
            break;
          case CompiledOpKind::kReadRow: {
            // Row i's RD lands tRAS after its ACT, one row cycle apart;
            // the mapping is a bijection, so its record names row + i.
            const Time first_rd = clock + timingParams.tRAS;
            readRows(op.bank, op.row, op.count,
                     [&](int i, RowReadout &&readout) {
                         result.reads.push_back(
                             {op.bank, op.row + i,
                              first_rd + static_cast<Time>(i) * rowCycle(),
                              std::move(readout)});
                     });
            break;
          }
          case CompiledOpKind::kRefBurst:
            for (int i = 0; i < op.count; ++i)
                ref();
            break;
          case CompiledOpKind::kAct:
            act(op.bank, op.row);
            break;
          case CompiledOpKind::kPre:
            pre(op.bank);
            break;
          case CompiledOpKind::kWr:
            wr(op.bank, compiled.patterns[static_cast<std::size_t>(
                            op.patternIdx)]);
            break;
          case CompiledOpKind::kWrWord:
            wrWord(op.bank, op.wordIdx, op.value);
            break;
          case CompiledOpKind::kRd:
            capture(op.bank);
            break;
          case CompiledOpKind::kWait:
            wait(op.waitNs);
            break;
          case CompiledOpKind::kWaitRef:
            waitWithRefresh(op.waitNs);
            break;
        }
    }
    result.endTime = clock;
    return result;
}

} // namespace utrr
