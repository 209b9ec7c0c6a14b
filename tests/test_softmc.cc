#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "dram/module.hh"
#include "obs/metrics.hh"
#include "softmc/compiler.hh"
#include "softmc/host.hh"
#include "trr/vendor_a.hh"
#include "trr/vendor_b.hh"
#include "trr/vendor_c.hh"

namespace utrr
{
namespace
{

ModuleSpec
smallSpec()
{
    ModuleSpec spec = *findModuleSpec("A5");
    spec.trr = TrrVersion::kNone;
    spec.rowsPerBank = 4 * 1024;
    spec.banks = 2;
    spec.remapsPerBank = 0;
    spec.scramble = RowScramble::kSequential;
    return spec;
}

struct HostFixture : public ::testing::Test
{
    HostFixture() : module(smallSpec(), 1), host(module) {}

    DramModule module;
    SoftMcHost host;
};

TEST_F(HostFixture, ClockAdvancesPerCommand)
{
    const Timing &t = host.timing();
    EXPECT_EQ(host.now(), 0);
    host.act(0, 10);
    EXPECT_EQ(host.now(), t.tRAS);
    host.pre(0);
    EXPECT_EQ(host.now(), t.tRAS + t.tRP);
    host.ref();
    EXPECT_EQ(host.now(), t.tRAS + t.tRP + t.tRFC);
}

TEST_F(HostFixture, HammerCycleTiming)
{
    host.hammer(0, 10, 100);
    EXPECT_EQ(host.now(), 100 * host.timing().hammerCycle());
    EXPECT_EQ(host.actCount(), 100u);
}

TEST(HostWatchdog, HammerTiersAgreeAtTheLastActPollPoint)
{
    // The interpreter polls the watchdog after every ACT, never after a
    // PRE. A budget ending exactly at the last ACT's poll point (start +
    // (count-1)*hammerCycle + tRAS) fires in neither tier, one ns less
    // fires in both — through hammer(), hammerInterleaved() and a
    // program of ACT/PRE runs alike.
    constexpr int kCount = 100;
    Program program;
    program.hammer(0, 10, kCount);
    for (const ExecMode mode :
         {ExecMode::kCompiled, ExecMode::kInterpreted}) {
        for (const Time slack : {Time{0}, Time{-1}}) {
            for (const std::string entry :
                 {"hammer", "interleaved", "execute"}) {
                SCOPED_TRACE(::testing::Message()
                             << entry << " slack " << slack << " "
                             << (mode == ExecMode::kCompiled
                                     ? "compiled"
                                     : "interpreted"));
                DramModule module(smallSpec(), 1);
                SoftMcHost host(module);
                host.setExecMode(mode);
                const Timing &t = host.timing();
                host.setWatchdogBudget((kCount - 1) * t.hammerCycle() +
                                       t.tRAS + slack);
                const auto run = [&] {
                    if (entry == "hammer")
                        host.hammer(0, 10, kCount);
                    else if (entry == "interleaved")
                        host.hammerInterleaved({{0, 10}, {0, 12}},
                                               {kCount / 2, kCount / 2});
                    else
                        host.execute(program);
                };
                if (slack == 0) {
                    EXPECT_NO_THROW(run());
                    EXPECT_EQ(host.now(), kCount * t.hammerCycle());
                } else {
                    EXPECT_THROW(run(), WatchdogTimeout);
                }
                EXPECT_EQ(host.actCount(),
                          static_cast<std::uint64_t>(kCount));
            }
        }
    }
}

TEST(HostWatchdog, RowPassTiersAgreeAtTheLastActPollPoint)
{
    // A row pass polls the watchdog after each row's ACT. A budget
    // ending exactly at the last ACT's poll point (start +
    // (rows-1)*rowCycle + tRAS) fires in neither tier; one ns less
    // fires in both, at that poll point and after every ACT — through
    // writeRows(), readRows() and programs of write/read sweeps alike.
    constexpr int kRows = 64;
    Program writes;
    Program reads;
    for (Row r = 0; r < kRows; ++r) {
        writes.writeRow(0, 100 + r, DataPattern::allOnes());
        reads.readRow(0, 100 + r);
    }
    for (const ExecMode mode :
         {ExecMode::kCompiled, ExecMode::kInterpreted}) {
        for (const Time slack : {Time{0}, Time{-1}}) {
            for (const std::string entry :
                 {"writeRows", "readRows", "execute writes",
                  "execute reads"}) {
                SCOPED_TRACE(::testing::Message()
                             << entry << " slack " << slack << " "
                             << (mode == ExecMode::kCompiled
                                     ? "compiled"
                                     : "interpreted"));
                DramModule module(smallSpec(), 1);
                SoftMcHost host(module);
                host.setExecMode(mode);
                const Timing &t = host.timing();
                const Time cycle = t.tRAS + t.tBURST + t.tRP;
                const Time last_poll = (kRows - 1) * cycle + t.tRAS;
                host.setWatchdogBudget(last_poll + slack);
                const auto run = [&] {
                    if (entry == "writeRows")
                        host.writeRows(0, 100, kRows,
                                       DataPattern::allOnes());
                    else if (entry == "readRows")
                        host.readRows(0, 100, kRows,
                                      [](int, RowReadout &&) {});
                    else
                        host.execute(entry == "execute writes" ? writes
                                                               : reads);
                };
                if (slack == 0) {
                    EXPECT_NO_THROW(run());
                    EXPECT_EQ(host.now(), kRows * cycle);
                } else {
                    try {
                        run();
                        ADD_FAILURE() << "watchdog did not fire";
                    } catch (const WatchdogTimeout &timeout) {
                        EXPECT_EQ(timeout.nowNs, last_poll);
                        EXPECT_EQ(timeout.actsIssued,
                                  static_cast<std::uint64_t>(kRows));
                    }
                    EXPECT_EQ(host.now(), last_poll);
                }
                EXPECT_EQ(host.actCount(),
                          static_cast<std::uint64_t>(kRows));
            }
        }
    }
}

TEST_F(HostFixture, WriteReadRoundTrip)
{
    host.writeRow(0, 42, DataPattern::colStripe());
    const RowReadout readout = host.readRow(0, 42);
    EXPECT_EQ(readout.countFlipsVs(DataPattern::colStripe(), 42), 0);
}

TEST_F(HostFixture, WaitAdvancesWithoutCommands)
{
    host.wait(12'345);
    EXPECT_EQ(host.now(), 12'345);
    EXPECT_EQ(host.refCommandCount(), 0u);
}

TEST_F(HostFixture, WaitWithRefreshIssuesRefsAtDefaultRate)
{
    host.waitWithRefresh(78'000); // 10 tREFI
    EXPECT_EQ(host.refCommandCount(), 10u);
    EXPECT_GE(host.now(), 78'000);
}

TEST_F(HostFixture, RefAtDefaultRateSpacing)
{
    host.refAtDefaultRate(5);
    EXPECT_EQ(host.refCommandCount(), 5u);
    EXPECT_EQ(host.now(), 5 * host.timing().tREFI);
}

TEST_F(HostFixture, InterleavedHammerAlternates)
{
    // Interleaved hammering of two neighbours accumulates full-weight
    // disturbance on the victim between them.
    host.writeRow(0, 100, DataPattern::allOnes());
    host.hammerInterleaved({{0, 99}, {0, 101}}, {50, 50});
    const Row phys = module.toPhysical(0, 100);
    const double interleaved =
        module.bankAt(0).peekRow(phys)->hammerCharge();

    host.writeRow(0, 200, DataPattern::allOnes());
    host.hammerCascaded({{0, 199}, {0, 201}}, {50, 50});
    const double cascaded = module.bankAt(0)
                                .peekRow(module.toPhysical(0, 200))
                                ->hammerCharge();
    EXPECT_GT(interleaved, 1.3 * cascaded);
}

TEST_F(HostFixture, InterleavedHonoursPerRowCounts)
{
    host.hammerInterleaved({{0, 10}, {0, 400}}, {3, 7});
    EXPECT_EQ(host.actCount(), 10u);
}

TEST_F(HostFixture, MultiBankHammerBoundedByBankCycle)
{
    // 4 banks, one ACT per bank per round: the per-bank cycle time
    // dominates tFAW with default timing.
    const Time start = host.now();
    host.hammerMultiBank({{0, 1}, {1, 1}}, 10);
    EXPECT_EQ(host.now() - start, 10 * host.timing().hammerCycle());
    EXPECT_EQ(host.actCount(), 20u);
}

TEST_F(HostFixture, MultiBankHammerTfawBound)
{
    // With 8 "banks" (more than 4 ACTs per tFAW window can serve),
    // the tFAW bound kicks in when it exceeds the per-bank cycle.
    Timing timing;
    timing.tFAW = 400; // make tFAW dominate: 8 * 400 / 4 = 800 / round
    SoftMcHost slow_host(module, timing);
    std::vector<std::pair<Bank, Row>> rows;
    for (Bank b = 0; b < 2; ++b)
        rows.emplace_back(b, 1);
    const Time start = slow_host.now();
    slow_host.hammerMultiBank(rows, 5);
    EXPECT_EQ(slow_host.now() - start, 5 * 2 * 400 / 4);
}

TEST_F(HostFixture, ProgramExecutionCapturesReads)
{
    Program program;
    program.writeRow(0, 7, DataPattern::allOnes())
        .writeRow(0, 9, DataPattern::allZeros())
        .readRow(0, 7)
        .readRow(0, 9)
        .ref(2);
    const ExecResult result = host.execute(program);
    ASSERT_EQ(result.reads.size(), 2u);
    EXPECT_EQ(result.reads[0].row, 7);
    EXPECT_EQ(result.reads[0].readout.countFlipsVs(
                  DataPattern::allOnes(), 7),
              0);
    EXPECT_EQ(result.reads[1].row, 9);
    EXPECT_EQ(host.refCommandCount(), 2u);
    EXPECT_GT(result.endTime, result.startTime);
}

TEST_F(HostFixture, ProgramHammerAndWait)
{
    Program program;
    program.hammer(0, 3, 10).wait(1'000).waitWithRefresh(78'000);
    host.execute(program);
    EXPECT_EQ(host.actCount(), 10u);
    EXPECT_EQ(host.refCommandCount(), 10u);
}

TEST(Program, InstructionToString)
{
    Program program;
    program.act(1, 2).pre(1).ref().wait(5);
    const auto &instrs = program.instructions();
    ASSERT_EQ(instrs.size(), 4u);
    EXPECT_EQ(instrs[0].toString(), "ACT b1 r2");
    EXPECT_EQ(instrs[1].toString(), "PRE b1");
    EXPECT_EQ(instrs[2].toString(), "REF");
    EXPECT_EQ(instrs[3].toString(), "WAIT 5ns");
}

TEST(Program, CompositeSizes)
{
    Program program;
    program.writeRow(0, 1, DataPattern::allOnes());
    EXPECT_EQ(program.size(), 3u); // ACT + WR + PRE
    program.hammer(0, 2, 5);
    EXPECT_EQ(program.size(), 13u);
}

// ---------------------------------------------------------------------
// ProgramCompiler: fusion rules of the compiled tier (DESIGN.md §17).
// The tests below pin the *shape* of the lowered stream; bit-identical
// behaviour is pinned by the execution oracle and the conformance
// suite. They assume the clean tree (no UTRR_MUTATION build).
// ---------------------------------------------------------------------

#ifndef UTRR_MUTATION_FUSION_OFF_BY_ONE

TEST(ProgramCompiler, HammerLoopFusesIntoOneBatchOp)
{
    Program program;
    program.hammer(0, 42, 100); // 200 instructions: 100 × (ACT, PRE)
    const CompiledProgram compiled = ProgramCompiler::compile(program);
    ASSERT_EQ(compiled.ops.size(), 1u);
    EXPECT_EQ(compiled.ops[0].kind, CompiledOpKind::kHammer);
    EXPECT_EQ(compiled.ops[0].bank, 0);
    EXPECT_EQ(compiled.ops[0].row, 42);
    EXPECT_EQ(compiled.ops[0].count, 100);
    EXPECT_EQ(compiled.sourceSize, 200u);
    EXPECT_EQ(compiled.readCount, 0u);
}

TEST(ProgramCompiler, HammerFusionBreaksAtRowAndBankBoundaries)
{
    // Interleaved double-sided hammer: the ACT+PRE pairs alternate rows,
    // so no two consecutive pairs may fuse into one batch.
    Program program;
    for (int i = 0; i < 3; ++i) {
        program.hammer(0, 10, 1);
        program.hammer(1, 20, 1);
    }
    const CompiledProgram compiled = ProgramCompiler::compile(program);
    ASSERT_EQ(compiled.ops.size(), 6u);
    for (std::size_t i = 0; i < compiled.ops.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(compiled.ops[i].kind, CompiledOpKind::kHammer);
        EXPECT_EQ(compiled.ops[i].count, 1);
        EXPECT_EQ(compiled.ops[i].bank, i % 2 == 0 ? 0 : 1);
        EXPECT_EQ(compiled.ops[i].row, i % 2 == 0 ? 10 : 20);
    }
}

TEST(ProgramCompiler, RowAccessesFuseAndPatternsIntern)
{
    Program program;
    program.writeRow(0, 5, DataPattern::allOnes());
    program.writeRow(0, 6, DataPattern::allOnes());
    program.writeRow(1, 7, DataPattern::checkerboard());
    program.writeRow(0, 9, DataPattern::allOnes());
    program.readRow(0, 5);
    const CompiledProgram compiled = ProgramCompiler::compile(program);
    ASSERT_EQ(compiled.ops.size(), 4u);
    EXPECT_EQ(compiled.ops[0].kind, CompiledOpKind::kWriteRow);
    EXPECT_EQ(compiled.ops[0].count, 2); // rows 5 and 6: one pass
    EXPECT_EQ(compiled.ops[1].kind, CompiledOpKind::kWriteRow);
    EXPECT_EQ(compiled.ops[2].kind, CompiledOpKind::kWriteRow);
    EXPECT_EQ(compiled.ops[3].kind, CompiledOpKind::kReadRow);
    EXPECT_EQ(compiled.ops[3].bank, 0);
    EXPECT_EQ(compiled.ops[3].row, 5);
    EXPECT_EQ(compiled.ops[3].count, 1);
    // The allOnes writes share one interned pattern slot.
    ASSERT_EQ(compiled.patterns.size(), 2u);
    EXPECT_EQ(compiled.ops[0].patternIdx, compiled.ops[2].patternIdx);
    EXPECT_NE(compiled.ops[0].patternIdx, compiled.ops[1].patternIdx);
    EXPECT_EQ(compiled.readCount, 1u);
}

TEST(ProgramCompiler, RowPassRunsBreakAtRowBankAndPatternBoundaries)
{
    Program program;
    for (Row r = 5; r < 9; ++r)
        program.writeRow(0, r, DataPattern::allOnes());
    program.writeRow(0, 9, DataPattern::allZeros());  // new pattern
    program.writeRow(1, 10, DataPattern::allZeros()); // new bank
    program.readRow(0, 5).readRow(0, 6).readRow(0, 8); // row gap
    program.readRow(0, 8);                               // repeat
    const CompiledProgram compiled = ProgramCompiler::compile(program);
    ASSERT_EQ(compiled.ops.size(), 6u);
    const struct
    {
        CompiledOpKind kind;
        Bank bank;
        Row row;
        int count;
    } want[] = {
        {CompiledOpKind::kWriteRow, 0, 5, 4},
        {CompiledOpKind::kWriteRow, 0, 9, 1},
        {CompiledOpKind::kWriteRow, 1, 10, 1},
        {CompiledOpKind::kReadRow, 0, 5, 2},
        {CompiledOpKind::kReadRow, 0, 8, 1},
        {CompiledOpKind::kReadRow, 0, 8, 1},
    };
    for (std::size_t i = 0; i < compiled.ops.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(compiled.ops[i].kind, want[i].kind);
        EXPECT_EQ(compiled.ops[i].bank, want[i].bank);
        EXPECT_EQ(compiled.ops[i].row, want[i].row);
        EXPECT_EQ(compiled.ops[i].count, want[i].count);
    }
    EXPECT_EQ(compiled.readCount, 4u);
    // Unfused, every command passes through one-to-one.
    EXPECT_EQ(ProgramCompiler::compile(program, false).ops.size(),
              program.instructions().size());
}

TEST(ProgramCompiler, RefRunsCollapseToOneBurst)
{
    Program program;
    program.ref(32).wait(100).ref();
    const CompiledProgram compiled = ProgramCompiler::compile(program);
    ASSERT_EQ(compiled.ops.size(), 3u);
    EXPECT_EQ(compiled.ops[0].kind, CompiledOpKind::kRefBurst);
    EXPECT_EQ(compiled.ops[0].count, 32);
    EXPECT_EQ(compiled.ops[1].kind, CompiledOpKind::kWait);
    EXPECT_EQ(compiled.ops[1].waitNs, 100);
    EXPECT_EQ(compiled.ops[2].kind, CompiledOpKind::kRefBurst);
    EXPECT_EQ(compiled.ops[2].count, 1);
}

TEST(ProgramCompiler, UnfusablePrefixPassesThroughOneToOne)
{
    // An open-row word write cannot fuse (the PRE is separated from the
    // ACT by WR + WRWORD): every command passes through unchanged.
    Program program;
    program.act(1, 300);
    program.wr(1, DataPattern::allZeros());
    program.wrWord(1, 3, 0xfeedULL);
    program.pre(1);
    program.waitWithRefresh(1'000'000);
    program.readRow(1, 300);
    const CompiledProgram compiled = ProgramCompiler::compile(program);
    ASSERT_EQ(compiled.ops.size(), 6u);
    EXPECT_EQ(compiled.ops[0].kind, CompiledOpKind::kAct);
    EXPECT_EQ(compiled.ops[1].kind, CompiledOpKind::kWr);
    EXPECT_EQ(compiled.ops[2].kind, CompiledOpKind::kWrWord);
    EXPECT_EQ(compiled.ops[2].wordIdx, 3);
    EXPECT_EQ(compiled.ops[2].value, 0xfeedULL);
    EXPECT_EQ(compiled.ops[3].kind, CompiledOpKind::kPre);
    EXPECT_EQ(compiled.ops[4].kind, CompiledOpKind::kWaitRef);
    EXPECT_EQ(compiled.ops[5].kind, CompiledOpKind::kReadRow);
    EXPECT_EQ(compiled.readCount, 1u);
}

#endif // !UTRR_MUTATION_FUSION_OFF_BY_ONE

TEST(ProgramCompiler, CompileIsDeterministic)
{
    Program program;
    program.writeRow(0, 1, DataPattern::random(3));
    program.hammer(0, 2, 7).ref(4).readRow(0, 1);
    const CompiledProgram a = ProgramCompiler::compile(program);
    const CompiledProgram b = ProgramCompiler::compile(program);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
        EXPECT_EQ(a.ops[i].bank, b.ops[i].bank);
        EXPECT_EQ(a.ops[i].row, b.ops[i].row);
        EXPECT_EQ(a.ops[i].count, b.ops[i].count);
        EXPECT_EQ(a.ops[i].patternIdx, b.ops[i].patternIdx);
    }
    EXPECT_EQ(a.patterns.size(), b.patterns.size());
    EXPECT_EQ(a.readCount, b.readCount);
    EXPECT_EQ(a.sourceSize, b.sourceSize);
}

TEST_F(HostFixture, CompiledAndInterpretedTiersMatchBitForBit)
{
    // One host per tier over identically-seeded silicon: reads, clock
    // and ACT accounting must agree exactly.
    DramModule module2(smallSpec(), 1);
    SoftMcHost interp(module2);
    host.setExecMode(ExecMode::kCompiled);
    interp.setExecMode(ExecMode::kInterpreted);

    Program program;
    program.writeRow(0, 500, DataPattern::allOnes());
    program.writeRow(0, 499, DataPattern::allZeros());
    program.writeRow(0, 501, DataPattern::allZeros());
    for (int i = 0; i < 2000; ++i) {
        program.hammer(0, 499, 1);
        program.hammer(0, 501, 1);
    }
    program.hammer(0, 499, 5000).hammer(0, 501, 5000);
    program.ref(16).readRow(0, 500);

    const ExecResult a = host.execute(program);
    const ExecResult b = interp.execute(program);
    EXPECT_EQ(host.now(), interp.now());
    EXPECT_EQ(host.actCount(), interp.actCount());
    ASSERT_EQ(a.reads.size(), b.reads.size());
    for (std::size_t i = 0; i < a.reads.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a.reads[i].bank, b.reads[i].bank);
        EXPECT_EQ(a.reads[i].row, b.reads[i].row);
        EXPECT_EQ(a.reads[i].when, b.reads[i].when);
        EXPECT_EQ(a.reads[i].readout.rawFlips(),
                  b.reads[i].readout.rawFlips());
    }
}

/** White-box TRR state of every bank, for cross-tier comparison. */
std::string
trrStateText(DramModule &module)
{
    const TrrMechanism &trr = module.trrMechanism();
    std::ostringstream out;
    const int banks = module.spec().banks;
    for (Bank b = 0; b < banks; ++b) {
        out << "b" << b << ":";
        if (const auto *a = dynamic_cast<const VendorATrr *>(&trr)) {
            for (const auto &[row, count] : a->tableOf(b))
                out << " " << row << "=" << count;
        } else if (const auto *v = dynamic_cast<const VendorBTrr *>(&trr)) {
            out << " " << v->currentSampleOf(b).value_or(-1);
            if (b == 0 && v->currentSample())
                out << " chip " << v->currentSample()->aggressorPhysRow;
        } else if (const auto *c = dynamic_cast<const VendorCTrr *>(&trr)) {
            out << " " << c->candidateOf(b).value_or(-1) << "@"
                << c->windowActsOf(b);
        }
        out << "\n";
    }
    out << module.groundTruthProbe().snapshot().dump();
    return out.str();
}

/**
 * A TrrAnalyzer-style run through the immediate API: initialize
 * victims and 2-8 aggressors, then alternate interleaved hammering
 * with uneven per-aggressor counts, REFs and victim reads. Appends the
 * TRR state after every hammer to @p trr_states.
 */
std::vector<RowReadout>
analyzerStyleRun(SoftMcHost &host, DramModule &module, std::uint64_t seed,
                 std::vector<std::string> &trr_states)
{
    Rng rng(seed);
    std::vector<RowReadout> reads;
    for (int experiment = 0; experiment < 6; ++experiment) {
        const int n = static_cast<int>(rng.uniformInt(2, 8));
        const Row base = static_cast<Row>(rng.uniformInt(1'000, 3'000));
        std::vector<std::pair<Bank, Row>> aggrs;
        std::vector<int> counts;
        for (int i = 0; i < n; ++i) {
            // Every other row, so victims sit between aggressors; a
            // second bank joins from four aggressors on.
            const Bank bank = n >= 4 && i == n - 1 ? 1 : 0;
            aggrs.emplace_back(bank, base + 2 * i);
            counts.push_back(
                static_cast<int>(rng.uniformInt(200, 1'500)));
            host.writeRow(bank, base + 2 * i, DataPattern::allZeros());
            host.writeRow(bank, base + 2 * i + 1, DataPattern::allOnes());
        }
        for (int slot = 0; slot < 4; ++slot) {
            host.hammerInterleaved(aggrs, counts);
            trr_states.push_back(trrStateText(module));
            for (int r = static_cast<int>(rng.uniformInt(1, 9)); r > 0;
                 --r)
                host.ref();
        }
        for (const auto &[bank, row] : aggrs)
            reads.push_back(host.readRow(bank, row + 1));
    }
    return reads;
}

TEST(InterleavedHammer, CompiledFoldMatchesInterpreterPerTrrVersion)
{
    // One module per TRR version; the compiled host folds the rounds
    // (physics and TRR observation), the interpreted one issues every
    // ACT. Trace, readouts, accounting and TRR state must all agree.
    for (const char *name :
         {"A0", "A13", "B0", "B9", "B13", "C0", "C9", "C12"}) {
        SCOPED_TRACE(name);
        const ModuleSpec spec = *findModuleSpec(name);
        DramModule fast_module(spec, 7);
        DramModule slow_module(spec, 7);
        MetricsRegistry registry;
        fast_module.attachMetrics(&registry);
        SoftMcHost fast(fast_module);
        SoftMcHost slow(slow_module);
        fast.setExecMode(ExecMode::kCompiled);
        slow.setExecMode(ExecMode::kInterpreted);
        fast.trace().enable(std::size_t{1} << 19);
        slow.trace().enable(std::size_t{1} << 19);

        std::vector<std::string> fast_trr;
        std::vector<std::string> slow_trr;
        const std::vector<RowReadout> a =
            analyzerStyleRun(fast, fast_module, 11, fast_trr);
        const std::vector<RowReadout> b =
            analyzerStyleRun(slow, slow_module, 11, slow_trr);

        EXPECT_GT(registry.counter("dram.interleaved_fold.accepted").value,
                  0u)
            << "the compiled run never reached the interleaved fold";
        EXPECT_EQ(fast.trace().recorded(), slow.trace().recorded());
        EXPECT_EQ(fast.trace().contentHash(), slow.trace().contentHash());
        EXPECT_EQ(fast.now(), slow.now());
        EXPECT_EQ(fast.actCount(), slow.actCount());
        EXPECT_EQ(fast_module.refCount(), slow_module.refCount());
        EXPECT_EQ(fast_module.trrEventCount(), slow_module.trrEventCount());
        EXPECT_EQ(fast_module.trrRefreshCount(),
                  slow_module.trrRefreshCount());
        EXPECT_EQ(fast_trr, slow_trr);
        EXPECT_EQ(trrStateText(fast_module), trrStateText(slow_module));
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(a[i].rawFlips(), b[i].rawFlips());
        }
    }
}

TEST(InterleavedHammer, VrtAggressorDeclinesTheFold)
{
    // A VRT row's restores draw telegraph RNG one at a time, so a bank
    // must decline to fold rounds that hammer it; the per-cycle path
    // runs instead and the decline is counted.
    const ModuleSpec spec = *findModuleSpec("A5");
    DramModule module(spec, 3);
    Row vrt_phys = kInvalidRow;
    for (Row r = 2; r < spec.physRowsPerBank() - 2; ++r) {
        const RowPhysics phys = module.physics().generateRetention(0, r);
        for (const WeakCell &cell : phys.weakCells)
            vrt_phys = cell.vrt ? r : vrt_phys;
        if (vrt_phys != kInvalidRow)
            break;
    }
    ASSERT_NE(vrt_phys, kInvalidRow) << "no VRT row in bank 0";
    const Row vrt_row = module.toLogical(0, vrt_phys);
    const Row other_row = vrt_row < 100 ? vrt_row + 50 : vrt_row - 50;

    MetricsRegistry registry;
    module.attachMetrics(&registry);
    SoftMcHost host(module);
    host.setExecMode(ExecMode::kCompiled);
    host.hammerInterleaved({{0, vrt_row}, {0, other_row}}, {500, 500});
    EXPECT_EQ(registry.counter("dram.interleaved_fold.declined").value, 1u);
    EXPECT_EQ(registry.counter("dram.interleaved_fold.accepted").value, 0u);
    EXPECT_EQ(registry.counter("dram.acts").value, 1'000u);

    // Without the VRT row the same call folds.
    host.hammerInterleaved({{0, other_row}, {0, other_row + 4}},
                           {500, 500});
    EXPECT_EQ(registry.counter("dram.interleaved_fold.accepted").value, 1u);
}

} // namespace
} // namespace utrr
