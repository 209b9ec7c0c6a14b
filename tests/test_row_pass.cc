/**
 * Fused row passes (DESIGN.md §17) against the per-row command loop.
 *
 * SoftMcHost::writeRows/readRows run one DramModule::writePass/readPass
 * in the compiled tier and replay writeRow()/readRow() row by row in the
 * interpreted tier. Both must leave every observable bit the same: the
 * command trace, each readout, every materialized row's state, the TRR
 * mechanism's state (including what it will do next) and the dram.*
 * counters.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dram/module.hh"
#include "obs/metrics.hh"
#include "softmc/host.hh"
#include "trr_fold_check.hh"

namespace utrr
{
namespace
{

/** A Table-1 module shrunk to 2K rows, its decoder always scrambled. */
ModuleSpec
passSpec(const std::string &name)
{
    ModuleSpec spec = *findModuleSpec(name);
    spec.rowsPerBank = 2 * 1024;
    if (spec.scramble == RowScramble::kSequential)
        spec.scramble = RowScramble::kBitSwap01;
    return spec;
}

/** A module driven through one execution tier. */
struct Device
{
    Device(const ModuleSpec &spec, ExecMode mode)
        : module(spec, 7), host(module)
    {
        host.setExecMode(mode);
        host.attachMetrics(&metrics);
        host.trace().enable(1 << 16);
    }

    MetricsRegistry metrics;
    DramModule module;
    SoftMcHost host;
    /** The flip list of every readout, in read order. */
    std::vector<std::vector<Col>> reads;

    void
    read(Bank bank, Row first, int count)
    {
        host.readRows(bank, first, count, [&](int, RowReadout &&readout) {
            reads.push_back(readout.rawFlips());
        });
    }
};

/** Every materialized row of @p bank, one line each. */
std::string
rowsText(const DramModule &module, Bank bank)
{
    std::ostringstream out;
    const DramBank &b = module.bankAt(bank);
    out << "materialized " << b.materializedRows() << "\n";
    for (Row phys = 0; phys < b.physRows(); ++phys) {
        const RowState *row = b.peekRow(phys);
        if (row == nullptr)
            continue;
        out << phys << ": charge " << std::hexfloat << row->hammerCharge()
            << std::defaultfloat << " by " << row->lastDisturber()
            << " restored " << row->lastRefresh() << " word0 "
            << row->storedWord0() << " flips";
        for (Col col : row->read().rawFlips())
            out << " " << col;
        out << "\n";
    }
    return out.str();
}

/** What @p trr refreshes over a fixed ACT/REF sequence, from a clone
 *  (exposes sampler RNG positions the white-box views cannot show). */
std::string
trrFuture(const TrrMechanism &trr, int banks)
{
    std::unique_ptr<TrrMechanism> clone = trr.clone();
    GroundTruthStore truth;
    clone->attachGroundTruth(&truth);
    Rng rng(99);
    std::string out;
    for (int step = 0; step < 400; ++step) {
        clone->onActivate(static_cast<Bank>(rng.uniformInt(0, banks - 1)),
                          static_cast<Row>(rng.uniformInt(0, 63)));
        if (step % 8 == 7)
            out += refreshText(clone->onRefresh()) + "|";
    }
    return out;
}

void
expectSameDevice(Device &fused, Device &per_row)
{
    EXPECT_EQ(fused.host.now(), per_row.host.now());
    EXPECT_EQ(fused.host.actCount(), per_row.host.actCount());
    EXPECT_EQ(fused.host.trace().contentHash(),
              per_row.host.trace().contentHash());
    EXPECT_EQ(fused.host.trace().dropped(), 0u);
    ASSERT_EQ(fused.reads.size(), per_row.reads.size());
    for (std::size_t i = 0; i < fused.reads.size(); ++i)
        ASSERT_EQ(fused.reads[i], per_row.reads[i]) << "read " << i;

    // Counters first: reading rows below bumps the readout tallies.
    // Whether a hammer burst folded is tier-dependent by design.
    for (Device *d : {&fused, &per_row}) {
        d->host.publishPerfCounters();
        d->metrics.counter("dram.interleaved_fold.accepted").value = 0;
        d->metrics.counter("dram.interleaved_fold.declined").value = 0;
    }
    EXPECT_EQ(fused.metrics.toJson().dump(), per_row.metrics.toJson().dump());

    const int banks = fused.module.spec().banks;
    for (Bank b = 0; b < banks; ++b) {
        SCOPED_TRACE(::testing::Message() << "bank " << b);
        EXPECT_EQ(rowsText(fused.module, b), rowsText(per_row.module, b));
    }
    EXPECT_EQ(trrStateView(fused.module.trrMechanism(), banks),
              trrStateView(per_row.module.trrMechanism(), banks));
    EXPECT_EQ(fused.module.groundTruthProbe().snapshot().dump(),
              per_row.module.groundTruthProbe().snapshot().dump());
    EXPECT_EQ(trrFuture(fused.module.trrMechanism(), banks),
              trrFuture(per_row.module.trrMechanism(), banks));
}

TEST(RowPass, FusedPassesMatchPerRowLoopOnEveryTrrVersion)
{
    for (const char *name :
         {"A0", "A13", "B0", "B9", "B13", "C0", "C9", "C12"}) {
        SCOPED_TRACE(name);
        const ModuleSpec spec = passSpec(name);
        Device fused(spec, ExecMode::kCompiled);
        Device per_row(spec, ExecMode::kInterpreted);
        const Row rows = spec.rowsPerBank;

        // A spare-remapped row to sweep across.
        Row remapped = kInvalidRow;
        for (Row r = 0; r < rows && remapped == kInvalidRow; ++r) {
            if (fused.module.mapping(1).isRemapped(r))
                remapped = r;
        }
        ASSERT_NE(remapped, kInvalidRow) << "no remapped row in bank 1";

        for (Device *d : {&fused, &per_row}) {
            SoftMcHost &h = d->host;
            // The whole bank (row 0 through the last row), then hammer
            // so the TRR tables and samplers hold state, then sweeps
            // over the spare-remapped row and the bank's edges.
            h.writeRows(1, 0, rows, DataPattern::checkerboard());
            h.hammerInterleaved({{1, 40}, {1, 42}, {0, 7}},
                                {3'000, 3'000, 500});
            h.wait(msToNs(900));
            d->read(1, 0, 64);
            h.refBurst(9);
            h.writeRows(1, remapped - 5, 11, DataPattern::random(5));
            h.hammer(1, remapped, 2'000);
            d->read(1, remapped - 5, 11);
            h.writeRows(0, 0, 3, DataPattern::allOnes());
            h.wait(msToNs(400));
            d->read(1, rows - 48, 48);
            d->read(0, 0, 3);
            d->read(1, 0, rows);
            h.refBurst(17);
            d->read(1, 30, 16); // TRR-visible reads before the REFs
            h.refBurst(9);
            // Rewrite decayed rows whose flip lists live readouts and a
            // snapshot still share: the write pass must tally the
            // copy-on-write clones the per-row restores make.
            std::vector<RowReadout> held;
            h.readRows(1, 0, 256, [&](int, RowReadout &&readout) {
                held.push_back(std::move(readout));
            });
            const DramModule::Snapshot snap = d->module.snapshot();
            h.wait(msToNs(1'500));
            h.writeRows(1, 0, 256, DataPattern::allZeros());
            h.wait(msToNs(700));
            d->read(1, 0, 256);
        }
        expectSameDevice(fused, per_row);
        if (HasFailure())
            return;
    }
}

} // namespace
} // namespace utrr
