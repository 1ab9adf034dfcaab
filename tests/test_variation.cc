/** @file Unit tests for the process-variation & yield subsystem. */

#include <cstring>
#include <limits>
#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/pipeline.hh"
#include "fields_equal.hh"
#include "fnv1a.hh"
#include "memory/iraw_guard.hh"
#include "sim/simulation.hh"
#include "variation/population.hh"

namespace iraw {
namespace variation {
namespace {

VariationParams
params(double sigma, double sysSigma = 0.02)
{
    VariationParams p;
    p.sigma = sigma;
    p.systematicSigma = sysSigma;
    return p;
}

ChipGeometry
defaultGeometry()
{
    return ChipGeometry::from(core::CoreConfig{},
                              memory::MemoryConfig{});
}

TEST(VariationModel, DrawsAreOrderIndependent)
{
    // Every z is a pure function of (chipSeed, structure, line):
    // querying in any order, from any model instance, yields the
    // same values bitwise.
    std::vector<double> forward, backward;
    for (uint32_t line = 0; line < 64; ++line)
        forward.push_back(
            VariationModel::lineZ(42, StructureId::Dl0, line));
    for (uint32_t line = 64; line-- > 0;)
        backward.push_back(
            VariationModel::lineZ(42, StructureId::Dl0, line));
    for (uint32_t line = 0; line < 64; ++line)
        EXPECT_EQ(forward[line], backward[63 - line]);
}

TEST(VariationModel, DrawsDifferByKey)
{
    double base = VariationModel::lineZ(1, StructureId::Il0, 7);
    EXPECT_NE(base, VariationModel::lineZ(2, StructureId::Il0, 7));
    EXPECT_NE(base, VariationModel::lineZ(1, StructureId::Dl0, 7));
    EXPECT_NE(base, VariationModel::lineZ(1, StructureId::Il0, 8));
}

TEST(VariationModel, StandardNormalInverseCdf)
{
    EXPECT_NEAR(standardNormalFromUniform(0.5), 0.0, 1e-9);
    EXPECT_NEAR(standardNormalFromUniform(0.975), 1.959964, 1e-5);
    EXPECT_NEAR(standardNormalFromUniform(0.025), -1.959964, 1e-5);
    // Deep tails stay finite and monotone.
    double z6 = standardNormalFromUniform(1e-9);
    EXPECT_LT(z6, -5.9);
    EXPECT_GT(z6, -6.1);
    EXPECT_THROW(standardNormalFromUniform(0.0), FatalError);
    EXPECT_THROW(standardNormalFromUniform(1.0), FatalError);
}

TEST(VariationModel, SigmaZeroMeansUnityMultiplier)
{
    VariationModel model(params(0.0, 0.0));
    // Exact identity, not approximate: sigma=0 chips must be
    // bitwise nominal.
    EXPECT_EQ(model.multiplierAt(450.0, 3.7, -2.1), 1.0);
    EXPECT_EQ(model.multiplierAt(700.0, -4.0, 0.5), 1.0);
}

TEST(VariationModel, SigmaAmplifiesAtLowVcc)
{
    VariationModel model(params(0.05));
    EXPECT_NEAR(model.effectiveSigma(circuit::kMaxVcc), 0.05,
                1e-12);
    EXPECT_GT(model.effectiveSigma(400.0),
              model.effectiveSigma(500.0));
    EXPECT_GT(model.effectiveSigma(500.0),
              model.effectiveSigma(700.0));
}

TEST(ChipSample, SamplingIsOrderIndependent)
{
    sim::Simulator sim;
    const core::CoreConfig core;
    VariationModel model(params(0.06));
    ChipGeometry geom = defaultGeometry();
    mechanism::IrawController controller(
        sim.cycleTimeModel(), mechanism::IrawMode::ForcedOn);
    // Sample the same population twice in opposite chip order; every
    // chip, its operability and every map it derives must be
    // identical bitwise.
    std::vector<ChipSample> forward, backward;
    for (uint32_t c = 0; c < 6; ++c)
        forward.push_back(ChipSample::sample(model, 9, c, geom));
    for (uint32_t c = 6; c-- > 0;)
        backward.push_back(ChipSample::sample(model, 9, c, geom));
    for (uint32_t c = 0; c < 6; ++c) {
        const ChipSample &a = forward[c];
        const ChipSample &b = backward[5 - c];
        ASSERT_EQ(a.chipSeed(), b.chipSeed());
        EXPECT_EQ(a.maxZ(), b.maxZ());
        for (circuit::MilliVolts vcc : circuit::standardSweep()) {
            const ChipOperability oa =
                a.operableAt(sim.cycleTimeModel(), core, vcc);
            const ChipOperability ob =
                b.operableAt(sim.cycleTimeModel(), core, vcc);
            EXPECT_EQ(oa.operable, ob.operable) << vcc << " mV";
            EXPECT_EQ(oa.requiredN, ob.requiredN) << vcc << " mV";
            const mechanism::IrawSettings settings =
                controller.reconfigure(vcc);
            const StabilizationMaps ma =
                a.stabilizationMaps(sim.cycleTimeModel(), settings);
            const StabilizationMaps mb =
                b.stabilizationMaps(sim.cycleTimeModel(), settings);
            EXPECT_EQ(ma.lineN, mb.lineN) << vcc << " mV";
            EXPECT_EQ(ma.structureWorst, mb.structureWorst);
            EXPECT_EQ(ma.worst, mb.worst);
        }
    }
}

TEST(ChipSample, StabilizationCyclesSaturate)
{
    // In range, the nominal rounding: ceil, at least one cycle.
    EXPECT_EQ(stabilizationCyclesFor(2.5, 1.0, 1.0), 3u);
    EXPECT_EQ(stabilizationCyclesFor(0.0, 1.0, 1.0), 1u);
    EXPECT_EQ(stabilizationCyclesFor(4294967295.0, 1.0, 1.0),
              UINT32_MAX);
    // A requirement no 32-bit counter holds saturates; casting it
    // would be undefined (on x86 it came out as N = 1).
    EXPECT_EQ(stabilizationCyclesFor(1.0, 1e81, 1.0), UINT32_MAX);
    EXPECT_EQ(stabilizationCyclesFor(
                  1.0, std::numeric_limits<double>::infinity(), 1.0),
              UINT32_MAX);
    EXPECT_EQ(stabilizationCyclesFor(
                  1.0, std::numeric_limits<double>::quiet_NaN(), 1.0),
              UINT32_MAX);
}

TEST(ChipSample, StabilizationMapsNominalAtSigmaZero)
{
    sim::Simulator sim;
    VariationModel model(params(0.0, 0.0));
    ChipSample chip =
        ChipSample::sample(model, 1, 0, defaultGeometry());
    mechanism::IrawController controller(
        sim.cycleTimeModel(), mechanism::IrawMode::ForcedOn);
    for (circuit::MilliVolts vcc : {400.0, 450.0, 500.0, 550.0}) {
        mechanism::IrawSettings settings =
            controller.reconfigure(vcc);
        StabilizationMaps maps =
            chip.stabilizationMaps(sim.cycleTimeModel(), settings);
        ASSERT_TRUE(maps.active);
        EXPECT_EQ(maps.worst, settings.stabilizationCycles);
        for (uint32_t s = 0; s < kNumStructures; ++s)
            for (uint32_t n : maps.lineN[s])
                EXPECT_EQ(n, settings.stabilizationCycles);
    }
}

TEST(ChipSample, StabilizationMapsMatchPinnedDigests)
{
    // Every line's N, every structure's worst and the chip worst of
    // chips 0-31 of population seed 1 (default parameters), at each
    // standard-sweep voltage under ForcedOn, are pinned bit for bit:
    // a change to the draws, the multiplier or the rounding moves at
    // least one digest.
    static const uint64_t kPins[] = {
        // 700 through 525 mV: every line still needs one cycle.
        0x5fb46df2d9399c25ULL, 0x5fb46df2d9399c25ULL,
        0x5fb46df2d9399c25ULL, 0x5fb46df2d9399c25ULL,
        0x5fb46df2d9399c25ULL, 0x5fb46df2d9399c25ULL,
        0x5fb46df2d9399c25ULL, 0x5fb46df2d9399c25ULL,
        0x003784d1dcb3da96ULL, // 500 mV
        0xf2250651fe720614ULL, // 475 mV
        0xaf22aef9c7832071ULL, // 450 mV
        0x180b1eb286a93615ULL, // 425 mV
        0x27de2b5c7b351f32ULL, // 400 mV
    };
    sim::Simulator sim;
    VariationModel model{VariationParams{}};
    const ChipGeometry geom = defaultGeometry();
    std::vector<ChipSample> chips;
    for (uint32_t c = 0; c < 32; ++c)
        chips.push_back(ChipSample::sample(model, 1, c, geom));
    mechanism::IrawController controller(
        sim.cycleTimeModel(), mechanism::IrawMode::ForcedOn);
    const std::vector<circuit::MilliVolts> sweep =
        circuit::standardSweep();
    ASSERT_EQ(sweep.size(), std::size(kPins));
    for (size_t v = 0; v < sweep.size(); ++v) {
        const mechanism::IrawSettings settings =
            controller.reconfigure(sweep[v]);
        Fnv1a h;
        for (const ChipSample &chip : chips) {
            const StabilizationMaps maps =
                chip.stabilizationMaps(sim.cycleTimeModel(), settings);
            ASSERT_TRUE(maps.active);
            for (uint32_t s = 0; s < kNumStructures; ++s) {
                ASSERT_EQ(maps.lineN[s].size(), geom.lines[s]);
                for (uint32_t n : maps.lineN[s])
                    h.add(n, 4);
                h.add(maps.structureWorst[s], 4);
            }
            h.add(maps.worst, 4);
        }
        EXPECT_EQ(h.value(), kPins[v])
            << std::hex << "0x" << h.value() << " at " << std::dec
            << sweep[v] << " mV";
    }
}

TEST(ChipSample, RequiredNMonotoneAsVccFalls)
{
    VariationModel model(params(0.08));
    sim::Simulator sim;
    core::CoreConfig core;
    ChipSample chip =
        ChipSample::sample(model, 3, 1, defaultGeometry());
    uint32_t prev = 0;
    for (circuit::MilliVolts vcc : {650.0, 600.0, 550.0, 500.0,
                                    450.0, 400.0}) {
        ChipOperability op =
            chip.operableAt(sim.cycleTimeModel(), core, vcc);
        EXPECT_GE(op.requiredN, prev) << "at " << vcc << " mV";
        prev = op.requiredN;
    }
}

TEST(IrawPortGuardTest, PerWriteWindowsRespected)
{
    memory::IrawPortGuard guard("test");
    guard.setStabilizationCycles(2);
    // A weak line needs 5 cycles, the uniform default 2.
    guard.noteWrite(10, 5);
    EXPECT_FALSE(guard.blocked(10)); // before/at the write: old data
    EXPECT_TRUE(guard.blocked(11));
    EXPECT_TRUE(guard.blocked(15));
    EXPECT_FALSE(guard.blocked(16));
    EXPECT_EQ(guard.resolve(12), 16u);

    memory::IrawPortGuard uniform("test");
    uniform.setStabilizationCycles(2);
    uniform.noteWrite(10); // uniform path
    EXPECT_TRUE(uniform.blocked(12));
    EXPECT_FALSE(uniform.blocked(13));

    // Disabled guard ignores per-line windows entirely.
    memory::IrawPortGuard disabled("test");
    disabled.setStabilizationCycles(0);
    disabled.noteWrite(10, 5);
    EXPECT_FALSE(disabled.blocked(12));
    EXPECT_EQ(disabled.resolve(12), 12u);
}

TEST(ScoreboardMapTest, PerRegisterStabilization)
{
    core::Scoreboard sb(1);
    std::vector<uint32_t> map(isa::kNumLogicalRegs, 1);
    map[3] = 3; // one weak register
    sb.setStabilizationMap(map);
    EXPECT_EQ(sb.stabilizationCyclesFor(2), 1u);
    EXPECT_EQ(sb.stabilizationCyclesFor(3), 3u);

    // Same-latency producers: the weak register's consumers see a
    // longer bubble after the bypass window closes.  The number of
    // not-ready cycles after the value arrives is exactly the
    // register's stabilization count (the bypass 1 covers the
    // arrival cycle).
    sb.setProducer(2, 1, 0);
    sb.setProducer(3, 1, 0);
    int bubble2 = 0, bubble3 = 0;
    for (uint64_t cycle = 1; cycle <= 8; ++cycle) {
        bubble2 += sb.isReady(2, cycle) ? 0 : 1;
        bubble3 += sb.isReady(3, cycle) ? 0 : 1;
    }
    EXPECT_EQ(bubble2, 1); // N=1
    EXPECT_EQ(bubble3, 3); // N=3
}

TEST(ScoreboardMapTest, AllNominalMapMatchesUniform)
{
    core::Scoreboard uniform(1);
    uniform.setStabilizationCycles(2);
    core::Scoreboard mapped(1);
    mapped.setStabilizationMap(
        std::vector<uint32_t>(isa::kNumLogicalRegs, 2));
    uint64_t now = 0;
    for (uint32_t latency = 1; latency <= 20; ++latency) {
        uniform.setProducer(5, now + latency, now);
        mapped.setProducer(5, now + latency, now);
        for (const uint64_t end = now + latency + 4; now < end; ++now) {
            EXPECT_EQ(uniform.isReady(5, now), mapped.isReady(5, now))
                << "latency " << latency << " cycle " << now;
            EXPECT_EQ(uniform.isReadyShadow(5, now),
                      mapped.isReadyShadow(5, now));
        }
    }
}

TEST(VariationSimulation, SigmaZeroChipIsBitwiseNominal)
{
    sim::Simulator sim;
    sim::SimConfig cfg;
    cfg.workload = "spec2006int";
    cfg.instructions = 4000;
    cfg.warmupInstructions = 1000;
    cfg.vcc = 450.0;
    cfg.mode = mechanism::IrawMode::ForcedOn;

    sim::SimResult nominal = sim.run(cfg);

    VariationModel model(params(0.0, 0.0));
    cfg.chip = std::make_shared<const ChipSample>(
        ChipSample::sample(model, 1, 0, defaultGeometry()));
    sim::SimResult varied = sim.run(cfg);

    EXPECT_TRUE(varied.variation.enabled);
    EXPECT_EQ(varied.variation.worstN,
              varied.settings.stabilizationCycles);
    EXPECT_EQ(varied.variation.maxMultiplier, 1.0);
    // Past the chip facts, every field equals the nominal run's.
    varied.variation = nominal.variation;
    expectFieldsEqual(nominal, varied);
}

TEST(VariationSimulation, WeakChipStallsMore)
{
    sim::Simulator sim;
    sim::SimConfig cfg;
    cfg.workload = "spec2006int";
    cfg.instructions = 4000;
    cfg.warmupInstructions = 1000;
    cfg.vcc = 450.0;
    cfg.mode = mechanism::IrawMode::ForcedOn;
    sim::SimResult nominal = sim.run(cfg);

    // A strongly varied chip at low Vcc needs longer windows
    // somewhere, which can only slow the machine down.
    VariationModel model(params(0.10));
    cfg.chip = std::make_shared<const ChipSample>(
        ChipSample::sample(model, 7, 0, defaultGeometry()));
    sim::SimResult varied = sim.run(cfg);
    EXPECT_GT(varied.variation.maxMultiplier, 1.0);
    EXPECT_GE(varied.variation.worstN,
              varied.settings.stabilizationCycles);
    EXPECT_GE(varied.pipeline.cycles, nominal.pipeline.cycles);
}

PopulationConfig
smallPopulation(uint32_t chips, SimulateMode mode)
{
    PopulationConfig cfg;
    cfg.chips = chips;
    cfg.populationSeed = 11;
    cfg.params = params(0.08);
    cfg.voltages = {550.0, 500.0, 450.0, 400.0};
    cfg.suite = {{"spec2006int", 1, 2500}, {"multimedia", 2, 2500}};
    cfg.warmupInstructions = 1000;
    cfg.simulate = mode;
    return cfg;
}

/** Exact equality of two population results. */
void
expectIdenticalPopulations(const PopulationResult &a,
                           const PopulationResult &b)
{
    ASSERT_EQ(a.chips.size(), b.chips.size());
    EXPECT_EQ(a.yieldingChips, b.yieldingChips);
    EXPECT_EQ(a.sortedVccmin, b.sortedVccmin);
    EXPECT_EQ(a.yieldAt, b.yieldAt);
    EXPECT_EQ(a.meanVccmin, b.meanVccmin);
    for (size_t c = 0; c < a.chips.size(); ++c) {
        const ChipSummary &ca = a.chips[c];
        const ChipSummary &cb = b.chips[c];
        EXPECT_EQ(ca.yields, cb.yields);
        EXPECT_EQ(ca.vccmin, cb.vccmin);
        ASSERT_EQ(ca.points.size(), cb.points.size());
        for (size_t i = 0; i < ca.points.size(); ++i) {
            const ChipAtVcc &pa = ca.points[i];
            const ChipAtVcc &pb = cb.points[i];
            EXPECT_EQ(pa.operable, pb.operable);
            EXPECT_EQ(pa.requiredN, pb.requiredN);
            EXPECT_EQ(pa.simulated, pb.simulated);
            if (pa.simulated && pb.simulated)
                expectMachinesIdentical(pa.machine, pb.machine);
        }
    }
}

TEST(ChipPopulation, BitwiseIdenticalAcrossThreadCounts)
{
    sim::Simulator sim;
    PopulationConfig cfg =
        smallPopulation(4, SimulateMode::AtVccmin);

    ChipPopulation serial(sim, sim::RunnerConfig{1});
    ChipPopulation parallel(sim, sim::RunnerConfig{8});
    PopulationResult a = serial.run(cfg);
    PopulationResult b = parallel.run(cfg);
    expectIdenticalPopulations(a, b);

    // And across repeated runs with the same chipseed.
    PopulationResult c = parallel.run(cfg);
    expectIdenticalPopulations(b, c);
}

TEST(ChipPopulation, CdfMonotoneAndYieldConsistent)
{
    sim::Simulator sim;
    PopulationConfig cfg =
        smallPopulation(32, SimulateMode::None);
    cfg.voltages = circuit::standardSweep();
    PopulationResult result = ChipPopulation(sim).run(cfg);

    for (size_t i = 1; i < result.sortedVccmin.size(); ++i)
        EXPECT_GE(result.sortedVccmin[i],
                  result.sortedVccmin[i - 1]);
    // Yield can only fall as Vcc falls (voltages are descending).
    for (size_t i = 1; i < result.yieldAt.size(); ++i)
        EXPECT_LE(result.yieldAt[i], result.yieldAt[i - 1]);
    // Every yielding chip's Vccmin appears in the CDF domain.
    EXPECT_EQ(result.sortedVccmin.size(), result.yieldingChips);
}

TEST(ChipPopulation, SigmaZeroPopulationIsUniformNominal)
{
    sim::Simulator sim;
    PopulationConfig cfg =
        smallPopulation(3, SimulateMode::None);
    cfg.params = params(0.0, 0.0);
    cfg.voltages = circuit::standardSweep();
    PopulationResult result = ChipPopulation(sim).run(cfg);

    EXPECT_EQ(result.yieldingChips, 3u);
    for (const ChipSummary &chip : result.chips) {
        ASSERT_TRUE(chip.yields);
        // Nominal hardware operates across the whole sweep.
        EXPECT_EQ(chip.vccmin, circuit::kMinVcc);
    }
}

TEST(ChipPopulation, HugeSigmaYieldsNoChip)
{
    // At sigma = 100 the weakest line's requirement overflows any
    // counter at every grid voltage: no chip operates anywhere.
    sim::Simulator sim;
    PopulationConfig cfg =
        smallPopulation(4, SimulateMode::None);
    cfg.params = params(100.0);
    cfg.voltages = circuit::standardSweep();
    PopulationResult result = ChipPopulation(sim).run(cfg);

    EXPECT_EQ(result.yieldingChips, 0u);
    for (const ChipSummary &chip : result.chips) {
        EXPECT_FALSE(chip.yields);
        for (const ChipAtVcc &point : chip.points) {
            EXPECT_FALSE(point.operable) << point.vcc << " mV";
            EXPECT_EQ(point.requiredN, UINT32_MAX)
                << point.vcc << " mV";
        }
    }
}

TEST(ChipPopulation, GeometryMismatchRejected)
{
    sim::Simulator sim;
    sim::SimConfig cfg;
    cfg.instructions = 100;
    cfg.warmupInstructions = 0;
    cfg.vcc = 500.0;
    cfg.mode = mechanism::IrawMode::ForcedOn;
    memory::MemoryConfig otherMem;
    otherMem.dl0.sizeBytes = 2 * otherMem.dl0.lineBytes *
                             otherMem.dl0.assoc;
    VariationModel model(params(0.05));
    cfg.chip = std::make_shared<const ChipSample>(
        ChipSample::sample(model, 1, 0,
                           ChipGeometry::from(core::CoreConfig{},
                                              otherMem)));
    EXPECT_THROW(sim.run(cfg), FatalError);
}

} // namespace
} // namespace variation
} // namespace iraw
