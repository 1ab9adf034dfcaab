/** @file Unit tests for the gem5-style statistics report. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fields_equal.hh"
#include "sim/stats_report.hh"
#include "variation/chip_sample.hh"
#include "variation/variation_model.hh"

namespace iraw {
namespace sim {
namespace {

SimResult
runSmall(bool profile = false)
{
    Simulator s;
    SimConfig cfg;
    cfg.instructions = 8000;
    cfg.warmupInstructions = 2000;
    cfg.vcc = 500;
    cfg.profile = profile;
    return s.run(cfg);
}

TEST(StatsReport, ContainsAllSections)
{
    SimResult r = runSmall();
    std::ostringstream os;
    writeStatsReport(os, r);
    std::string text = os.str();
    for (const char *section :
         {"config.", "pipeline.", "iraw.", "memory.", "predictor.",
          "timing."}) {
        EXPECT_NE(text.find(section), std::string::npos)
            << "missing section " << section;
    }
}

TEST(StatsReport, ValuesMatchResult)
{
    SimResult r = runSmall();
    std::ostringstream os;
    writeStatsReport(os, r);
    std::string text = os.str();
    // Spot-check that the committed-instruction count appears.
    EXPECT_NE(text.find(std::to_string(r.pipeline.committedInsts)),
              std::string::npos);
    EXPECT_NE(text.find("stabilization_cycles"), std::string::npos);
    EXPECT_NE(text.find("rf_delayed_insts"), std::string::npos);
}

TEST(StatsReport, DescriptionsPresent)
{
    SimResult r = runSmall();
    std::ostringstream os;
    writeStatsReport(os, r);
    std::string text = os.str();
    EXPECT_NE(text.find("# instructions per cycle"),
              std::string::npos);
    EXPECT_NE(text.find("# supply voltage"), std::string::npos);
}

TEST(StatsReport, BaselineRunReportsZeroIrawActivity)
{
    Simulator s;
    SimConfig cfg;
    cfg.instructions = 5000;
    cfg.warmupInstructions = 1000;
    cfg.vcc = 500;
    cfg.mode = mechanism::IrawMode::ForcedOff;
    SimResult r = s.run(cfg);
    std::ostringstream os;
    writeStatsReport(os, r);
    std::string text = os.str();
    EXPECT_NE(text.find("iraw_enabled"), std::string::npos);
    EXPECT_EQ(r.pipeline.rfIrawStallCycles, 0u);
}

std::vector<std::string>
reportLines(const SimResult &r)
{
    std::ostringstream os;
    writeStatsReport(os, r);
    std::istringstream in(os.str());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

// Determinism invariant 6 (observer invariance): profile=1 changes
// no simulated bit, and its only trace in the report is the two
// host perf.* lines appended after the deterministic groups.
TEST(StatsReport, ProfileAddsOnlyTheHostPerfLines)
{
    SimResult plain = runSmall();
    SimResult profiled = runSmall(true);
    expectFieldsEqual(profiled, plain);

    std::vector<std::string> want = reportLines(plain);
    std::vector<std::string> got = reportLines(profiled);
    const size_t n = want.size();
    ASSERT_EQ(got.size(), n + 2);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], want[i]) << "line " << i;
    EXPECT_EQ(got[n].rfind("perf.sim_wall_seconds ", 0), 0u) << got[n];
    EXPECT_EQ(got[n + 1].rfind("perf.minsts_per_sec ", 0), 0u)
        << got[n + 1];
}

/** The report lines of @p r that start with @p prefix. */
std::vector<std::string>
linesWithPrefix(const SimResult &r, const std::string &prefix)
{
    std::vector<std::string> out;
    for (const std::string &line : reportLines(r))
        if (line.rfind(prefix, 0) == 0)
            out.push_back(line);
    return out;
}

// No golden runs a chip-attached config through writeStatsReport,
// so the per-run variation group's bytes are pinned here.
TEST(StatsReport, ChipRunReportsTheVariationGroup)
{
    variation::VariationParams params;
    params.sigma = 0.10;
    params.systematicSigma = 0.03;
    variation::VariationModel model(params);

    Simulator s;
    SimConfig cfg;
    cfg.instructions = 5000;
    cfg.warmupInstructions = 1000;
    cfg.vcc = 600;
    cfg.mode = mechanism::IrawMode::ForcedOn;
    cfg.chip = std::make_shared<const variation::ChipSample>(
        variation::ChipSample::sample(
            model, 7, 0,
            variation::ChipGeometry::from(cfg.core, cfg.mem)));

    const std::vector<std::string> want = {
        "variation.chip_index                                          "
        "0  # Monte Carlo chip instance",
        "variation.worst_n                                             "
        "1  # worst per-line stabilization cycles applied",
        "variation.nominal_n                                           "
        "1  # the unvaried machine's uniform N here",
        "variation.sigma                                             "
        "0.1  # per-line lognormal sigma at nominal Vcc",
        "variation.max_multiplier                                "
        "1.78827  # worst bitcell-delay multiplier at this Vcc",
    };
    EXPECT_EQ(linesWithPrefix(s.run(cfg), "variation."), want);
}

// A fractional supply voltage prints in full, not truncated to whole
// millivolts.
TEST(StatsReport, FractionalVccPrintsInFull)
{
    Simulator s;
    SimConfig cfg;
    cfg.instructions = 2000;
    cfg.warmupInstructions = 1000;
    cfg.vcc = 537.5;
    const std::vector<std::string> want = {
        "config.vcc_mV                                          "
        "537.5  # supply voltage"};
    EXPECT_EQ(linesWithPrefix(s.run(cfg), "config.vcc_mV "), want);
}

} // namespace
} // namespace sim
} // namespace iraw
