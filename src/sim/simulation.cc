#include "sim/simulation.hh"

#include <cmath>

#include "common/logging.hh"
#include "sim/sim_engine.hh"
#include "trace/trace_io.hh"
#include "trace/workload.hh"
#include "variation/chip_sample.hh"

namespace iraw {
namespace sim {

double
branchAccuracy(uint64_t predictions, uint64_t mispredictions)
{
    if (predictions == 0)
        return 1.0;
    return 1.0 - static_cast<double>(mispredictions) / predictions;
}

double
missRatio(uint64_t accesses, uint64_t hits)
{
    if (accesses == 0)
        return 0.0;
    return static_cast<double>(accesses - hits) / accesses;
}

Simulator::Simulator()
{
    _logic = std::make_unique<circuit::LogicDelayModel>();
    _bitcell = std::make_unique<circuit::BitcellModel>(*_logic);
    _sram = std::make_unique<circuit::SramTimingModel>(*_logic,
                                                       *_bitcell);
    _cycleTime =
        std::make_unique<circuit::CycleTimeModel>(*_logic, *_sram);
}

uint32_t
Simulator::dramCyclesAt(double cycleTimeAu, double dramLatencyNs)
{
    fatalIf(cycleTimeAu <= 0.0, "dramCyclesAt: non-positive cycle");
    double cycleNs = cycleTimeAu * kNanosecondsPerAu;
    auto cycles =
        static_cast<uint32_t>(std::ceil(dramLatencyNs / cycleNs));
    return cycles == 0 ? 1 : cycles;
}

SimResult
Simulator::run(const SimConfig &cfg) const
{
    return SimEngine(*this, cfg).run();
}

std::unique_ptr<trace::TraceSource>
Simulator::makeTraceSource(const SimConfig &cfg) const
{
    if (!cfg.tracePath.empty()) {
        // A file shorter than the run budget would exhaust during
        // warmup and silently measure zero instructions; demand
        // enough records up front.
        const uint64_t budget =
            cfg.warmupInstructions + cfg.instructions;
        auto checkLength = [&](uint64_t records) {
            fatalIf(records < budget,
                    "trace '%s' has %llu records but "
                    "warmup+insts needs %llu; lower insts=/warmup= "
                    "or supply a longer trace",
                    cfg.tracePath.c_str(),
                    static_cast<unsigned long long>(records),
                    static_cast<unsigned long long>(budget));
        };
        if (_traceStore) {
            trace::TraceBufferPtr buffer =
                _traceStore->acquireFile(cfg.tracePath);
            checkLength(buffer->records());
            return std::make_unique<trace::ReplayTraceSource>(
                std::move(buffer));
        }
        auto reader =
            std::make_unique<trace::TraceReader>(cfg.tracePath);
        checkLength(reader->recordCount());
        return reader;
    }
    if (_traceStore) {
        uint64_t length = trace::replayLength(
            cfg.warmupInstructions + cfg.instructions,
            cfg.core.iqEntries);
        return std::make_unique<trace::ReplayTraceSource>(
            _traceStore->acquireSynthetic(
                trace::profileByName(cfg.workload), cfg.seed,
                length));
    }
    return std::make_unique<trace::SyntheticTraceGenerator>(
        trace::profileByName(cfg.workload), cfg.seed);
}

} // namespace sim
} // namespace iraw
