#include "sim/simulation.hh"

#include <cmath>

#include "common/logging.hh"
#include "sim/sim_engine.hh"
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
    : _traceStore(std::make_shared<trace::TraceStore>())
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

void
Simulator::setTraceStore(std::shared_ptr<trace::TraceStore> store)
{
    fatalIf(!store, "Simulator: null trace store");
    _traceStore = std::move(store);
}

trace::TraceBufferPtr
Simulator::traceFor(const SimConfig &cfg) const
{
    const uint64_t budget = cfg.warmupInstructions + cfg.instructions;
    if (!cfg.tracePath.empty()) {
        // A file shorter than the run budget would exhaust during
        // warmup and silently measure zero instructions; demand
        // enough records up front.
        trace::TraceBufferPtr buffer =
            _traceStore->acquireFile(cfg.tracePath);
        fatalIf(buffer->records() < budget,
                "trace '%s' has %llu records but "
                "warmup+insts needs %llu; lower insts=/warmup= "
                "or supply a longer trace",
                cfg.tracePath.c_str(),
                static_cast<unsigned long long>(buffer->records()),
                static_cast<unsigned long long>(budget));
        return buffer;
    }
    return _traceStore->acquireSynthetic(
        trace::profileByName(cfg.workload), cfg.seed,
        trace::replayLength(budget, cfg.core.iqEntries));
}

} // namespace sim
} // namespace iraw
