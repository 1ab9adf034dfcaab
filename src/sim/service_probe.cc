#include "sim/service_probe.hh"

#include <filesystem>
#include <memory>
#include <string>

#include <unistd.h>

#include "common/logging.hh"
#include "obs/event_tracer.hh"
#include "service/supervisor.hh"
#include "sim/runner.hh"

namespace iraw {
namespace sim {

namespace fs = std::filesystem;

ServiceOverheadResult
probeServiceOverhead(const Simulator &sim,
                     const std::vector<SimConfig> &configs,
                     size_t chunkSize, unsigned workers)
{
    ServiceOverheadResult result;
    result.workers = workers;

    RunnerConfig rcfg(workers, static_cast<unsigned>(
                                   chunkSize == 0 ? 1 : chunkSize));
    SweepRunner runner(sim, rcfg);

    // Warm pass: both timed variants replay from the trace store
    // instead of paying one-time materialization.
    runner.runConfigs(configs);

    double t0 = obs::monotonicSeconds();
    std::vector<SimResult> inprocess = runner.runConfigs(configs);
    result.inprocessSeconds = obs::monotonicSeconds() - t0;

    service::ServiceConfig scfg;
    scfg.workers = workers;
    scfg.spoolDir =
        "iraw-probe-spool-" + std::to_string(::getpid());
    service::ServiceSession session(scfg);

    t0 = obs::monotonicSeconds();
    std::vector<SimResult> sharded =
        service::runSharded(sim, session, configs, chunkSize);
    result.shardedSeconds = obs::monotonicSeconds() - t0;
    result.shards = session.stats().shardsTotal;

    panicIf(sharded.size() != inprocess.size(),
            "service probe: result count diverged");
    for (size_t i = 0; i < sharded.size(); ++i)
        panicIf(sharded[i].pipeline.cycles !=
                        inprocess[i].pipeline.cycles ||
                    sharded[i].pipeline.committedInsts !=
                        inprocess[i].pipeline.committedInsts,
                "service probe: sharded result diverged from "
                "in-process at index %zu (invariant 8)", i);

    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(scfg.spoolDir, ec))
        if (entry.is_regular_file(ec))
            result.spoolBytes += entry.file_size(ec);

    // Resume over the completed spools: the same manifest is
    // rebuilt, every shard is reused, and the wave reduces to spool
    // scanning and decoding — the cost a real resume= pays before
    // any new work starts.
    service::ServiceConfig resumeCfg = scfg;
    resumeCfg.resume = true;
    service::ServiceSession resumeSession(resumeCfg);
    t0 = obs::monotonicSeconds();
    std::vector<SimResult> resumed =
        service::runSharded(sim, resumeSession, configs, chunkSize);
    result.resumeScanSeconds = obs::monotonicSeconds() - t0;
    panicIf(resumeSession.stats().shardsReused != result.shards,
            "service probe: resume pass reran shards instead of "
            "reusing the finished spools");

    fs::remove_all(scfg.spoolDir, ec);
    return result;
}

} // namespace sim
} // namespace iraw
