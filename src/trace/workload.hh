/**
 * @file
 * Workload profiles for the synthetic trace generator.
 *
 * The paper evaluates 531 traces drawn from SPEC2006, SPEC2000,
 * kernels, multimedia, office, server and workstation programs.  Those
 * traces are proprietary; we substitute parameterized statistical
 * profiles per category.  Each profile fixes an instruction mix, a
 * register dependency-distance distribution, branch behaviour, memory
 * locality and call/return density.  ROADMAP.md item 2 measures how
 * closely the generated traces follow their profiles.
 */

#ifndef IRAW_TRACE_WORKLOAD_HH
#define IRAW_TRACE_WORKLOAD_HH

#include <string>
#include <vector>

namespace iraw {
namespace trace {

/** Statistical description of one workload category. */
struct WorkloadProfile
{
    std::string name = "generic";

    // Instruction mix (weights; normalized by the generator).
    double wIntAlu = 45.0;
    double wIntMul = 1.5;
    double wIntDiv = 0.2;
    double wFpAdd = 0.0;
    double wFpMul = 0.0;
    double wFpDiv = 0.0;
    double wLoad = 22.0;
    double wStore = 11.0;
    double wBranch = 18.0;
    double wCall = 1.2; //!< calls; a matching Return is emitted per call

    /**
     * Geometric parameter for producer-consumer register distance:
     * distance = 1 + Geometric(p).  Larger p => tighter dependency
     * chains => more IRAW-conflicting consumers.
     */
    double depDistGeomP = 0.35;
    /** Probability an op has a second source register. */
    double secondSrcProb = 0.45;
    /** Probability a source is drawn fresh (no tracked dependence). */
    double freshSrcProb = 0.08;

    // Branch behaviour.
    uint32_t staticBranchSites = 512; //!< distinct branch PCs
    /** Fraction of branch sites that are strongly biased (>= 95/5). */
    double stronglyBiasedFraction = 0.85;
    /** Taken probability of weakly biased sites. */
    double weakBias = 0.68;

    // Memory behaviour.
    uint32_t footprintLog2 = 20;   //!< data working set (bytes, log2)
    double streamingFraction = 0.6; //!< fraction of strided accesses
    /** Probability a load reads an address stored 1..4 stores ago
     *  (spill/reload-style store-to-load forwarding). */
    double storeForwardProb = 0.04;
    /**
     * Non-streaming accesses are drawn from a three-level locality
     * pyramid: a hot region (stack/top of heap), a warm region, and
     * the full footprint — real programs are heavily skewed, not
     * uniform over their working set.
     */
    double hotProb = 0.97;
    double warmProb = 0.028; //!< remaining 1 - hot - warm goes cold
    uint32_t hotBytesLog2 = 14;  //!< 16 KB hot region (fits DL0)
    uint32_t warmBytesLog2 = 15; //!< 32 KB warm region

    // Code behaviour.
    uint32_t staticCodeInsts = 16384; //!< static code size in micro-ops
    uint32_t minFunctionBody = 6;     //!< shortest function body
    uint32_t maxFunctionBody = 80;    //!< longest function body

    /** Structural sanity check; throws FatalError when inconsistent. */
    void validate() const;
};

/** All built-in profiles (one per paper workload category). */
const std::vector<WorkloadProfile> &builtinProfiles();

/** Look up a built-in profile by name; throws FatalError if unknown. */
const WorkloadProfile &profileByName(const std::string &name);

/** Names of all built-in profiles, in catalog order. */
std::vector<std::string> profileNames();

} // namespace trace
} // namespace iraw

#endif // IRAW_TRACE_WORKLOAD_HH
