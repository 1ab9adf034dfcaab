#include "trace/generator.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace iraw {
namespace trace {

using isa::MicroOp;
using isa::OpClass;
using isa::RegId;

SyntheticTraceGenerator::SyntheticTraceGenerator(
    const WorkloadProfile &profile, uint64_t seed)
    : _profile(profile)
{
    _profile.validate();
    _rng.reseed(seed, 0x1234abcd0000ULL ^ seed);
    buildStaticProgram();
}

void
SyntheticTraceGenerator::buildStaticProgram()
{
    const uint32_t n = _profile.staticCodeInsts;
    _slots.assign(n, StaticSlot{});

    // Draw op classes from the instruction mix.  Returns are not in
    // the mix: they are planted at function ends below.
    DiscreteSampler mix({
        _profile.wIntAlu, _profile.wIntMul, _profile.wIntDiv,
        _profile.wFpAdd, _profile.wFpMul, _profile.wFpDiv,
        _profile.wLoad, _profile.wStore, _profile.wBranch,
        _profile.wCall,
    });
    static const OpClass classes[] = {
        OpClass::IntAlu, OpClass::IntMul, OpClass::IntDiv,
        OpClass::FpAdd, OpClass::FpMul, OpClass::FpDiv,
        OpClass::Load, OpClass::Store, OpClass::Branch,
        OpClass::Call,
    };

    const uint64_t footprint = 1ULL << _profile.footprintLog2;

    // Shared streaming arrays (16-32 KB each): the program's "data
    // structures".  Their aggregate footprint fits UL1 so steady-state
    // streaming misses stay in the second level, as in real codes.
    _streams.clear();
    for (uint32_t a = 0; a < kNumStreamArrays; ++a) {
        StreamArray arr;
        arr.size = 1u << 12; // 4 KB
        arr.stride = _rng.chance(0.7) ? 4 : 8;
        uint64_t maxBase =
            footprint > arr.size ? footprint - arr.size : 0;
        arr.base = kDataBase +
                   alignDown(static_cast<uint64_t>(_rng.range(
                                 0, static_cast<int64_t>(maxBase))),
                             64);
        arr.pos = 0;
        _streams.push_back(arr);
    }

    for (uint32_t i = 0; i < n; ++i) {
        StaticSlot &slot = _slots[i];
        slot.cls = classes[mix.sample(_rng)];

        if (slot.cls == OpClass::Branch) {
            // Real-code branch statistics: backward branches are
            // loop back-edges (mostly taken); forward branches guard
            // code that usually executes (mostly not taken).  A
            // strongly-taken forward branch would skip its span and
            // inflate the dynamic branch share far past the static
            // mix.
            bool strong =
                _rng.chance(_profile.stronglyBiasedFraction);
            bool backward = _rng.chance(0.45);
            if (backward && i > 16) {
                // Loop bodies of 16-256 micro-ops.
                uint32_t span = static_cast<uint32_t>(
                    std::min<uint64_t>(i, 16 + _rng.below(240)));
                slot.takenTarget = i - span;
                slot.biasTaken =
                    strong ? 0.96 : _profile.weakBias;
            } else {
                uint32_t span = 2 + _rng.below(24);
                slot.takenTarget = (i + span) % n;
                slot.biasTaken =
                    strong ? 0.04 : 1.0 - _profile.weakBias;
            }
        } else if (slot.cls == OpClass::Call) {
            // Callee entries are planted later; remember a raw draw.
            slot.calleeEntry = _rng.below(n);
        } else if (isMemOp(slot.cls)) {
            slot.streaming = _rng.chance(_profile.streamingFraction);
            slot.accessSize = isFpOp(slot.cls) ? 8
                              : (_rng.chance(0.25) ? 8 : 4);
            if (slot.streaming)
                slot.streamArray = _rng.below(kNumStreamArrays);
        }
    }

    // Plant function entries and their terminating Return slots.  A
    // call site jumps to entry e; the walker then proceeds
    // sequentially until it hits the Return slot planted at
    // e + bodyLen.  Bodies respect the profile's minimum length (the
    // paper relies on no call/return pair executing within 1-2 cycles
    // for RSB safety, Sec. 4.5).
    uint32_t numFunctions =
        std::max(4u, n / 512u);
    std::vector<uint32_t> entries;
    entries.reserve(numFunctions);
    for (uint32_t f = 0; f < numFunctions; ++f) {
        uint32_t body = _profile.minFunctionBody +
                        _rng.below(_profile.maxFunctionBody -
                                   _profile.minFunctionBody + 1);
        uint32_t entry = _rng.below(n > body + 2 ? n - body - 2 : 1);
        uint32_t retPos = entry + body;
        StaticSlot &ret = _slots[retPos];
        ret = StaticSlot{};
        ret.cls = OpClass::Return;
        // Function bodies must not contain control flow that escapes
        // before the Return; neutralize branches/calls inside.
        for (uint32_t j = entry; j < retPos; ++j) {
            if (_slots[j].cls == OpClass::Branch ||
                _slots[j].cls == OpClass::Call ||
                _slots[j].cls == OpClass::Return) {
                _slots[j].cls = OpClass::IntAlu;
            }
        }
        entries.push_back(entry);
    }

    // Rewrite call sites to target real function entries; call slots
    // that ended up inside a function body were neutralized above.
    for (auto &slot : _slots) {
        if (slot.cls == OpClass::Call)
            slot.calleeEntry =
                entries[slot.calleeEntry % entries.size()];
    }

    // A body ends at the first Return at or after its entry, which is
    // not always its own: a later function may have neutralized it.
    // The redirect pass below leaves every class alone, so each end
    // is found once (n when no Return follows the entry).
    std::vector<uint32_t> ends;
    ends.reserve(entries.size());
    for (uint32_t entry : entries) {
        uint32_t j = entry;
        while (j < n && _slots[j].cls != OpClass::Return)
            ++j;
        ends.push_back(j);
    }

    // Branch targets must not jump into the middle of a function body
    // (the walker would then run into a Return with an empty stack;
    // handled gracefully, but we keep control flow mostly sane by
    // redirecting such targets to the slot after the Return).  A
    // redirected target is tested against the later bodies in entry
    // order, so a chain of overlapping bodies moves it repeatedly.
    for (auto &slot : _slots) {
        if (slot.cls != OpClass::Branch)
            continue;
        for (size_t e = 0; e < entries.size(); ++e) {
            if (slot.takenTarget >= entries[e] &&
                slot.takenTarget <= ends[e])
                slot.takenTarget = (ends[e] + 1) % n;
        }
    }
}

RegId
SyntheticTraceGenerator::pickSource(const RegHistory &recent, bool fp)
{
    const uint32_t bankBase = fp ? isa::kNumIntRegs : 0;
    const uint32_t bankSize =
        fp ? isa::kNumFpRegs : isa::kNumIntRegs;
    if (recent.empty() || _rng.chance(_profile.freshSrcProb)) {
        return static_cast<RegId>(bankBase + _rng.below(bankSize));
    }
    // Dependency distance: 1 + Geometric(p) micro-ops back.
    uint32_t d = 1 + _rng.geometric(_profile.depDistGeomP);
    return recent.recent(std::min(d, recent.size()));
}

RegId
SyntheticTraceGenerator::pickIntSource()
{
    return pickSource(_recentIntDst, false);
}

RegId
SyntheticTraceGenerator::pickFpSource()
{
    return pickSource(_recentFpDst, true);
}

uint64_t
SyntheticTraceGenerator::pickMemAddr(StaticSlot &slot)
{
    uint64_t addr = 0;
    if (slot.streaming) {
        StreamArray &arr = _streams[slot.streamArray];
        addr = arr.base + arr.pos;
        arr.pos += arr.stride;
        if (arr.pos >= arr.size)
            arr.pos = 0;
    } else {
        // Three-level locality pyramid: hot / warm / cold regions.
        double u = _rng.uniform();
        uint64_t region = 0;
        if (u < _profile.hotProb) {
            region = 1ULL << _profile.hotBytesLog2;
        } else if (u < _profile.hotProb + _profile.warmProb) {
            region = 1ULL << _profile.warmBytesLog2;
        } else {
            region = 1ULL << _profile.footprintLog2;
        }
        addr = kDataBase +
               static_cast<uint64_t>(
                   _rng.range(0, static_cast<int64_t>(region - 8)));
    }
    return alignDown(addr, slot.accessSize);
}

void
SyntheticTraceGenerator::emitAt(uint32_t pos, MicroOp &op)
{
    StaticSlot &slot = _slots[pos];
    op = MicroOp{};
    op.pc = kCodeBase + static_cast<uint64_t>(pos) * 4;
    // A Return reached by fall-through (no matching call on the
    // stack) executes as plain ALU work: real programs never execute
    // a ret that was not paired with a call, and unmatched returns
    // would flood the RSB with false mispredictions.
    op.opClass = (slot.cls == OpClass::Return && _callStack.empty())
                     ? OpClass::IntAlu
                     : slot.cls;

    auto nextIntReg = [this]() {
        RegId r = static_cast<RegId>(_nextIntDst % isa::kNumIntRegs);
        ++_nextIntDst;
        return r;
    };
    auto nextFpReg = [this]() {
        RegId r = static_cast<RegId>(isa::kFirstFpReg +
                                     _nextFpDst % isa::kNumFpRegs);
        ++_nextFpDst;
        return r;
    };

    switch (op.opClass) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv:
        op.src1 = pickIntSource();
        if (_rng.chance(_profile.secondSrcProb))
            op.src2 = pickIntSource();
        op.dst = nextIntReg();
        _recentIntDst.push(op.dst);
        break;

      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv:
        op.src1 = pickFpSource();
        if (_rng.chance(_profile.secondSrcProb))
            op.src2 = pickFpSource();
        op.dst = nextFpReg();
        _recentFpDst.push(op.dst);
        break;

      case OpClass::Load: {
        op.src1 = pickIntSource(); // address base register
        op.memSize = slot.accessSize;
        if (!_recentStoreAddrs.empty() &&
            _rng.chance(_profile.storeForwardProb)) {
            // Spill/reload: read an address stored very recently.
            const uint32_t d = 1 + _rng.below(_recentStoreAddrs.size());
            op.memAddr =
                alignDown(_recentStoreAddrs.recent(d), slot.accessSize);
        } else {
            op.memAddr = pickMemAddr(slot);
        }
        bool fpDest = isFpOp(slot.cls) ||
                      (_profile.wFpAdd + _profile.wFpMul > 0.0 &&
                       _rng.chance(0.3));
        if (fpDest) {
            op.dst = nextFpReg();
            _recentFpDst.push(op.dst);
        } else {
            op.dst = nextIntReg();
            _recentIntDst.push(op.dst);
        }
        break;
      }

      case OpClass::Store: {
        op.src1 = pickIntSource(); // address base register
        op.src2 = pickIntSource(); // data register
        op.memSize = slot.accessSize;
        op.memAddr = pickMemAddr(slot);
        _recentStoreAddrs.push(op.memAddr);
        break;
      }

      case OpClass::Branch: {
        op.src1 = pickIntSource(); // condition register
        op.taken = _rng.chance(slot.biasTaken);
        op.setTarget(kCodeBase +
                     static_cast<uint64_t>(slot.takenTarget) * 4);
        break;
      }

      case OpClass::Call: {
        op.taken = true;
        op.setTarget(kCodeBase +
                     static_cast<uint64_t>(slot.calleeEntry) * 4);
        break;
      }

      case OpClass::Return: {
        op.taken = true;
        // Target resolved by the walker (top of call stack).
        break;
      }

      case OpClass::Nop:
      default:
        break;
    }
}

void
SyntheticTraceGenerator::next(MicroOp &op)
{
    emitAt(_pos, op);

    // Advance the walker.
    const uint32_t fallThrough = _pos + 1 == _slots.size() ? 0 : _pos + 1;
    switch (op.opClass) {
      case OpClass::Branch:
        _pos = op.taken ? _slots[_pos].takenTarget : fallThrough;
        break;
      case OpClass::Call:
        if (_callStack.size() < kMaxCallDepth) {
            _callStack.push_back(fallThrough);
            _pos = _slots[_pos].calleeEntry;
        } else {
            // Deep recursion in the synthetic CFG: treat as a plain
            // jump without pushing, keeping the stack bounded.
            _pos = _slots[_pos].calleeEntry;
        }
        break;
      case OpClass::Return:
        if (!_callStack.empty()) {
            _pos = _callStack.back();
            _callStack.pop_back();
        } else {
            // Return reached by fall-through without a matching call
            // (synthetic CFG artifact): continue sequentially.
            _pos = fallThrough;
        }
        op.setTarget(kCodeBase + static_cast<uint64_t>(_pos) * 4);
        break;
      default:
        _pos = fallThrough;
        break;
    }
}

} // namespace trace
} // namespace iraw
