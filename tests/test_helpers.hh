/**
 * @file
 * Shared test fixtures: a programmable workload that loops over a
 * fixed micro-op vector, tiny builders for common scenarios, and a
 * checked by-name read of a run's registered statistics.
 */

#ifndef KILO_TESTS_TEST_HELPERS_HH
#define KILO_TESTS_TEST_HELPERS_HH

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/isa/micro_op.hh"
#include "src/sim/simulator.hh"
#include "src/wload/workload.hh"

namespace kilo::test
{

/**
 * Registered stat @p name of @p snap. Unlike Snapshot::value(), which
 * reads 0 for an absent name, an unregistered name fails the calling
 * test, so a misspelt name cannot make an assertion vacuous.
 */
inline double
stat(const stats::Snapshot &snap, std::string_view name)
{
    const stats::Snapshot::Entry *e = snap.find(name);
    if (!e) {
        ADD_FAILURE() << "stat '" << name << "' is not registered";
        return 0.0;
    }
    return e->value.asDouble();
}

/** Registered stat @p name of @p result's snapshot. */
inline double
stat(const sim::RunResult &result, std::string_view name)
{
    return stat(result.snapshot, name);
}

/** Endless loop over a fixed op sequence (PCs patched per element). */
class VectorWorkload : public wload::Workload
{
  public:
    explicit VectorWorkload(std::vector<isa::MicroOp> op_seq,
                            std::string name = "vector")
        : ops(std::move(op_seq)), label(std::move(name))
    {
        for (size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].pc == 0)
                ops[i].pc = 0x1000 + i * 4;
        }
    }

    isa::MicroOp
    next() override
    {
        isa::MicroOp op = ops[pos];
        pos = (pos + 1) % ops.size();
        return op;
    }

    const std::string &name() const override { return label; }
    bool isFp() const override { return false; }
    void reset() override { pos = 0; }

  private:
    std::vector<isa::MicroOp> ops;
    std::string label;
    size_t pos = 0;
};

/** A chain of dependent single-cycle ALU ops (serial, IPC -> 1). */
inline std::vector<isa::MicroOp>
serialChain()
{
    return {
        isa::makeAlu(1, 1, isa::NoReg),
    };
}

/** Independent ALU ops on distinct registers (IPC -> width). */
inline std::vector<isa::MicroOp>
independentOps(int n)
{
    std::vector<isa::MicroOp> ops;
    for (int i = 0; i < n; ++i)
        ops.push_back(isa::makeAlu(int16_t(1 + i), isa::NoReg,
                                   isa::NoReg));
    return ops;
}

} // namespace kilo::test

#endif // KILO_TESTS_TEST_HELPERS_HH
