/**
 * @file
 * The benchmark's result check. Every op returns the simulated
 * results it produced as named values (cycles, traffic bytes,
 * compressed byte totals). An op passes when
 *  - each value equals the value the first op of the same kind
 *    produced earlier in the run (the simulator is deterministic, so
 *    any drift between repeats is a bug), and
 *  - for the pinned default seed, the op produces exactly the keys
 *    stored in expected.json for its kind, each with the stored
 *    value (a key the op no longer produces is a mismatch too).
 * Values are compared exactly: the simulator's counters and cycle
 * totals repeat bit for bit.
 */

#ifndef PERFBENCH_CHECK_HH
#define PERFBENCH_CHECK_HH

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Named simulated results of one op (key order is deterministic). */
using Results = std::map<std::string, double>;

/** Expected results of one workload, by op kind. */
using Expected = std::map<std::string, Results>;

/** The seed whose expected results are stored in expected.json. */
constexpr unsigned long long pinnedSeed = 1;

class ResultCheck
{
  public:
    /** Values every op is held to; empty = no stored expectation. */
    void setExpected(Expected expected) { expected_ = std::move(expected); }

    /**
     * Check one op of the given kind; returns one message per
     * mismatch (empty = pass). The first op of a kind becomes the
     * reference for the later ones even when it fails the expected
     * values, so a bad run fails every op rather than only the first.
     */
    std::vector<std::string> check(const std::string &kind,
                                   const Results &r);

  private:
    Expected expected_;
    std::map<std::string, Results> first_;
};

/**
 * Expected results of one workload from an expected.json file
 * ({"<workload>": {"<kind>": {"<key>": value, ...}, ...}, ...});
 * throws std::runtime_error on a missing or malformed file or
 * workload.
 */
Expected loadExpected(const std::string &path, const std::string &workload);

/**
 * Replace one workload's entry in an expected.json file (created
 * when missing), keeping the other workloads' entries.
 */
void storeExpected(const std::string &path, const std::string &workload,
                   const Expected &e);

} // namespace perfbench

#endif // PERFBENCH_CHECK_HH
