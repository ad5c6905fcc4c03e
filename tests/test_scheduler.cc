/**
 * @file
 * Tests of the parallel scenario scheduler: runScenarios() must emit
 * byte-identical output at every --jobs count and every RIF_THREADS
 * budget, keep the selection order on the stream, and degrade cleanly
 * on edge cases (empty selection, jobs > scenarios).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "core/artifact_cache.h"
#include "core/scenario.h"

namespace rif {
namespace {

using core::Scenario;
using core::ScenarioRegistry;

class ThreadGuard
{
  public:
    ~ThreadGuard()
    {
        setGlobalThreadCount(0);
        core::ArtifactCache::instance().clear();
    }
};

std::vector<const Scenario *>
cheapSelection()
{
    // Cheap but representative: a static table, a workload listing, a
    // timeline walk and one scenario with an inner parallel SSD sweep.
    std::vector<const Scenario *> selected;
    for (const char *name : {"table01_config", "table02_workloads",
                             "fig07_timeline", "ablation_tpred"}) {
        const Scenario *s = ScenarioRegistry::instance().find(name);
        EXPECT_NE(s, nullptr) << name;
        selected.push_back(s);
    }
    return selected;
}

std::string
render(const std::vector<const Scenario *> &selected, int jobs)
{
    std::ostringstream os;
    const core::OptionSet no_overrides;
    core::runScenarios(selected, core::SinkFormat::Csv, os, 0.02,
                       no_overrides, jobs, {});
    return os.str();
}

TEST(Scheduler, OutputIsIdenticalAcrossJobsAndThreadBudgets)
{
    ThreadGuard guard;
    const auto selected = cheapSelection();

    setGlobalThreadCount(1);
    const std::string reference = render(selected, 1);
    ASSERT_FALSE(reference.empty());

    for (int threads : {1, 2, 8}) {
        setGlobalThreadCount(threads);
        for (int jobs : {1, 2, 8}) {
            EXPECT_EQ(render(selected, jobs), reference)
                << "RIF_THREADS=" << threads << " --jobs " << jobs;
        }
    }
}

TEST(Scheduler, KeepsSelectionOrderNotCompletionOrder)
{
    ThreadGuard guard;
    // Reversed selection must come out reversed, even with concurrent
    // workers finishing the cheap scenarios first.
    auto selected = cheapSelection();
    std::vector<const Scenario *> reversed(selected.rbegin(),
                                           selected.rend());
    const std::string forward = render(selected, 4);
    const std::string backward = render(reversed, 4);
    EXPECT_NE(forward, backward);
    // Same bytes, different concatenation order: the banner of the
    // first selected scenario leads the stream.
    EXPECT_EQ(forward.substr(0, forward.find('\n')),
              "# Evaluated SSD configuration");
}

TEST(Scheduler, HandlesEdgeSelections)
{
    ThreadGuard guard;
    std::ostringstream os;
    const core::OptionSet no_overrides;
    core::runScenarios({}, core::SinkFormat::Csv, os, 0.02, no_overrides,
                       8, {});
    EXPECT_EQ(os.str(), "");

    const Scenario *s =
        ScenarioRegistry::instance().find("table01_config");
    ASSERT_NE(s, nullptr);
    // jobs far beyond the selection size clamps instead of spawning
    // idle workers.
    const std::string one = render({s}, 1);
    const std::string many = render({s}, 256);
    EXPECT_EQ(one, many);
}

} // namespace
} // namespace rif
