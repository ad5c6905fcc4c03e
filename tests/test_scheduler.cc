/**
 * @file
 * Tests of the parallel scenario scheduler: runScenarios() runs each
 * selected scenario as one job on the worker team and must emit
 * byte-identical output at every RIF_THREADS budget, for selections
 * both smaller and larger than the team, keep the selection order on
 * the stream, and degrade cleanly on edge cases (empty selection, one
 * scenario).
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
render(const std::vector<const Scenario *> &selected)
{
    std::ostringstream os;
    const core::OptionSet no_overrides;
    core::runScenarios(selected, core::SinkFormat::Csv, os, 0.02,
                       no_overrides, {});
    return os.str();
}

TEST(Scheduler, OutputIsIdenticalAcrossJobsAndThreadBudgets)
{
    // Selections of 1, 4 and 12 scenario jobs against teams of 1, 2
    // and 8 threads: fewer jobs than threads leaves members free for
    // the scenarios' inner loops, more jobs than threads queues them.
    ThreadGuard guard;
    const auto cheap = cheapSelection();
    std::vector<const Scenario *> twelve;
    for (int r = 0; r < 3; ++r)
        twelve.insert(twelve.end(), cheap.begin(), cheap.end());

    for (const auto &selected :
         {std::vector<const Scenario *>{cheap.back()}, cheap, twelve}) {
        setGlobalThreadCount(1);
        const std::string reference = render(selected);
        ASSERT_FALSE(reference.empty());
        for (int threads : {2, 8}) {
            setGlobalThreadCount(threads);
            EXPECT_EQ(render(selected), reference)
                << "RIF_THREADS=" << threads << ", "
                << selected.size() << " scenarios";
        }
    }
}

TEST(Scheduler, KeepsSelectionOrderNotCompletionOrder)
{
    ThreadGuard guard;
    // Reversed selection must come out reversed, even with concurrent
    // workers finishing the cheap scenarios first.
    setGlobalThreadCount(4);
    auto selected = cheapSelection();
    std::vector<const Scenario *> reversed(selected.rbegin(),
                                           selected.rend());
    const std::string forward = render(selected);
    const std::string backward = render(reversed);
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
    setGlobalThreadCount(8);
    core::runScenarios({}, core::SinkFormat::Csv, os, 0.02, no_overrides,
                       {});
    EXPECT_EQ(os.str(), "");

    // One scenario on a team of eight runs as a one-index job: inline
    // on the caller, with the same bytes as on one thread.
    const Scenario *s =
        ScenarioRegistry::instance().find("table01_config");
    ASSERT_NE(s, nullptr);
    const std::string many = render({s});
    setGlobalThreadCount(1);
    EXPECT_EQ(render({s}), many);
}

} // namespace
} // namespace rif
