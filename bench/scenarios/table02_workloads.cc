/**
 * @file
 * Table II — key I/O characteristics of the eight evaluated traces:
 * the synthetic generators' realized read ratio and cold-read ratio
 * against the paper's reported values.
 */

#include "core/experiment.h"
#include "core/scenario.h"
#include "trace/trace.h"

namespace {

using namespace rif;
using namespace rif::trace;

void
run(core::ScenarioContext &ctx)
{
    RunScale rs;
    rs.requests = ctx.scaled(40000);
    ctx.opts.applyTo(rs);
    const std::uint64_t requests = rs.requests;

    Table t("Table II: read ratio and cold-read ratio per workload");
    t.setHeader({"workload", "read(paper)", "read(measured)",
                 "cold(paper)", "cold(measured)", "footprint(GiB)",
                 "avg_req(KiB)"});
    for (const auto &spec : paperWorkloads()) {
        SyntheticWorkload gen(spec, requests, 7);
        const std::uint64_t cold_start = gen.coldRegionStart();
        const auto c = characterize(gen, cold_start);
        t.addRow({spec.name, Table::num(spec.readRatio, 2),
                  Table::num(c.readRatio(), 2),
                  Table::num(spec.coldReadRatio, 2),
                  Table::num(c.coldReadRatio(), 2),
                  Table::num(static_cast<double>(spec.footprintPages) *
                                 16.0 / (1024.0 * 1024.0),
                             0),
                  Table::num(static_cast<double>(c.totalPages) * 16.0 /
                                 static_cast<double>(c.requests),
                             0)});
    }
    ctx.sink.table(t);
    ctx.sink.text("\nGenerators match Table II's read and cold-read "
                  "ratios by construction;\nfootprints and request sizes "
                  "are representative of cloud block storage.\n");
}

} // namespace

RIF_REGISTER_SCENARIO(table02_workloads,
                      "Workload characteristics",
                      "Table II",
                      run);
