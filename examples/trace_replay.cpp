/**
 * @file
 * Replay a block I/O trace file against any SSD configuration.
 *
 *   ./trace_replay <trace.csv> [policy] [pe_cycles]
 *
 * Trace format (one request per line): R|W,<first_page>,<pages>
 * Lines beginning with '#' are ignored. When no file is given, a small
 * demonstration trace is generated and replayed.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "core/rif.h"

namespace {

rif::ssd::PolicyKind
parsePolicy(const std::string &name)
{
    using rif::ssd::PolicyKind;
    for (PolicyKind p :
         {PolicyKind::Zero, PolicyKind::IdealOffChip, PolicyKind::Sentinel,
          PolicyKind::SwiftRead, PolicyKind::SwiftReadPlus,
          PolicyKind::RpController, PolicyKind::Rif}) {
        if (name == rif::ssd::policyName(p))
            return p;
    }
    std::cerr << "unknown policy '" << name << "', using RiFSSD\n";
    return PolicyKind::Rif;
}

std::string
writeDemoTrace()
{
    const std::string path = "demo_trace.csv";
    std::ofstream out(path);
    out << "# demo: sequential cold scan + hot random writes\n";
    rif::Rng rng(11);
    std::uint64_t cursor = 40000;
    for (int i = 0; i < 3000; ++i) {
        if (i % 5 == 0) {
            out << "W," << rng.below(30000) << ",2\n";
        } else {
            out << "R," << cursor << ",8\n";
            cursor = (cursor + 8) % 90000;
            if (cursor < 40000)
                cursor += 40000;
        }
    }
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace rif;

    std::string path;
    if (argc > 1) {
        path = argv[1];
    } else {
        path = writeDemoTrace();
        std::cout << "no trace given; wrote and replaying " << path
                  << "\n";
    }
    const ssd::PolicyKind policy =
        argc > 2 ? parsePolicy(argv[2]) : ssd::PolicyKind::Rif;
    const double pe = argc > 3 ? std::stod(argv[3]) : 1000.0;

    trace::StreamTrace source(path, trace::TraceFormat::Csv);
    std::cout << "trace footprint: " << source.footprintPages()
              << " pages ("
              << source.footprintPages() * 16.0 / (1024.0 * 1024.0)
              << " GiB)\n";

    Experiment e;
    e.withPolicy(policy).withPeCycles(pe);
    const RunResult r = e.run(source, path);

    const auto &st = r.stats;
    Table t("replay results: " + path + " under " +
            ssd::policyName(policy));
    t.setHeader({"metric", "value"});
    t.addRow({"requests", Table::num(st.hostRequests)});
    t.addRow({"I/O bandwidth", Table::num(st.ioBandwidthMBps(), 0) +
                                   " MB/s"});
    t.addRow({"makespan", Table::num(ticksToMs(st.makespan), 1) + " ms"});
    t.addRow({"page reads", Table::num(st.pageReads)});
    t.addRow({"retried reads", Table::num(st.retriedReads)});
    t.addRow({"uncorrectable transfers", Table::num(st.uncorTransfers)});
    t.addRow({"GC page moves", Table::num(st.gcPageMoves)});
    t.addRow({"read p99 (us)",
              Table::num(st.readLatencyUs.percentile(99.0), 0)});
    t.addRow({"write p99 (us)",
              Table::num(st.writeLatencyUs.percentile(99.0), 0)});
    t.print(std::cout);
    return 0;
}
