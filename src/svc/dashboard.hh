#pragma once

/**
 * @file
 * The read-side dashboard generator of the campaign service.
 *
 * `wwtcmp_campaign serve` renders one or more campaign stores into a
 * directory of *static* documents — per-campaign HTML (cycle tables,
 * shape-gate status, host-phase profile, cache provenance), the
 * campaign-report/1 and wwtcmp.analysis/1 JSON documents, and a root
 * index with a perf-trajectory sparkline. The tree is a snapshot:
 * whatever publishes it (any static file host) never touches the
 * store, so it cannot corrupt anything.
 *
 * Every page is byte-deterministic for a deterministic store: no
 * timestamps, no environment, map-ordered iteration. Re-rendering an
 * unchanged store must produce an identical tree (CI diffs it).
 *
 * The LAMMPS-note rule (docs/campaigns.md): any number shown that
 * was *not* measured here must say where it came from. Cache-hit
 * rows are labelled with their source file and line, and host-time
 * columns for them are shown as "—", never as zeros that could read
 * as measurements.
 */

#include <ostream>
#include <string>
#include <vector>

namespace wwt::svc
{

struct DashboardOptions {
    std::vector<std::string> campaignDirs; ///< stores to render
    std::string outDir;                    ///< tree root (created)
    /** bench/BENCH_trajectory.json; empty or missing = no sparkline. */
    std::string trajectoryPath;
};

/**
 * Render the dashboard tree. @p log receives one line per document.
 * @return 0 on success, 1 when any campaign dir has no records or a
 *         document cannot be written.
 */
int buildDashboard(const DashboardOptions& opts, std::ostream& log);

} // namespace wwt::svc
