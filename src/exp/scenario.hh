#pragma once

/**
 * @file
 * The declarative scenario model behind experiment campaigns.
 *
 * A campaign file (schema "wwtcmp.campaign/1") describes a set of
 * runs as data instead of code: which app, which machine, which
 * MachineConfig overrides, app parameters, a repeat count, and an
 * optional expected-shape profile (tolerance bands over single-run
 * metrics — the golden-shape gate generalized to arbitrary scenario
 * sets). Any sweepable field may be a JSON array; loadCampaign()
 * expands the cartesian product into concrete scenarios with
 * deterministic, filesystem-safe ids:
 *
 *   {"id": "em3d", "app": "em3d", "machine": ["mp", "sm"],
 *    "cache_kb": [256, 1024]}
 *     -> em3d-mp.cache_kb=256, em3d-mp.cache_kb=1024,
 *        em3d-sm.cache_kb=256, em3d-sm.cache_kb=1024
 *
 * Campaign files are layered before expansion: top-level "defaults",
 * then the selected entry of top-level "profiles", then the scenario
 * itself, then the scenario's own "profiles" entry — so one file can
 * carry both the paper-scale runs and the smoke-scale CI variants.
 * Parsing is strict: unknown keys, malformed values, duplicate ids
 * and unknown app/machine/tree names are errors, not surprises at
 * hour three of a batch run.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/registry.hh"

namespace wwt::exp
{

/** Largest accepted per-attempt timeout, from a campaign file's
 *  `timeout_sec` or the `--timeout` flag: one day. */
inline constexpr std::uint64_t kMaxTimeoutSec = 86400;

/** A tolerance band over one single-run metric (see shapeMetric()). */
struct ShapeBand {
    std::string key;
    double lo = 0.0;
    double hi = 0.0;
};

/** One concrete run of a campaign (after sweep expansion). */
struct Scenario {
    std::string id; ///< unique within the campaign; filesystem-safe

    std::string app = "em3d";
    std::string machine = "mp"; ///< "mp" or "sm"

    // MachineConfig overrides.
    std::size_t procs = 32;
    std::size_t cacheKb = 256;
    std::uint64_t netGap = 0;
    bool localAlloc = false;
    std::string tree = "lop"; ///< MP collective tree
    bool fastHit = true; ///< host-side fast-hit filter (bit-identical)

    // App parameters (0 = app default).
    std::size_t size = 0;
    std::size_t iters = 0;

    // Runner policy.
    std::size_t repeat = 1;   ///< expanded into /rK instances when > 1
    double timeoutSec = 600;  ///< wall-clock budget per attempt
    int retries = 2;          ///< extra attempts after timeout/crash

    /** Expected-shape bands checked against the finished run. */
    std::vector<ShapeBand> shapes;

    Inject inject = Inject::None; ///< crash-isolation test hook

    /** The machine configuration this scenario runs under. */
    core::MachineConfig config() const;

    /** The LaunchSpec equivalent (registry-ready). */
    LaunchSpec launchSpec() const;

    /**
     * FNV-1a hash (16 hex digits) over every field that affects the
     * simulation result. Two scenarios with equal hashes produce
     * bit-identical reports; the result store uses it to verify that
     * a stored record still matches the campaign file on resume.
     */
    std::string configHash() const;

    /**
     * The (key, value) pairs behind configHash(), in hash order —
     * the run record stores these so `analyze --baseline` can
     * attribute per-category deltas to the config keys that actually
     * changed between two campaigns.
     */
    std::vector<std::pair<std::string, std::string>>
    configKeyValues() const;
};

/** A fully expanded campaign. */
struct Campaign {
    std::string name;
    std::string profile; ///< the profile the expansion used
    std::vector<Scenario> scenarios;

    /** Scenario lookup; nullptr when @p id is unknown. */
    const Scenario* find(const std::string& id) const;
};

/**
 * Load @p path and expand it under @p profile.
 * @throws std::runtime_error on unreadable/malformed input, unknown
 *         keys, duplicate scenario ids, or an unknown profile name
 *         (a profile is known if any "profiles" object mentions it,
 *         or it is the default profile "paper").
 */
Campaign loadCampaign(const std::string& path,
                      const std::string& profile);

/**
 * Compute the single-run shape metric @p key from @p rep. Supported
 * keys: "total_mcycles" (per-proc total / 1e6) and
 * "<category>_share" for every snake_case category name
 * (e.g. "computation_share", "shared_miss_share") — the category's
 * fraction of per-proc total cycles.
 * @throws std::runtime_error on an unknown key.
 */
double shapeMetric(const core::MachineReport& rep,
                   const std::string& key);

/**
 * Check @p s's bands against @p rep via audit::ShapeGate semantics.
 * @return the number of violations (0 == pass); verdict lines are
 *         appended to @p out.
 */
int checkShapes(const Scenario& s, const core::MachineReport& rep,
                std::string& out);

} // namespace wwt::exp
