#include "exp/scenario.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "audit/shapes.hh"

namespace wwt::exp
{

namespace
{

using audit::JsonValue;

[[noreturn]] void
fail(const std::string& what)
{
    throw std::runtime_error("campaign: " + what);
}

/** snake_case form of a category name ("Local Misses" ->
 *  "local_misses"); used as JSON keys and shape-metric names. */
std::string
snakeCategory(stats::Category c)
{
    std::string out;
    for (char ch : std::string(stats::categoryName(c))) {
        if (ch == ' ' || ch == '-')
            out += '_';
        else
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
    }
    return out;
}

// ----------------------------------------------------------------
// Field model: scenario keys, layered merging, sweep expansion.
// ----------------------------------------------------------------

/** The merged (pre-expansion) value set of one scenario entry. */
struct Draft {
    /** Key -> JSON value, last layer wins. Values of sweepable keys
     *  may be arrays at this point. */
    std::vector<std::pair<std::string, const JsonValue*>> fields;

    const JsonValue*
    find(const std::string& key) const
    {
        for (const auto& [k, v] : fields) {
            if (k == key)
                return v;
        }
        return nullptr;
    }

    void
    set(const std::string& key, const JsonValue* v)
    {
        for (auto& [k, old] : fields) {
            if (k == key) {
                old = v;
                return;
            }
        }
        fields.emplace_back(key, v);
    }
};

/** Sweepable keys, in deterministic expansion order. */
const char* const kSweepable[] = {
    "app",  "machine",  "procs", "cache_kb", "net_gap", "local_alloc",
    "tree", "fast_hit", "size",  "iters",
};

bool
isSweepable(const std::string& key)
{
    for (const char* k : kSweepable) {
        if (key == k)
            return true;
    }
    return false;
}

bool
isKnownKey(const std::string& key)
{
    static const char* const kOther[] = {
        "id",      "repeat", "timeout_sec", "retries",
        "shapes",  "inject", "profiles",    "comment",
    };
    if (isSweepable(key))
        return true;
    for (const char* k : kOther) {
        if (key == k)
            return true;
    }
    return false;
}

/** Merge @p obj's members into @p d ("profiles"/"comment" excluded,
 *  key names validated). */
void
applyLayer(Draft& d, const JsonValue& obj, const std::string& where)
{
    if (obj.kind != JsonValue::Kind::Object)
        fail(where + " must be an object");
    for (const auto& [key, value] : obj.object) {
        if (!isKnownKey(key))
            fail(where + ": unknown key \"" + key + "\"");
        if (key == "profiles" || key == "comment")
            continue;
        d.set(key, &value);
    }
}

std::uint64_t
requireUint(const JsonValue& v, const std::string& key,
            std::uint64_t min, std::uint64_t max)
{
    if (v.kind != JsonValue::Kind::Number)
        fail("\"" + key + "\" must be a number");
    double n = v.number;
    if (n < 0 || n != static_cast<double>(static_cast<std::uint64_t>(n)))
        fail("\"" + key + "\" must be a non-negative integer");
    auto u = static_cast<std::uint64_t>(n);
    if (u < min || u > max) {
        fail("\"" + key + "\" must be between " + std::to_string(min) +
             " and " + std::to_string(max) + ", got " +
             std::to_string(u));
    }
    return u;
}

std::string
requireString(const JsonValue& v, const std::string& key)
{
    if (v.kind != JsonValue::Kind::String)
        fail("\"" + key + "\" must be a string");
    return v.string;
}

bool
requireBool(const JsonValue& v, const std::string& key)
{
    if (v.kind != JsonValue::Kind::Bool)
        fail("\"" + key + "\" must be true or false");
    return v.boolean;
}

/** Filesystem-safe rendering of a sweep value for id suffixes. */
std::string
suffixValue(const JsonValue& v)
{
    switch (v.kind) {
      case JsonValue::Kind::String: return v.string;
      case JsonValue::Kind::Bool: return v.boolean ? "true" : "false";
      case JsonValue::Kind::Number: {
          char buf[32];
          if (v.number ==
              static_cast<double>(static_cast<std::int64_t>(v.number))) {
              std::snprintf(buf, sizeof(buf), "%lld",
                            static_cast<long long>(v.number));
          } else {
              std::snprintf(buf, sizeof(buf), "%g", v.number);
          }
          return buf;
      }
      default: fail("sweep values must be scalars");
    }
}

/** One concrete (key, scalar value) assignment after expansion. */
struct Binding {
    std::string key;
    const JsonValue* value;
    bool swept; ///< came from an array (contributes an id suffix)
};

void
buildScenario(Scenario& s, const std::vector<Binding>& bindings,
              const Draft& d, const std::string& explicit_id)
{
    // Base id: the explicit one, else the app name.
    std::string app = "em3d";
    for (const Binding& b : bindings) {
        if (b.key == "app")
            app = requireString(*b.value, "app");
    }
    std::string id = explicit_id.empty() ? app : explicit_id;

    for (const Binding& b : bindings) {
        const JsonValue& v = *b.value;
        if (b.key == "app") {
            s.app = requireString(v, "app");
            if (!findApp(s.app))
                fail("unknown app \"" + s.app + "\" (expected one of " +
                     appNames() + ")");
            if (b.swept && !explicit_id.empty())
                id += "-" + suffixValue(v);
        } else if (b.key == "machine") {
            s.machine = requireString(v, "machine");
            if (s.machine != "mp" && s.machine != "sm")
                fail("unknown machine \"" + s.machine +
                     "\" (expected mp or sm)");
            if (b.swept)
                id += "-" + suffixValue(v);
        } else if (b.key == "tree") {
            s.tree = requireString(v, "tree");
            try {
                parseTree(s.tree); // validation only
            } catch (const std::invalid_argument& e) {
                fail(e.what());
            }
            if (b.swept)
                id += ".tree=" + suffixValue(v);
        } else if (b.key == "local_alloc") {
            s.localAlloc = requireBool(v, "local_alloc");
            if (b.swept)
                id += ".local_alloc=" + suffixValue(v);
        } else if (b.key == "fast_hit") {
            s.fastHit = requireBool(v, "fast_hit");
            if (b.swept)
                id += ".fast_hit=" + suffixValue(v);
        } else {
            std::uint64_t u = 0;
            if (b.key == "procs")
                s.procs = u = requireUint(v, "procs", 1, 4096);
            else if (b.key == "cache_kb")
                s.cacheKb = u = requireUint(v, "cache_kb", 1, 1u << 20);
            else if (b.key == "net_gap")
                s.netGap = u = requireUint(v, "net_gap", 0, 1u << 20);
            else if (b.key == "size")
                s.size = u = requireUint(v, "size", 0, 1u << 30);
            else if (b.key == "iters")
                s.iters = u = requireUint(v, "iters", 0, 1u << 30);
            else
                fail("unhandled sweepable key \"" + b.key + "\"");
            if (b.swept)
                id += "." + b.key + "=" + suffixValue(v);
        }
    }

    // Non-sweepable policy fields.
    if (const JsonValue* v = d.find("repeat"))
        s.repeat = requireUint(*v, "repeat", 1, 1000);
    if (const JsonValue* v = d.find("timeout_sec")) {
        if (v->kind != JsonValue::Kind::Number || v->number <= 0)
            fail("\"timeout_sec\" must be a positive number");
        if (v->number > static_cast<double>(kMaxTimeoutSec)) {
            char got[32];
            std::snprintf(got, sizeof got, "%g", v->number);
            fail("\"timeout_sec\" must be at most " +
                 std::to_string(kMaxTimeoutSec) + " (one day), got " +
                 got);
        }
        s.timeoutSec = v->number;
    }
    if (const JsonValue* v = d.find("retries")) {
        s.retries =
            static_cast<int>(requireUint(*v, "retries", 0, 100));
    }
    if (const JsonValue* v = d.find("inject")) {
        std::string name = requireString(*v, "inject");
        if (name == "none")
            s.inject = Inject::None;
        else if (name == "audit_error")
            s.inject = Inject::AuditError;
        else if (name == "abort")
            s.inject = Inject::Abort;
        else
            fail("unknown inject \"" + name +
                 "\" (expected none, audit_error or abort)");
    }
    if (const JsonValue* v = d.find("shapes")) {
        if (v->kind != JsonValue::Kind::Object)
            fail("\"shapes\" must be an object of {lo, hi} bands");
        for (const auto& [key, band] : v->object) {
            const JsonValue* lo = band.find("lo");
            const JsonValue* hi = band.find("hi");
            if (!lo || !hi || lo->kind != JsonValue::Kind::Number ||
                hi->kind != JsonValue::Kind::Number)
                fail("shape band \"" + key + "\" needs numeric lo/hi");
            s.shapes.push_back({key, lo->number, hi->number});
        }
    }

    s.id = id;
}

/**
 * Recursively expand sweepable array fields into the cartesian
 * product of their values (fields in kSweepable order; earlier
 * fields vary slowest).
 */
void
expand(const Draft& d, std::size_t field_idx,
       std::vector<Binding>& bindings, const std::string& explicit_id,
       std::vector<Scenario>& out)
{
    constexpr std::size_t n_fields =
        sizeof(kSweepable) / sizeof(kSweepable[0]);
    if (field_idx == n_fields) {
        Scenario base;
        buildScenario(base, bindings, d, explicit_id);
        for (std::size_t k = 0; k < base.repeat; ++k) {
            Scenario s = base;
            if (base.repeat > 1)
                s.id += ".r" + std::to_string(k);
            out.push_back(std::move(s));
        }
        return;
    }
    const std::string key = kSweepable[field_idx];
    const JsonValue* v = d.find(key);
    if (!v) {
        expand(d, field_idx + 1, bindings, explicit_id, out);
        return;
    }
    if (v->kind == JsonValue::Kind::Array) {
        if (v->array.empty())
            fail("sweep array \"" + key + "\" must not be empty");
        for (const JsonValue& elem : v->array) {
            bindings.push_back({key, &elem, /*swept=*/true});
            expand(d, field_idx + 1, bindings, explicit_id, out);
            bindings.pop_back();
        }
        return;
    }
    bindings.push_back({key, v, /*swept=*/false});
    expand(d, field_idx + 1, bindings, explicit_id, out);
    bindings.pop_back();
}

/** True if @p profiles (an object) mentions @p profile. */
bool
mentionsProfile(const JsonValue* profiles, const std::string& profile)
{
    return profiles && profiles->kind == JsonValue::Kind::Object &&
           profiles->find(profile) != nullptr;
}

} // namespace

core::MachineConfig
Scenario::config() const
{
    core::MachineConfig cfg = core::MachineConfig::cm5Like();
    cfg.nprocs = procs;
    cfg.cache.bytes = cacheKb * 1024;
    cfg.netGap = netGap;
    cfg.fastHit = fastHit;
    if (localAlloc)
        cfg.allocPolicy = mem::AllocPolicy::Local;
    return cfg;
}

LaunchSpec
Scenario::launchSpec() const
{
    LaunchSpec spec;
    spec.app = app;
    spec.machine = machine;
    spec.cfg = config();
    spec.tree = parseTree(tree);
    spec.req.size = size;
    spec.req.iters = iters;
    spec.inject = inject;
    return spec;
}

std::vector<std::pair<std::string, std::string>>
Scenario::configKeyValues() const
{
    return {
        {"app", app},
        {"machine", machine},
        {"procs", std::to_string(procs)},
        {"cache_kb", std::to_string(cacheKb)},
        {"net_gap", std::to_string(netGap)},
        {"local_alloc", localAlloc ? "1" : "0"},
        {"tree", tree},
        {"fast_hit", fastHit ? "1" : "0"},
        {"size", std::to_string(size)},
        {"iters", std::to_string(iters)},
    };
}

std::string
Scenario::configHash() const
{
    std::ostringstream os;
    bool first = true;
    for (const auto& [k, v] : configKeyValues()) {
        os << (first ? "" : ";") << k << "=" << v;
        first = false;
    }
    std::string text = os.str();
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    for (char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

const Scenario*
Campaign::find(const std::string& id) const
{
    for (const Scenario& s : scenarios) {
        if (s.id == id)
            return &s;
    }
    return nullptr;
}

Campaign
loadCampaign(const std::string& path, const std::string& profile)
{
    std::ifstream in(path);
    if (!in)
        fail("cannot open campaign file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonValue doc;
    try {
        doc = audit::parseJson(buf.str());
    } catch (const std::exception& e) {
        fail(path + ": " + e.what());
    }
    if (doc.kind != JsonValue::Kind::Object)
        fail(path + ": document must be an object");

    const JsonValue* schema = doc.find("schema");
    if (!schema || schema->kind != JsonValue::Kind::String ||
        schema->string != "wwtcmp.campaign/1")
        fail(path + ": schema must be \"wwtcmp.campaign/1\"");

    Campaign c;
    c.profile = profile;
    if (const JsonValue* name = doc.find("name"))
        c.name = requireString(*name, "name");
    else
        fail(path + ": missing \"name\"");

    const JsonValue* defaults = doc.find("defaults");
    const JsonValue* profiles = doc.find("profiles");
    const JsonValue* scenarios = doc.find("scenarios");
    if (!scenarios || scenarios->kind != JsonValue::Kind::Array)
        fail(path + ": \"scenarios\" must be an array");

    // The profile must exist somewhere, or be the default "paper":
    // a typo'd --profile must not silently run paper-scale defaults.
    bool known = profile == "paper" || mentionsProfile(profiles, profile);
    for (const JsonValue& entry : scenarios->array)
        known = known || mentionsProfile(entry.find("profiles"), profile);
    if (!known)
        fail(path + ": no scenario or campaign mentions profile \"" +
             profile + "\"");

    for (std::size_t i = 0; i < scenarios->array.size(); ++i) {
        const JsonValue& entry = scenarios->array[i];
        std::string where = "scenario #" + std::to_string(i);

        Draft d;
        if (defaults)
            applyLayer(d, *defaults, "\"defaults\"");
        if (mentionsProfile(profiles, profile))
            applyLayer(d, *profiles->find(profile),
                       "\"profiles\"." + profile);
        applyLayer(d, entry, where);
        if (mentionsProfile(entry.find("profiles"), profile))
            applyLayer(d, *entry.find("profiles")->find(profile),
                       where + ".profiles." + profile);

        std::string explicit_id;
        if (const JsonValue* id = d.find("id"))
            explicit_id = requireString(*id, "id");
        for (char ch : explicit_id) {
            if (!std::isalnum(static_cast<unsigned char>(ch)) &&
                ch != '-' && ch != '_')
                fail(where + ": id \"" + explicit_id +
                     "\" must be [A-Za-z0-9_-]");
        }

        std::vector<Binding> bindings;
        expand(d, 0, bindings, explicit_id, c.scenarios);
    }

    for (std::size_t i = 0; i < c.scenarios.size(); ++i) {
        for (std::size_t j = i + 1; j < c.scenarios.size(); ++j) {
            if (c.scenarios[i].id == c.scenarios[j].id)
                fail("duplicate scenario id \"" + c.scenarios[i].id +
                     "\" (give the entries distinct \"id\"s)");
        }
    }
    return c;
}

double
shapeMetric(const core::MachineReport& rep, const std::string& key)
{
    if (key == "total_mcycles")
        return rep.totalCycles() / 1e6;
    double total = rep.totalCycles();
    for (std::size_t i = 0; i < stats::kNumCategories; ++i) {
        auto cat = static_cast<stats::Category>(i);
        if (key == snakeCategory(cat) + "_share")
            return total > 0 ? rep.cycles(cat) / total : 0.0;
    }
    throw std::runtime_error(
        "unknown shape metric \"" + key +
        "\" (expected total_mcycles or <category>_share)");
}

int
checkShapes(const Scenario& s, const core::MachineReport& rep,
            std::string& out)
{
    if (s.shapes.empty())
        return 0;
    std::vector<std::pair<std::string, std::pair<double, double>>> bands;
    for (const ShapeBand& b : s.shapes)
        bands.emplace_back(b.key, std::make_pair(b.lo, b.hi));
    audit::ShapeGate gate =
        audit::ShapeGate::fromBands("scenario/" + s.id,
                                    std::move(bands));
    for (const ShapeBand& b : s.shapes)
        gate.record(b.key, shapeMetric(rep, b.key));
    std::ostringstream os;
    int violations = gate.finish(os);
    out += os.str();
    return violations;
}

} // namespace wwt::exp
