/**
 * @file
 * Declarative scenario manifests.
 *
 * This is the layer that makes every Scenario *data*. One table,
 * file-local to manifest.cc, lists the Scenario's scalar fields; each
 * field's dotted path is its own member path ("hardware.core.
 * windowSize" is s.hardware.core.windowSize), with a JSON getter and
 * a validating setter. The same table serves four surfaces, so they
 * cannot drift:
 *
 *  - `dvi-run --emit-manifest NAME` writes any registered campaign
 *    as an editable JSON manifest;
 *  - `dvi-run --manifest FILE` runs a user-authored manifest without
 *    recompiling anything (the SimpleScalar external-config
 *    separation, done as a first-class API);
 *  - `dvi-run --set path=value` overrides any field on any scenario
 *    source (setScenarioField);
 *  - campaign reports embed each job's fully resolved scenario, so a
 *    report is itself a loadable, re-runnable manifest.
 *
 * Scenario JSON is *sparse*: a scenario object lists only the fields
 * that differ from its baseline (a default Scenario with the
 * object's own `preset` applied), so absent paths mean "the
 * default" and small manifests stay complete. Fields apply in
 * document order; `preset` expands into the binary and hardware DVI
 * axes when set, so put it before any field it would overwrite —
 * emitted manifests already do.
 *
 * All loading is soft-error: malformed documents return a diagnostic
 * naming the offending dotted path (never an abort), so CLIs can
 * attach the file name and unit tests can assert on messages. A
 * manifest expands to at most maxManifestJobs jobs.
 */

#ifndef DVI_SIM_MANIFEST_HH
#define DVI_SIM_MANIFEST_HH

#include <cstddef>
#include <string>
#include <vector>

#include "base/json.hh"
#include "sim/scenario.hh"

namespace dvi
{
namespace sim
{

// -------------------------------------------- scenario <-> JSON

/** Every field, fully expanded, nested by dotted path. */
json::Value scenarioToJson(const Scenario &s);

/** Sparse form: `preset` plus the fields that differ from a default
 * scenario with that preset applied (see the file comment). This is
 * what manifests and report provenance embed. */
json::Value scenarioToJsonDiff(const Scenario &s);

/** Apply a scenario object over `s` in document order. Returns ""
 * or a "path: reason" diagnostic. */
std::string scenarioFromJson(const json::Value &obj, Scenario &s);

/**
 * Apply one `--set path=value` override: `text` is parsed as the
 * field's type (an unsigned integer, true/false/1/0, or a token).
 * `preset` expands like applyPreset. Returns "" or a "path: reason"
 * diagnostic.
 */
std::string setScenarioField(Scenario &s, const std::string &path,
                             const std::string &text);

// -------------------------------------------- campaign manifests

/** Most jobs one manifest may expand to; larger documents fail
 * softly before anything is copied. */
constexpr std::size_t maxManifestJobs = 100000;

/** A named, fully expanded list of scenarios — the manifest payload
 * (driver::Campaign adopts it verbatim). */
struct CampaignManifest
{
    std::string name;
    std::vector<Scenario> scenarios;

    /** Run with per-job wall-clock profiling by default (recorded by
     * --emit-manifest from the registered scenario). */
    bool profile = false;
};

/** Serialize as {"campaign", "profile"?, "jobs": [sparse scenario
 * objects]}; ends with a newline. */
std::string manifestToJson(const CampaignManifest &m);

/**
 * Parse a manifest from JSON text. Three job sources are accepted:
 *
 *  - "jobs": an array of sparse scenario objects, each applied over
 *    a copy of the "defaults" scenario (itself optional);
 *  - "axes": a declarative grid — an array of {"path", "values",
 *    "label"?} axes expanded as a cartesian product over the
 *    defaults, first axis outermost (ScenarioGrid order); axes with
 *    "label": true contribute their value to the row label,
 *    "-"-joined;
 *  - "results": a campaign report (each entry's "scenario" object is
 *    loaded), so any report re-runs as a manifest.
 *
 * Exactly one source may be present; with none, the manifest is the
 * single defaults scenario. A source that would expand past
 * maxManifestJobs is rejected. Returns "" on success or a diagnostic
 * naming the offending dotted path / entry index.
 */
std::string manifestFromJson(const std::string &text,
                             CampaignManifest &out);

} // namespace sim
} // namespace dvi

#endif // DVI_SIM_MANIFEST_HH
