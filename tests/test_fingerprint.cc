/**
 * @file
 * Behaviour fingerprint: the contract every refactor keeps.
 *
 * Each cell runs one (workload, machine) combination at reduced scale
 * and hashes the full spp-result-v2 payload (resultToJson: every
 * counter, average, breakdown array and the energy total). Host-side
 * event counts are zeroed first, so a change that schedules the same
 * modelled behaviour with fewer or more events keeps its fingerprint.
 * The hashes are compared with tests/golden/fingerprint.txt, one
 * "label hash" line per cell. The replay cells first record every
 * program under the directory protocol into `<program>.spptrace` in a
 * directory the test owns, then replay those files under SP
 * prediction; a replay reproduces its live run, so each hashes like
 * its live twin.
 *
 * On a mismatch the test names every differing cell and writes the
 * fresh file next to the test binary. A change that is meant to alter
 * modelled behaviour regenerates the golden file by copying that
 * file over it and says so in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/sweep.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "service/result_codec.hh"
#include "trace/codec.hh"
#include "trace/replay.hh"
#include "workload/workload.hh"

using namespace spp;

namespace {

/** Workload iteration scale of every cell. */
constexpr double cellScale = 0.05;

/** Programs that also run in the variant and 64-core cells. */
const std::vector<std::string> variantWorkloads = {"ocean", "radiosity",
                                                   "streamcluster"};

struct Cell
{
    std::string label;
    std::string workload;
    Config config;
    /** Trace that drives the machine instead of the generator. */
    std::string replayFile = {};
};

/** The file recordTraces() writes @p workload's trace to. */
std::string
traceFile(const std::string &workload)
{
    return std::string(SPP_FINGERPRINT_TRACES) + "/" + workload +
        ".spptrace";
}

Config
machine(Protocol protocol, PredictorKind predictor)
{
    Config c;
    c.protocol = protocol;
    c.predictor = predictor;
    return c;
}

/** The 16-core protocol axis: label suffix and machine. */
std::vector<std::pair<std::string, Config>>
protocolAxis()
{
    return {
        {"directory", machine(Protocol::directory, PredictorKind::none)},
        {"predicted-sp", machine(Protocol::predicted, PredictorKind::sp)},
        {"broadcast", machine(Protocol::broadcast, PredictorKind::none)},
        {"multicast-sp", machine(Protocol::multicast, PredictorKind::sp)},
        {"multicast-addr",
         machine(Protocol::multicast, PredictorKind::addr)},
        {"multicast-inst",
         machine(Protocol::multicast, PredictorKind::inst)},
        {"multicast-uni", machine(Protocol::multicast, PredictorKind::uni)},
    };
}

std::vector<Cell>
fingerprintCells()
{
    std::vector<Cell> cells;
    for (const WorkloadSpec &spec : workloadRegistry())
        for (const auto &[name, cfg] : protocolAxis())
            cells.push_back({"16/" + spec.name + "/" + name, spec.name,
                             cfg});

    // Snooping ablations: plain MESI, banked DRAM, sharing filter.
    const std::vector<std::pair<std::string, Config>> snoopers = {
        {"broadcast", machine(Protocol::broadcast, PredictorKind::none)},
        {"multicast-sp", machine(Protocol::multicast, PredictorKind::sp)},
    };
    for (const std::string &wl : variantWorkloads) {
        for (const auto &[name, base] : snoopers) {
            Config mesi = base;
            mesi.enableFState = false;
            cells.push_back({"16/" + wl + "/" + name + "/no-fstate", wl,
                             mesi});
            Config dram = base;
            dram.enableDram = true;
            cells.push_back({"16/" + wl + "/" + name + "/dram", wl, dram});
            Config filter = base;
            filter.enableSharingFilter = true;
            cells.push_back({"16/" + wl + "/" + name + "/filter", wl,
                             filter});
        }
    }

    // 64 cores with the inexact directory sharer formats.
    const std::vector<std::pair<std::string, Config>> wide = {
        {"directory", machine(Protocol::directory, PredictorKind::none)},
        {"broadcast", machine(Protocol::broadcast, PredictorKind::none)},
        {"multicast-sp", machine(Protocol::multicast, PredictorKind::sp)},
    };
    const std::vector<std::pair<std::string, SharerFormat>> formats = {
        {"coarse", SharerFormat::coarse},
        {"limited", SharerFormat::limited},
    };
    for (const std::string &wl : variantWorkloads) {
        for (const auto &[fname, format] : formats) {
            for (const auto &[name, base] : wide) {
                Config c = base;
                c.numCores = 64;
                c.meshX = 8;
                c.meshY = 8;
                c.sharerFormat = format;
                cells.push_back(
                    {"64-" + fname + "/" + wl + "/" + name, wl, c});
            }
        }
    }

    // Figs. 12-13's directory-based group predictors.
    const std::vector<std::pair<std::string, PredictorKind>> groups = {
        {"predicted-addr", PredictorKind::addr},
        {"predicted-inst", PredictorKind::inst},
        {"predicted-uni", PredictorKind::uni},
    };
    for (const WorkloadSpec &spec : workloadRegistry())
        for (const auto &[name, kind] : groups)
            cells.push_back({"16/" + spec.name + "/" + name, spec.name,
                             machine(Protocol::predicted, kind)});

    // The knobs the ablation drivers set, one variant per cell.
    const Config dir = machine(Protocol::directory, PredictorKind::none);
    const Config sp = machine(Protocol::predicted, PredictorKind::sp);
    const Config addr = machine(Protocol::predicted, PredictorKind::addr);
    const Config inst = machine(Protocol::predicted, PredictorKind::inst);
    std::vector<std::pair<std::string, Config>> knobs;
    auto knob = [&knobs](const std::string &label, Config c,
                         auto &&edit) {
        edit(c);
        knobs.emplace_back(label, c);
    };
    knob("predicted-sp/depth-1", sp, [](Config &c) { c.historyDepth = 1; });
    knob("predicted-sp/depth-4", sp, [](Config &c) { c.historyDepth = 4; });
    knob("predicted-sp/threshold-0.05", sp,
         [](Config &c) { c.hotThreshold = 0.05; });
    knob("predicted-sp/threshold-0.30", sp,
         [](Config &c) { c.hotThreshold = 0.30; });
    knob("predicted-sp/no-recovery", sp,
         [](Config &c) { c.enableRecovery = false; });
    knob("predicted-sp/no-patterns", sp,
         [](Config &c) { c.enablePatterns = false; });
    knob("predicted-sp/lock-union", sp,
         [](Config &c) { c.unionEpochIntoLock = true; });
    knob("predicted-sp/hot-set-2", sp,
         [](Config &c) { c.maxHotSetSize = 2; });
    knob("predicted-sp/filter", sp,
         [](Config &c) { c.enableSharingFilter = true; });
    knob("predicted-addr/macroblock-64", addr,
         [](Config &c) { c.macroBlockBytes = 64; });
    knob("predicted-addr/macroblock-1024", addr,
         [](Config &c) { c.macroBlockBytes = 1024; });
    knob("predicted-addr/entries-512", addr,
         [](Config &c) { c.predictorEntries = 512; });
    knob("predicted-inst/entries-512", inst,
         [](Config &c) { c.predictorEntries = 512; });
    for (const auto &[name, base] : {std::pair{"directory", dir},
                                     std::pair{"predicted-sp", sp}}) {
        knob(std::string(name) + "/no-fstate", base,
             [](Config &c) { c.enableFState = false; });
        knob(std::string(name) + "/dram", base,
             [](Config &c) { c.enableDram = true; });
    }
    for (const std::string &wl : variantWorkloads)
        for (const auto &[name, cfg] : knobs)
            cells.push_back({"16/" + wl + "/" + name, wl, cfg});

    // 64-core SP prediction over the inexact sharer formats: the
    // predicted path's early and peer-served unblocks update coarse
    // and limited directory entries.
    for (const std::string &wl : variantWorkloads) {
        for (const auto &[fname, format] : formats) {
            Config c = sp;
            c.numCores = 64;
            c.meshX = 8;
            c.meshY = 8;
            c.sharerFormat = format;
            cells.push_back(
                {"64-" + fname + "/" + wl + "/predicted-sp", wl, c});
        }
    }

    // Every program replayed under SP prediction from the trace
    // recordTraces() wrote: the replay frontend, not the generator,
    // issues the ops.
    for (const WorkloadSpec &spec : workloadRegistry())
        cells.push_back({"16/" + spec.name + "/predicted-sp/replay",
                         spec.name, sp, traceFile(spec.name)});
    return cells;
}

/**
 * Record every program once, at the cells' scale under the directory
 * protocol, into the test's own trace directory (emptied first). A
 * missing trace is fatal for its replay cell, never a silent live
 * run.
 */
void
recordTraces()
{
    std::filesystem::remove_all(SPP_FINGERPRINT_TRACES);
    std::filesystem::create_directories(SPP_FINGERPRINT_TRACES);
    std::vector<std::string> programs;
    for (const WorkloadSpec &spec : workloadRegistry())
        programs.push_back(spec.name);
    const std::vector<std::string> errors =
        SweepRunner().map(programs, [](const std::string &wl) {
            const TraceData trace = recordTrace(
                wl, machine(Protocol::directory, PredictorKind::none),
                cellScale);
            std::string err;
            writeFileBytesAtomic(traceFile(wl), encodeTrace(trace),
                                 err);
            return err;
        });
    for (const std::string &err : errors)
        EXPECT_EQ(err, "");
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Run one cell and hash its result payload. */
std::string
cellHash(const Cell &cell)
{
    ExperimentConfig x;
    x.config = cell.config;
    x.scale = cellScale;
    x.replayTrace = cell.replayFile;
    ExperimentResult res = runExperiment(cell.workload, x);
    res.run.eventsExecuted = 0;
    return hex16(fnv1a64(resultToJson(res).dump()));
}

/** Parse "label hash" lines; blank lines and '#' comments skipped. */
std::map<std::string, std::string>
readGolden(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string label;
        std::string hash;
        fields >> label >> hash;
        out[label] = hash;
    }
    return out;
}

} // namespace

TEST(Fingerprint, CellLabelsAreUnique)
{
    std::set<std::string> seen;
    for (const Cell &c : fingerprintCells())
        EXPECT_TRUE(seen.insert(c.label).second) << c.label;
}

TEST(Fingerprint, MatchesGolden)
{
    setQuiet(true);
    recordTraces();
    const std::vector<Cell> cells = fingerprintCells();
    const std::vector<std::string> hashes =
        SweepRunner().map(cells, [](const Cell &c) { return cellHash(c); });
    setQuiet(false);

    std::string fresh =
        "# Behaviour fingerprint: label, then the FNV-1a hash of the\n"
        "# cell's result payload (tests/test_fingerprint.cc).\n";
    for (std::size_t i = 0; i < cells.size(); ++i)
        fresh += cells[i].label + " " + hashes[i] + "\n";

    const std::map<std::string, std::string> golden =
        readGolden(SPP_FINGERPRINT_GOLDEN);

    std::vector<std::string> diffs;
    std::set<std::string> ran;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ran.insert(cells[i].label);
        const auto it = golden.find(cells[i].label);
        if (it == golden.end())
            diffs.push_back(cells[i].label + ": not in the golden file");
        else if (it->second != hashes[i])
            diffs.push_back(cells[i].label + ": golden " + it->second +
                            ", now " + hashes[i]);
    }
    for (const auto &[label, hash] : golden)
        if (!ran.count(label))
            diffs.push_back(label + ": in the golden file, not run");

    if (!diffs.empty()) {
        std::ofstream(SPP_FINGERPRINT_FRESH) << fresh;
        std::string list;
        for (const std::string &d : diffs)
            list += "  " + d + "\n";
        ADD_FAILURE() << diffs.size() << " of " << cells.size()
                      << " cells differ from " << SPP_FINGERPRINT_GOLDEN
                      << ":\n"
                      << list << "fresh fingerprint written to "
                      << SPP_FINGERPRINT_FRESH;
    }
}
