/**
 * @file
 * Trace utility: record, inspect, replay and import `.spptrace`
 * workload traces. A trace is a plain file: the drivers replay one
 * with --replay FILE.
 *
 *   trace_tool record WORKLOAD OUT [--scale S] [--cores N]
 *                                  [--seed N]
 *       Run WORKLOAD's generator once (directory protocol) and
 *       write its op stream to OUT.
 *
 *   trace_tool info FILE
 *       Decode FILE and print its provenance and op histogram.
 *
 *   trace_tool replay FILE [--protocol directory|broadcast|
 *                           predicted|multicast]
 *       Drive a machine of the trace's geometry from FILE and
 *       print the run summary; predicted and multicast use the SP
 *       predictor.
 *
 *   trace_tool import-mcsim OUT THREAD0 [THREAD1 ...]
 *                           [--sync-every N]
 *       Convert per-thread mcsim TraceGen files into one
 *       `.spptrace` (see trace/mcsim.hh for the record layout and
 *       the barrier-injection rule).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "bench_common.hh"
#include "trace/codec.hh"
#include "trace/mcsim.hh"
#include "trace/replay.hh"

using namespace spp;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: trace_tool record WORKLOAD OUT [--scale S] "
                 "[--cores N] [--seed N]\n"
                 "       trace_tool info FILE\n"
                 "       trace_tool replay FILE [--protocol "
                 "directory|broadcast|predicted|multicast]\n"
                 "       trace_tool import-mcsim OUT THREAD0 "
                 "[THREAD1 ...] [--sync-every N]\n");
    return 2;
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    const std::string name = argv[2];
    const std::string out = argv[3];
    double scale = defaultBenchScale();
    Config cfg;
    for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
            scale = bench::parsePositiveFlag("--scale", argv[++i]);
        } else if (std::strcmp(argv[i], "--cores") == 0 &&
                   i + 1 < argc) {
            cfg.numCores = static_cast<unsigned>(bench::parseUnsigned(
                "--cores", argv[++i], 1, maxCores));
            meshFor(cfg.numCores, cfg.meshX, cfg.meshY);
        } else if (std::strcmp(argv[i], "--seed") == 0 &&
                   i + 1 < argc) {
            cfg.seed = bench::parseUnsigned("--seed", argv[++i], 0,
                                            ~std::uint64_t{0});
        } else {
            return usage();
        }
    }
    const TraceData trace = recordTrace(name, cfg, scale);
    std::string err;
    const auto bytes = encodeTrace(trace);
    if (!writeFileBytesAtomic(out, bytes, err))
        SPP_FATAL("cannot write {}: {}", out, err);
    std::printf("%s: %llu ops, %u threads, %zu bytes\n", out.c_str(),
                static_cast<unsigned long long>(trace.totalOps()),
                trace.meta.numThreads, bytes.size());
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc != 3)
        return usage();
    const TraceData trace = loadTraceOrFatal(argv[2]);
    const TraceMeta &m = trace.meta;
    std::printf("workload:   %s\n", m.workload.c_str());
    std::printf("threads:    %u\n", m.numThreads);
    std::printf("seed:       %llu\n",
                static_cast<unsigned long long>(m.seed));
    std::printf("lineBytes:  %u\n", m.lineBytes);
    std::printf("scale:      %g\n", m.scale);
    std::printf("keyHash:    %016llx\n",
                static_cast<unsigned long long>(m.keyHash));
    std::printf("totalOps:   %llu\n",
                static_cast<unsigned long long>(trace.totalOps()));

    std::uint64_t by_kind[traceOpKinds] = {};
    for (const auto &ops : trace.threads)
        for (const TraceOp &op : ops)
            ++by_kind[static_cast<unsigned>(op.kind)];
    for (unsigned k = 0; k < traceOpKinds; ++k)
        if (by_kind[k] != 0)
            std::printf("  %-13s %llu\n",
                        toString(static_cast<TraceOpKind>(k)),
                        static_cast<unsigned long long>(by_kind[k]));
    return 0;
}

void
printRun(const RunResult &run)
{
    std::printf("ticks:         %llu\n",
                static_cast<unsigned long long>(run.ticks));
    std::printf("events:        %llu\n",
                static_cast<unsigned long long>(run.eventsExecuted));
    std::printf("misses:        %llu\n",
                static_cast<unsigned long long>(
                    run.mem.misses.value()));
    std::printf("comm misses:   %llu\n",
                static_cast<unsigned long long>(
                    run.mem.communicatingMisses.value()));
    std::printf("flit bytes:    %llu\n",
                static_cast<unsigned long long>(
                    run.noc.flitBytes.value()));
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    Config cfg;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--protocol") != 0 || i + 1 >= argc)
            return usage();
        const auto proto = parseProtocolName(argv[++i]);
        if (!proto)
            SPP_FATAL("unknown protocol '{}' (directory|broadcast|"
                      "predicted|multicast)", argv[i]);
        cfg.protocol = *proto;
    }
    // The predicting protocols replay with the paper's SP predictor.
    if (cfg.protocol == Protocol::predicted ||
        cfg.protocol == Protocol::multicast)
        cfg.predictor = PredictorKind::sp;
    auto trace = std::make_shared<TraceData>(
        loadTraceOrFatal(argv[2]));

    cfg.numCores = trace->meta.numThreads;
    cfg.lineBytes = trace->meta.lineBytes;
    meshFor(cfg.numCores, cfg.meshX, cfg.meshY);
    const std::string err = traceReplayError(*trace, cfg);
    if (!err.empty())
        SPP_FATAL("cannot replay {}: {}", argv[2], err);

    CmpSystem sys(cfg);
    printRun(sys.run(replayThreadFn(trace)));
    return 0;
}

int
cmdImportMcsim(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    const std::string out = argv[2];
    unsigned sync_every = 0;
    std::vector<std::string> inputs;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sync-every") == 0 &&
            i + 1 < argc) {
            sync_every = static_cast<unsigned>(bench::parseUnsigned(
                "--sync-every", argv[++i], 1, 1u << 30));
        } else {
            inputs.push_back(argv[i]);
        }
    }
    TraceData trace;
    std::string err;
    if (!importMcsimTrace(inputs, sync_every, trace, err))
        SPP_FATAL("mcsim import failed: {}", err);
    const auto bytes = encodeTrace(trace);
    if (!writeFileBytesAtomic(out, bytes, err))
        SPP_FATAL("cannot write {}: {}", out, err);
    std::printf("%s: %llu ops from %zu threads, %zu bytes\n",
                out.c_str(),
                static_cast<unsigned long long>(trace.totalOps()),
                trace.threads.size(), bytes.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    setQuiet(true);
    const std::string cmd = argv[1];
    if (cmd == "record")
        return cmdRecord(argc, argv);
    if (cmd == "info")
        return cmdInfo(argc, argv);
    if (cmd == "replay")
        return cmdReplay(argc, argv);
    if (cmd == "import-mcsim")
        return cmdImportMcsim(argc, argv);
    return usage();
}
