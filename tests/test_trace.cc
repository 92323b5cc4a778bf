/**
 * @file
 * Trace frontend tests: codec round-trip and strictness, recording,
 * record-then-replay equivalence (both at the CmpSystem level and
 * through the experiment harness from a trace file), and the mcsim
 * TraceGen import adapter, including a full-width replay of
 * addresses above 4 GiB.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "service/result_store.hh"
#include "sim/cmp_system.hh"
#include "trace/codec.hh"
#include "trace/format.hh"
#include "trace/mcsim.hh"
#include "trace/replay.hh"
#include "workload/workload.hh"

using namespace spp;

namespace {

struct QuietScope
{
    QuietScope() { setQuiet(true); }
    ~QuietScope() { setQuiet(false); }
};

/** Fresh temp directory, removed on scope exit. */
struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const char *tag)
    {
        path = std::filesystem::temp_directory_path() /
            (std::string("spp_trace_test_") + tag);
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~TempDir() { std::filesystem::remove_all(path); }

    std::string
    file(const std::string &name) const
    {
        return (path / name).string();
    }
};

/** A pseudo-random trace exercising every op kind and delta sign. */
TraceData
randomTrace(unsigned n_threads, unsigned ops_per_thread,
            std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    TraceData t;
    t.meta.workload = "random";
    t.meta.numThreads = n_threads;
    t.meta.seed = seed;
    t.meta.lineBytes = 64;
    t.meta.scale = 0.625;
    t.meta.keyHash = rng();
    t.threads.resize(n_threads);
    for (auto &ops : t.threads) {
        for (unsigned i = 0; i < ops_per_thread; ++i) {
            const auto kind =
                static_cast<TraceOpKind>(rng() % traceOpKinds);
            TraceOp op;
            op.kind = kind;
            switch (kind) {
            case TraceOpKind::read:
            case TraceOpKind::write:
                // Mix small sequential-ish and huge 64-bit values so
                // zigzag deltas see both signs and all widths.
                op.addr = rng() % 2 ? rng() : rng() % 0x10000;
                op.pc = rng() % 2 ? rng() : rng() % 0x1000;
                break;
            case TraceOpKind::compute:
                op.arg = rng() % 2 ? rng() : rng() % 1000;
                break;
            default:
                // Sync ops: id in arg (except join) and call-site
                // sid in pc (except lock/unlock) — the fields the
                // format carries for each kind.
                if (kind != TraceOpKind::join)
                    op.arg = rng() % 64;
                if (kind != TraceOpKind::lock &&
                    kind != TraceOpKind::unlock)
                    op.pc = rng() % 0x1000;
                break;
            }
            ops.push_back(op);
        }
    }
    return t;
}

/** The counters a figure row would print, for run comparison. */
struct RunKey
{
    Tick ticks;
    std::uint64_t events;
    std::uint64_t misses;
    std::uint64_t commMisses;
    std::uint64_t flitBytes;

    bool operator==(const RunKey &o) const = default;
};

RunKey
keyOf(const RunResult &r)
{
    return {r.ticks, r.eventsExecuted, r.mem.misses.value(),
            r.mem.communicatingMisses.value(),
            r.noc.flitBytes.value()};
}

RunResult
liveRun(const char *workload, const Config &cfg, double scale,
        TraceRecorder *recorder = nullptr)
{
    const WorkloadSpec *spec = findWorkload(workload);
    EXPECT_NE(spec, nullptr) << workload;
    CmpSystem sys(cfg);
    if (recorder)
        sys.setTraceSink(recorder);
    WorkloadParams params;
    params.scale = scale;
    return sys.run([spec, params](ThreadContext &ctx) {
        return spec->run(ctx, params);
    });
}

RunResult
replayRun(std::shared_ptr<const TraceData> trace, const Config &cfg)
{
    CmpSystem sys(cfg);
    return sys.run(replayThreadFn(std::move(trace)));
}

Config
smallConfig(Protocol proto, PredictorKind kind)
{
    Config cfg;
    cfg.protocol = proto;
    cfg.predictor = kind;
    return cfg;
}

void
expectDecodeFails(const std::vector<std::uint8_t> &bytes,
                  const char *what)
{
    TraceData out;
    std::string err;
    EXPECT_FALSE(decodeTrace(bytes, out, err)) << what;
    EXPECT_FALSE(err.empty()) << what;
}

/** One synthetic 40-byte PTSInstrTrace record. */
void
appendRecord(std::vector<std::uint8_t> &bytes, std::uint64_t waddr,
             std::uint64_t raddr, std::uint64_t raddr2,
             std::uint64_t ip)
{
    const std::uint64_t words[4] = {waddr, raddr, raddr2, ip};
    for (const std::uint64_t w : words)
        for (int i = 0; i < 8; ++i)
            bytes.push_back(
                static_cast<std::uint8_t>(w >> (8 * i)));
    for (int i = 0; i < 8; ++i)   // category + tail padding
        bytes.push_back(0);
}

void
writeBytes(const std::string &path,
           const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(TraceCodec, RoundTripRandomStreams)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        const TraceData t = randomTrace(4, 200, seed);
        const auto bytes = encodeTrace(t);
        TraceData back;
        std::string err;
        ASSERT_TRUE(decodeTrace(bytes, back, err)) << err;
        EXPECT_EQ(back.threads, t.threads);
        EXPECT_EQ(back.meta.workload, t.meta.workload);
        EXPECT_EQ(back.meta.numThreads, t.meta.numThreads);
        EXPECT_EQ(back.meta.seed, t.meta.seed);
        EXPECT_EQ(back.meta.lineBytes, t.meta.lineBytes);
        EXPECT_EQ(back.meta.scale, t.meta.scale);
        EXPECT_EQ(back.meta.keyHash, t.meta.keyHash);
    }
}

TEST(TraceCodec, RoundTripEmptyThreads)
{
    TraceData t;
    t.meta.workload = "empty";
    t.meta.numThreads = 3;
    t.threads.resize(3);
    const auto bytes = encodeTrace(t);
    TraceData back;
    std::string err;
    ASSERT_TRUE(decodeTrace(bytes, back, err)) << err;
    EXPECT_EQ(back.threads.size(), 3u);
    EXPECT_EQ(back.totalOps(), 0u);
}

TEST(TraceCodec, RejectsBadMagic)
{
    auto bytes = encodeTrace(randomTrace(2, 8, 7));
    bytes[0] = 'X';
    expectDecodeFails(bytes, "bad magic");
}

TEST(TraceCodec, RejectsVersionMismatch)
{
    auto bytes = encodeTrace(randomTrace(2, 8, 7));
    bytes[8] = static_cast<std::uint8_t>(traceFormatVersion + 1);
    expectDecodeFails(bytes, "future version");
}

TEST(TraceCodec, RejectsEmptyInput)
{
    expectDecodeFails({}, "empty file");
}

TEST(TraceCodec, RejectsTruncationAtEveryPrefix)
{
    const auto bytes = encodeTrace(randomTrace(2, 10, 11));
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + len);
        TraceData out;
        std::string err;
        EXPECT_FALSE(decodeTrace(prefix, out, err))
            << "prefix of length " << len << " decoded";
    }
}

TEST(TraceCodec, RejectsTrailingGarbage)
{
    auto bytes = encodeTrace(randomTrace(2, 8, 13));
    bytes.push_back(0xab);
    expectDecodeFails(bytes, "trailing garbage");
}

TEST(TraceCodec, ChecksumCatchesBitFlips)
{
    const auto clean = encodeTrace(randomTrace(2, 20, 17));
    // Flip one byte at a spread of positions; the checksum (or an
    // earlier structural check) must reject every one.
    for (std::size_t pos = 0; pos < clean.size();
         pos += clean.size() / 13 + 1) {
        auto bytes = clean;
        bytes[pos] ^= 0x40;
        TraceData out;
        std::string err;
        EXPECT_FALSE(decodeTrace(bytes, out, err))
            << "flip at byte " << pos << " decoded";
    }
}

TEST(TraceCodec, AtomicWriteRoundTripsThroughFile)
{
    TempDir dir("codec_file");
    const TraceData t = randomTrace(3, 50, 23);
    const auto bytes = encodeTrace(t);
    const std::string path = dir.file("t.spptrace");
    std::string err;
    ASSERT_TRUE(writeFileBytesAtomic(path, bytes, err)) << err;
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(readFileBytes(path, back, err)) << err;
    EXPECT_EQ(back, bytes);
    const TraceData loaded = loadTraceOrFatal(path);
    EXPECT_EQ(loaded.threads, t.threads);
}

TEST(TraceReplay, ErrorOnCoreCountMismatch)
{
    Config cfg;
    TraceData t;
    t.meta.numThreads = cfg.numCores;
    t.threads.resize(cfg.numCores);
    EXPECT_EQ(traceReplayError(t, cfg), "");
    Config wide = cfg;
    wide.numCores = 64;
    EXPECT_NE(traceReplayError(t, wide), "");
}

TEST(TraceReplay, MatchesLiveAcrossWorkloadsAndProtocols)
{
    QuietScope quiet;
    const double scale = 0.15;
    const Config protos[] = {
        smallConfig(Protocol::directory, PredictorKind::none),
        smallConfig(Protocol::predicted, PredictorKind::sp),
    };
    for (const char *wl : {"fft", "radix", "streamcluster"}) {
        // Record under the directory config; the op stream is
        // protocol-independent, so one trace drives both replays.
        TraceRecorder recorder(protos[0].numCores);
        const RunResult recorded =
            liveRun(wl, protos[0], scale, &recorder);
        auto trace = std::make_shared<const TraceData>(
            std::move(recorder.data));
        EXPECT_GT(trace->totalOps(), 0u) << wl;

        for (const Config &cfg : protos) {
            const RunResult live = liveRun(wl, cfg, scale);
            const RunResult replayed = replayRun(trace, cfg);
            EXPECT_EQ(keyOf(replayed), keyOf(live))
                << wl << " / " << toString(cfg.protocol);
        }
        // Recording itself must not perturb the simulation.
        EXPECT_EQ(keyOf(recorded),
                  keyOf(liveRun(wl, protos[0], scale)));
    }
}

TEST(TraceRecord, CapturesTheLiveStreamWithProvenance)
{
    QuietScope quiet;
    Config cfg = smallConfig(Protocol::directory, PredictorKind::none);
    cfg.seed = 7;
    TraceRecorder recorder(cfg.numCores);
    liveRun("fft", cfg, 0.15, &recorder);

    const TraceData trace = recordTrace("fft", cfg, 0.15);
    EXPECT_EQ(trace.threads, recorder.data.threads);
    EXPECT_EQ(trace.meta.workload, "fft");
    EXPECT_EQ(trace.meta.numThreads, cfg.numCores);
    EXPECT_EQ(trace.meta.seed, 7u);
    EXPECT_EQ(trace.meta.lineBytes, cfg.lineBytes);
    EXPECT_EQ(trace.meta.scale, 0.15);
    EXPECT_EQ(trace.meta.keyHash, 0u);
}

TEST(TraceReplay, SurvivesCodecRoundTrip)
{
    QuietScope quiet;
    const Config cfg =
        smallConfig(Protocol::directory, PredictorKind::none);
    const TraceData trace = recordTrace("fft", cfg, 0.15);

    TraceData decoded;
    std::string err;
    ASSERT_TRUE(decodeTrace(encodeTrace(trace), decoded, err)) << err;
    const RunResult a =
        replayRun(std::make_shared<const TraceData>(trace), cfg);
    const RunResult b = replayRun(
        std::make_shared<const TraceData>(std::move(decoded)), cfg);
    EXPECT_EQ(keyOf(a), keyOf(b));
}

TEST(TraceExperiment, ReplayFileRunsLikeLive)
{
    QuietScope quiet;
    TempDir dir("experiment");
    ExperimentConfig live;
    live.config.protocol = Protocol::directory;
    live.scale = 0.15;
    const std::string path = dir.file("fft.spptrace");
    std::string err;
    ASSERT_TRUE(writeFileBytesAtomic(
        path, encodeTrace(recordTrace("fft", live.config, live.scale)),
        err))
        << err;

    // The trace file drives the recording protocol and any other
    // protocol cell exactly as the generator does.
    ExperimentConfig livePred = live;
    livePred.config.protocol = Protocol::predicted;
    livePred.config.predictor = PredictorKind::sp;
    for (const ExperimentConfig &x : {live, livePred}) {
        ExperimentConfig replay = x;
        replay.replayTrace = path;
        EXPECT_EQ(keyOf(runExperiment("fft", replay).run),
                  keyOf(runExperiment("fft", x).run))
            << toString(x.config.protocol);
        // The result store does not hash the trace file's content.
        EXPECT_FALSE(resultCacheable(replay));
    }
}

TEST(McsimImport, MapsAccessesAndCoalescesCompute)
{
    TempDir dir("mcsim");
    std::vector<std::uint8_t> bytes;
    appendRecord(bytes, 0, 0, 0, 0x400000);        // compute
    appendRecord(bytes, 0, 0, 0, 0x400001);        // compute
    appendRecord(bytes, 0x9000, 0x1000, 0x2000, 0x400002);
    appendRecord(bytes, 0, 0, 0, 0x400003);        // compute
    appendRecord(bytes, 0, 0x3000, 0, 0x400004);
    const std::string path = dir.file("t0.bin");
    writeBytes(path, bytes);

    TraceData out;
    std::string err;
    ASSERT_TRUE(importMcsimTrace({path}, 0, out, err)) << err;
    ASSERT_EQ(out.threads.size(), 1u);
    const std::vector<TraceOp> expect = {
        {TraceOpKind::compute, 0, 0, 2},
        {TraceOpKind::read, 0x1000, 0x400002, 0},
        {TraceOpKind::read, 0x2000, 0x400002, 0},
        {TraceOpKind::write, 0x9000, 0x400002, 0},
        {TraceOpKind::compute, 0, 0, 1},
        {TraceOpKind::read, 0x3000, 0x400004, 0},
    };
    EXPECT_EQ(out.threads[0], expect);
    EXPECT_EQ(out.meta.workload, "mcsim-import");
    EXPECT_EQ(out.meta.numThreads, 1u);
}

TEST(McsimImport, InjectsBalancedBarriers)
{
    TempDir dir("mcsim_sync");
    // Thread 0: four memory ops; thread 1: two. With sync_every=2
    // the shortest thread caps injection at one barrier, and both
    // threads must reach exactly one.
    std::vector<std::uint8_t> t0, t1;
    for (int i = 0; i < 4; ++i)
        appendRecord(t0, 0, 0x1000 + 64u * i, 0, 0x400000);
    for (int i = 0; i < 2; ++i)
        appendRecord(t1, 0x2000 + 64u * i, 0, 0, 0x400100);
    writeBytes(dir.file("t0.bin"), t0);
    writeBytes(dir.file("t1.bin"), t1);

    TraceData out;
    std::string err;
    ASSERT_TRUE(importMcsimTrace({dir.file("t0.bin"),
                                  dir.file("t1.bin")},
                                 2, out, err))
        << err;
    ASSERT_EQ(out.threads.size(), 2u);
    for (const auto &ops : out.threads) {
        unsigned barriers = 0;
        for (const TraceOp &op : ops)
            barriers += op.kind == TraceOpKind::barrier ? 1 : 0;
        EXPECT_EQ(barriers, 1u);
    }

    // The injected trace must actually run: 2 threads on a 2-core
    // machine, completing without deadlock.
    Config cfg;
    cfg.numCores = 2;
    cfg.meshX = 2;
    cfg.meshY = 1;
    cfg.coarseCoresPerBit = 2;
    EXPECT_EQ(traceReplayError(out, cfg), "");
    const RunResult run = replayRun(
        std::make_shared<const TraceData>(std::move(out)), cfg);
    EXPECT_GT(run.eventsExecuted, 0u);
    EXPECT_GT(run.ticks, 0u);
}

TEST(McsimImport, ReplaysAddressesAbove4GiB)
{
    // Imported traces carry 64-bit addresses and PCs, and replay must
    // issue them at full width: cut to 32 bits, these lines would
    // alias onto 0x40 and 0x80.
    TempDir dir("mcsim_wide");
    constexpr std::uint64_t high = std::uint64_t{1} << 32;
    std::vector<std::uint8_t> t0, t1;
    appendRecord(t0, high + 0x40, high + 0x80, 0, high + 0x400000);
    appendRecord(t1, 0, high + 0x40, 0, high + 0x400100);
    writeBytes(dir.file("t0.bin"), t0);
    writeBytes(dir.file("t1.bin"), t1);

    TraceData trace;
    std::string err;
    ASSERT_TRUE(importMcsimTrace({dir.file("t0.bin"),
                                  dir.file("t1.bin")},
                                 0, trace, err))
        << err;
    Config cfg;
    cfg.numCores = 2;
    cfg.meshX = 2;
    cfg.meshY = 1;
    cfg.coarseCoresPerBit = 2;
    ASSERT_EQ(traceReplayError(trace, cfg), "");

    CmpSystem sys(cfg);
    std::set<std::pair<Addr, Pc>> seen;
    sys.setAccessObserver(
        [&seen](CoreId, Addr addr, Pc pc, const AccessOutcome &) {
            seen.insert({addr, pc});
        });
    sys.run(replayThreadFn(
        std::make_shared<const TraceData>(std::move(trace))));
    const std::set<std::pair<Addr, Pc>> expect = {
        {high + 0x80, high + 0x400000},
        {high + 0x40, high + 0x400000},
        {high + 0x40, high + 0x400100},
    };
    EXPECT_EQ(seen, expect);
}

TEST(McsimImport, RejectsMalformedSizes)
{
    TempDir dir("mcsim_bad");
    std::vector<std::uint8_t> bytes(40 + 7, 0);  // not a multiple
    const std::string path = dir.file("bad.bin");
    writeBytes(path, bytes);
    TraceData out;
    std::string err;
    EXPECT_FALSE(importMcsimTrace({path}, 0, out, err));
    EXPECT_NE(err.find("40"), std::string::npos);

    EXPECT_FALSE(importMcsimTrace({}, 0, out, err));
    EXPECT_FALSE(importMcsimTrace({dir.file("missing.bin")}, 0, out,
                                  err));
}
