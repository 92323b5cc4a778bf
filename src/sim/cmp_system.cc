#include "sim/cmp_system.hh"

#include "common/logging.hh"

namespace spp {

const char *
toString(RunStatus s)
{
    switch (s) {
      case RunStatus::ok: return "ok";
      case RunStatus::timeout: return "timeout";
      case RunStatus::deadlock: return "deadlock";
    }
    return "?";
}

CmpSystem::CmpSystem(const Config &cfg) : cfg_(cfg)
{
    cfg_.validate();
    mesh_ = std::make_unique<Mesh>(cfg_, eq_);

    predictor_ = makePredictor(cfg_);
    sp_predictor_ = dynamic_cast<SpPredictor *>(predictor_.get());
    mem_ = makeMemSys(cfg_, eq_, *mesh_, predictor_.get(), *this);

    sync_ = std::make_unique<SyncManager>(cfg_, eq_,
                                          layout::syncBase);
    if (sp_predictor_)
        sync_->addListener(sp_predictor_);

    contexts_.reserve(cfg_.numCores);
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        contexts_.push_back(std::make_unique<ThreadContext>(
            *this, c, cfg_.numCores, cfg_.seed * 7919 + c));
    }
}

CmpSystem::~CmpSystem() = default;

DirectoryMemSys *
CmpSystem::directory()
{
    return dynamic_cast<DirectoryMemSys *>(mem_.get());
}

RunResult
CmpSystem::run(const ThreadFn &thread_fn)
{
    RunResult r;
    switch (tryRun(thread_fn, r)) {
      case RunStatus::ok:
        return r;
      case RunStatus::timeout:
        SPP_FATAL("run exceeded maxTicks = {} ({} threads finished)",
                  cfg_.maxTicks, finished_);
      case RunStatus::deadlock:
        SPP_PANIC("event queue drained with only {}/{} threads "
                  "finished (workload deadlock?)\n{}",
                  finished_, cfg_.numCores, mem_->dumpOutstanding());
    }
    SPP_PANIC("unreachable run status");
}

RunStatus
CmpSystem::tryRun(const ThreadFn &thread_fn, RunResult &result)
{
    SPP_ASSERT(tasks_.empty(), "CmpSystem::run may only be called once");

    tasks_.reserve(cfg_.numCores);
    for (unsigned c = 0; c < cfg_.numCores; ++c)
        tasks_.push_back(thread_fn(*contexts_[c]));

    // Every thread begins with an implicit sync-point so the first
    // epoch is well defined, then starts at tick 0.
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        sync_->notify(c, SyncType::threadStart, 0);
        eq_.schedule(0, [this, c]() {
            tasks_[c].start([this, c]() {
                sync_->threadDone(c);
                ++finished_;
            });
        });
    }

    const bool drained_queue = eq_.run(cfg_.maxTicks);

    RunResult &r = result;
    r.ticks = eq_.curTick();
    r.mem = mem_->stats();
    r.noc = mesh_->stats();
    r.sync = sync_->stats();
    if (sp_predictor_)
        r.sp = sp_predictor_->stats();
    if (predictor_) {
        r.predictorStorageBits = predictor_->storageBits();
        r.predictorTableAccesses = predictor_->tableAccesses();
    }
    if (auto *dir = directory())
        r.indirectionsAvoided = dir->indirectionsAvoided();
    r.eventsExecuted = eq_.executed();

    if (!drained_queue)
        return RunStatus::timeout;
    if (finished_ != cfg_.numCores)
        return RunStatus::deadlock;
    SPP_ASSERT(mem_->drained(), "memory system not drained at exit");
    return RunStatus::ok;
}

} // namespace spp
