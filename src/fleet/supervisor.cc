#include "fleet/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "fleet/checkpoint.h"
#include "fleet/worker.h"
#include "util/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#define ATMSIM_FLEET_POSIX 1
#endif

namespace atmsim::fleet {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * The supervisor's fold state: which shards are decided, the exact
 * aggregate of the decided prefix, and completed results buffered
 * behind an undecided shard. Shared by the in-process and forked
 * drivers, and the thing checkpoints freeze.
 */
struct Fold
{
    const FleetConfig &config;
    std::vector<ShardRange> shards;

    /** Decided shards form the strict prefix [0, decided). */
    long decided = 0;

    /** Shards declared dead (exhausted retries), decided or not. */
    std::set<long> abandoned;

    /** Decided failures, in shard order. */
    std::vector<long> failedShards;

    std::map<long, long> retriesByShard;
    long totalRetries = 0;

    core::PopulationStats stats;
    obs::MetricsRegistry registry;

    /** Completed results waiting behind an undecided shard. */
    std::map<int, ShardResult> pending;

    long chipsDone = 0;
    long chipsSkipped = 0;
    long checkpointsWritten = 0;
    long decidedSinceCheckpoint = 0;
    bool resumed = false;

    /** Streamed spans of completed shards (forked mode only). */
    std::map<long, obs::ProcessSpans> shardSpans;

    /** Per-worker-slot observability (sized by the forked driver). */
    std::vector<obs::WorkerManifest> workerSlots;

    /** Last streamed observations of abandoned shards. */
    std::vector<AbandonedPartial> abandonedPartials;

    explicit Fold(const FleetConfig &cfg)
        : config(cfg),
          shards(planShards(cfg.population.chipCount, cfg.shardSize))
    {
    }

    [[nodiscard]] long shardCount() const
    {
        return static_cast<long>(shards.size());
    }

    [[nodiscard]] CampaignFingerprint fingerprint() const
    {
        CampaignFingerprint fp;
        fp.chipCount = config.population.chipCount;
        fp.shardSize = config.shardSize;
        fp.seedBase = config.population.seedBase;
        fp.robustSpread = config.population.robustSpread;
        return fp;
    }

    /** Does this shard still need to run (or re-run)? */
    [[nodiscard]] bool needsRun(long shard) const
    {
        return shard >= decided
               && pending.find(static_cast<int>(shard)) == pending.end()
               && abandoned.find(shard) == abandoned.end();
    }

    /** Buffer one completed shard result. */
    void complete(ShardResult &&result)
    {
        const long shard = result.shard;
        if (shard < 0 || shard >= shardCount())
            util::fatal("fleet: result for unknown shard ", shard);
        if (shard < decided || abandoned.count(shard) != 0) {
            // A late result from a worker we already gave up on;
            // folding it now would double-count. Drop it.
            util::warn("fleet: dropping late result for shard ",
                       shard);
            return;
        }
        pending.emplace(static_cast<int>(shard), std::move(result));
    }

    /**
     * Advance the decided prefix: fold buffered results and record
     * abandonments, strictly in shard-index order. THE fold -- the
     * only place shard results enter the aggregate. A halt stops it
     * at exactly haltAfterShards, however results arrive; later ones
     * stay buffered (and checkpointed) for the resume.
     */
    void advance()
    {
        const long stop = config.haltAfterShards >= 0
                              ? std::min(config.haltAfterShards,
                                         shardCount())
                              : shardCount();
        while (decided < stop) {
            const auto it = pending.find(static_cast<int>(decided));
            if (it != pending.end()) {
                for (const core::ChipSummary &chip : it->second.chips)
                    core::foldChipSummary(stats, chip,
                                          config.population.robustSpread);
                chipsDone += static_cast<long>(it->second.chips.size());
                registry.mergeFrom(it->second.metrics);
                pending.erase(it);
            } else if (abandoned.count(decided) != 0) {
                failedShards.push_back(decided);
                chipsSkipped += shards[static_cast<std::size_t>(
                                           decided)]
                                    .chips();
            } else {
                break;
            }
            ++decided;
            ++decidedSinceCheckpoint;
        }
    }

    [[nodiscard]] CheckpointData toCheckpoint() const
    {
        CheckpointData data;
        data.fingerprint = fingerprint();
        data.decidedShards = decided;
        data.failedShards = failedShards;
        for (const auto &[shard, count] : retriesByShard)
            data.shardRetries.emplace_back(shard, count);
        data.totalRetries = totalRetries;
        data.stats = stats;
        data.metrics = registry.snapshot();
        for (const auto &[shard, result] : pending)
            data.pending.push_back(result);
        data.abandonedPartials = abandonedPartials;
        std::sort(data.abandonedPartials.begin(),
                  data.abandonedPartials.end(),
                  [](const AbandonedPartial &a,
                     const AbandonedPartial &b) {
                      return a.shard < b.shard;
                  });
        return data;
    }

    void maybeCheckpoint(bool force)
    {
        if (config.checkpointDir.empty())
            return;
        if (!force && decidedSinceCheckpoint < config.checkpointEvery)
            return;
        if (decidedSinceCheckpoint == 0 && checkpointsWritten > 0)
            return;
        saveCheckpoint(config.checkpointDir, toCheckpoint());
        ++checkpointsWritten;
        decidedSinceCheckpoint = 0;
    }

    void restore(CheckpointData &&data)
    {
        decided = data.decidedShards;
        if (decided > shardCount())
            util::fatal("fleet resume: checkpoint decided ", decided,
                        " shards of ", shardCount());
        failedShards = std::move(data.failedShards);
        for (const long shard : failedShards) {
            abandoned.insert(shard);
            chipsSkipped +=
                shards[static_cast<std::size_t>(shard)].chips();
        }
        for (const auto &[shard, count] : data.shardRetries)
            retriesByShard[shard] = count;
        totalRetries = data.totalRetries;
        stats = std::move(data.stats);
        registry.mergeFrom(data.metrics);
        for (ShardResult &result : data.pending) {
            const int shard = result.shard;
            if (shard >= shardCount())
                util::fatal("fleet resume: pending shard ", shard,
                            " of ", shardCount());
            pending.emplace(shard, std::move(result));
        }
        // Folded chips = every decided shard's chips minus the lost
        // ones; buffered pending results are not folded yet.
        for (long i = 0; i < decided; ++i)
            chipsDone += shards[static_cast<std::size_t>(i)].chips();
        chipsDone -= chipsSkipped;
        abandonedPartials = std::move(data.abandonedPartials);
        resumed = true;
    }

    [[nodiscard]] bool haltRequested() const
    {
        return config.haltAfterShards >= 0
               && decided >= config.haltAfterShards
               && decided < shardCount();
    }
};

/** One in-process shard run: its result, or the error it threw. */
struct ShardOutcome
{
    ShardResult result;
    std::exception_ptr error;
};

/**
 * In-process driver: same shard/fold path, no processes. Shards run
 * in waves of up to the process default job count (--jobs) on the
 * exec pool; each wave then completes, folds, checkpoints and halts
 * one shard at a time in shard order, exactly as a serial loop over
 * the shards does. A shard's error surfaces at its turn, after the
 * shards before it.
 */
void
runInProcess(const FleetConfig &config, Fold &fold, bool &halted)
{
    // Shards at or beyond a halt are never folded, so never run.
    const long stop = config.haltAfterShards >= 0
                          ? std::min(config.haltAfterShards,
                                     fold.shardCount())
                          : fold.shardCount();
    const auto wave_size = static_cast<std::size_t>(exec::defaultJobs());
    long next = 0;
    while (next < fold.shardCount() && !halted) {
        // needsRun() of a shard not yet reached cannot change before
        // its turn: the fold never decides past an unrun shard.
        std::vector<long> wave;
        for (long s = next; s < stop && wave.size() < wave_size; ++s) {
            if (fold.needsRun(s))
                wave.push_back(s);
        }
        std::vector<ShardOutcome> outcomes =
            exec::parallelMap<ShardOutcome>(
                wave.size(),
                [&](std::size_t k) {
                    const ShardRange &shard =
                        fold.shards[static_cast<std::size_t>(wave[k])];
                    ShardOutcome out;
                    try {
                        obs::MetricsRegistry metrics;
                        out.result.shard = shard.index;
                        out.result.chips = core::studyShard(
                            config.population, shard.beginChip,
                            shard.endChip, &metrics, {});
                        out.result.metrics = metrics.snapshot();
                    } catch (...) {
                        out.error = std::current_exception();
                    }
                    return out;
                });
        const long last = wave.empty() ? fold.shardCount() - 1
                                       : wave.back();
        std::size_t k = 0;
        for (; next <= last && !halted; ++next) {
            if (k < wave.size() && wave[k] == next) {
                if (outcomes[k].error)
                    std::rethrow_exception(outcomes[k].error);
                fold.complete(std::move(outcomes[k].result));
                ++k;
            }
            fold.advance();
            fold.maybeCheckpoint(false);
            if (fold.haltRequested())
                halted = true;
        }
    }
}

#if defined(ATMSIM_FLEET_POSIX)

/** One worker process slot of the forked pool. */
struct WorkerProc
{
    pid_t pid = -1;
    int cmdFd = -1; ///< Write end, supervisor -> worker.
    int msgFd = -1; ///< Read end (nonblocking), worker -> supervisor.
    std::unique_ptr<LineReader> reader;
    long shard = -1; ///< Assigned shard; -1 when idle.
    int slot = -1;   ///< Index in the pool (stable across respawns).
    bool ready = false;
    Clock::time_point lastSeen;

    [[nodiscard]] bool alive() const { return pid >= 0; }
    [[nodiscard]] bool busy() const { return alive() && shard >= 0; }
};

/** In-flight obs stream of one assigned shard (forked driver). */
struct LiveObs
{
    int slot = -1;  ///< Worker slot currently streaming the shard.
    long pid = 0;   ///< Pid of that worker.
    long chips = 0; ///< Chips finished so far (last push).
    long messages = 0;
    long spansDropped = 0;
    std::vector<obs::RemoteSpan> spans;
    obs::MetricsSnapshot metrics; ///< Last partial snapshot.
};

void
closeQuiet(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** Forked driver: worker pool, watchdog, retry, backoff. */
class ForkedDriver
{
  public:
    ForkedDriver(const FleetConfig &config, Fold &fold)
        : config_(config), fold_(fold)
    {
        workers_.resize(static_cast<std::size_t>(config.workers));
        fold.workerSlots.resize(
            static_cast<std::size_t>(config.workers));
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            workers_[i].slot = static_cast<int>(i);
            fold.workerSlots[i].worker = static_cast<long>(i);
        }
        for (const ShardRange &shard : fold.shards) {
            if (fold.needsRun(shard.index))
                runQueue_.push_back(shard.index);
        }
    }

    void
    run(bool &halted)
    {
        // Workers that die mid-write must not take us down with them.
        std::signal(SIGPIPE, SIG_IGN);
        // A resumed checkpoint may leave nothing to run, only
        // buffered results to fold.
        fold_.advance();
        if (fold_.haltRequested())
            halted = true;
        while (fold_.decided < fold_.shardCount() && !halted) {
            reapDead();
            rightSizePool();
            assignWork();
            pollWorkers();
            checkWatchdog();
            fold_.advance();
            fold_.maybeCheckpoint(false);
            if (fold_.haltRequested())
                halted = true;
        }
        shutdown(halted);
    }

  private:
    [[nodiscard]] long
    busyCount() const
    {
        long busy = 0;
        for (const WorkerProc &w : workers_) {
            if (w.busy())
                ++busy;
        }
        return busy;
    }

    void
    spawn(WorkerProc &w)
    {
        int cmdPipe[2] = {-1, -1};
        int msgPipe[2] = {-1, -1};
        if (::pipe(cmdPipe) != 0 || ::pipe(msgPipe) != 0)
            util::fatal("fleet: pipe(): ", std::strerror(errno));
        const pid_t pid = ::fork();
        if (pid < 0)
            util::fatal("fleet: fork(): ", std::strerror(errno));
        if (pid == 0) {
            // Child: keep only its two pipe ends, run the worker
            // loop, and _exit so no parent-owned destructor runs.
            ::close(cmdPipe[1]);
            ::close(msgPipe[0]);
            WorkerConfig wc;
            wc.population = config_.population;
            wc.failInject = config_.failInject;
            int code = 1;
            try {
                code = runWorker(cmdPipe[0], msgPipe[1], wc);
            } catch (const std::exception &) {
                code = 1;
            }
            ::_exit(code);
        }
        ::close(cmdPipe[0]);
        ::close(msgPipe[1]);
        const int flags = ::fcntl(msgPipe[0], F_GETFL, 0);
        if (flags < 0
            || ::fcntl(msgPipe[0], F_SETFL, flags | O_NONBLOCK) < 0)
            util::fatal("fleet: fcntl(O_NONBLOCK): ",
                        std::strerror(errno));
        w.pid = pid;
        w.cmdFd = cmdPipe[1];
        w.msgFd = msgPipe[0];
        w.reader = std::make_unique<LineReader>(w.msgFd);
        w.shard = -1;
        w.ready = false;
        w.lastSeen = Clock::now();
    }

    /** Tear a worker down; count an assigned shard as failed. */
    void
    failWorker(WorkerProc &w, const char *why)
    {
        const long shard = w.shard;
        if (w.pid >= 0) {
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, nullptr, 0);
        }
        releaseSlot(w);
        if (shard >= 0)
            recordFailure(shard, why);
    }

    /** Forget a (dead) worker's resources without failure policy. */
    void
    releaseSlot(WorkerProc &w)
    {
        closeQuiet(w.cmdFd);
        closeQuiet(w.msgFd);
        w.reader.reset();
        w.pid = -1;
        w.shard = -1;
        w.ready = false;
    }

    void
    recordFailure(long shard, const char *why)
    {
        const long attempt = attempts_[shard]++;
        const auto live = liveObs_.find(shard);
        if (attempts_[shard] > config_.maxRetries) {
            util::warn("fleet: shard ", shard, " ", why, " on attempt ",
                       attempt, "; retries exhausted (",
                       config_.maxRetries,
                       "), abandoning its chips");
            fold_.abandoned.insert(shard);
            // The shard's results are lost, but its last streamed
            // partial snapshot is not: keep it for the manifest's
            // workers[].partial record (and the checkpoint).
            if (live != liveObs_.end()) {
                AbandonedPartial partial;
                partial.shard = shard;
                partial.worker = live->second.slot;
                partial.pid = live->second.pid;
                partial.chipsObserved = live->second.chips;
                partial.metrics = std::move(live->second.metrics);
                fold_.abandonedPartials.push_back(std::move(partial));
                liveObs_.erase(live);
            }
            return;
        }
        // A fresh attempt streams from scratch; stale partial state
        // from the failed attempt must not leak into it.
        if (live != liveObs_.end())
            liveObs_.erase(live);
        const double backoff =
            std::min(config_.backoffSeconds
                         * std::pow(2.0, static_cast<double>(attempt)),
                     30.0);
        util::warn("fleet: shard ", shard, " ", why, " on attempt ",
                   attempt, "; retrying in ", backoff, " s");
        fold_.retriesByShard[shard] += 1;
        fold_.totalRetries += 1;
        notBefore_[shard] =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(backoff));
        const auto pos =
            std::lower_bound(runQueue_.begin(), runQueue_.end(), shard);
        runQueue_.insert(pos, shard);
    }

    /** Reap exited children; a busy one's death is a shard failure. */
    void
    reapDead()
    {
        for (;;) {
            int status = 0;
            const pid_t pid = ::waitpid(-1, &status, WNOHANG);
            if (pid <= 0)
                return;
            for (WorkerProc &w : workers_) {
                if (w.pid != pid)
                    continue;
                const long shard = w.shard;
                releaseSlot(w);
                if (shard >= 0)
                    recordFailure(shard, "crashed");
                break;
            }
        }
    }

    /** Keep as many workers alive as there is work to give them. */
    void
    rightSizePool()
    {
        const long wanted =
            std::min(static_cast<long>(config_.workers),
                     static_cast<long>(runQueue_.size()) + busyCount());
        long alive = 0;
        for (const WorkerProc &w : workers_) {
            if (w.alive())
                ++alive;
        }
        for (WorkerProc &w : workers_) {
            if (alive >= wanted)
                break;
            if (!w.alive()) {
                spawn(w);
                ++alive;
            }
        }
    }

    void
    assignWork()
    {
        const Clock::time_point now = Clock::now();
        for (WorkerProc &w : workers_) {
            if (!w.alive() || !w.ready || w.shard >= 0)
                continue;
            // First queued shard whose backoff gate has opened.
            auto it = runQueue_.begin();
            while (it != runQueue_.end()) {
                const auto gate = notBefore_.find(*it);
                if (gate == notBefore_.end() || gate->second <= now)
                    break;
                ++it;
            }
            if (it == runQueue_.end())
                continue;
            const long shard = *it;
            const ShardRange &range =
                fold_.shards[static_cast<std::size_t>(shard)];
            Message assign;
            assign.type = Message::Type::Assign;
            assign.shard = static_cast<int>(shard);
            assign.beginChip = range.beginChip;
            assign.endChip = range.endChip;
            assign.attempt = static_cast<int>(attempts_[shard]);
            if (!writeAll(w.cmdFd, assign.encode())) {
                failWorker(w, "lost its command pipe");
                continue;
            }
            runQueue_.erase(it);
            w.shard = shard;
            w.ready = false;
            w.lastSeen = now;
        }
    }

    [[nodiscard]] int
    pollTimeoutMs() const
    {
        const Clock::time_point now = Clock::now();
        double timeout = 1.0; // Idle heartbeat of the loop itself.
        for (const WorkerProc &w : workers_) {
            if (!w.busy())
                continue;
            const double silent =
                std::chrono::duration<double>(now - w.lastSeen).count();
            timeout =
                std::min(timeout, config_.watchdogSeconds - silent);
        }
        for (const long shard : runQueue_) {
            const auto gate = notBefore_.find(shard);
            if (gate == notBefore_.end())
                continue;
            const double wait =
                std::chrono::duration<double>(gate->second - now)
                    .count();
            if (wait > 0.0)
                timeout = std::min(timeout, wait);
        }
        timeout = std::clamp(timeout, 0.01, 1.0);
        return static_cast<int>(timeout * 1000.0);
    }

    void
    pollWorkers()
    {
        std::vector<pollfd> fds;
        std::vector<std::size_t> owner;
        for (std::size_t i = 0; i < workers_.size(); ++i) {
            if (!workers_[i].alive())
                continue;
            pollfd pfd;
            pfd.fd = workers_[i].msgFd;
            pfd.events = POLLIN;
            pfd.revents = 0;
            fds.push_back(pfd);
            owner.push_back(i);
        }
        const int timeout = pollTimeoutMs();
        if (fds.empty()) {
            struct timespec ts;
            ts.tv_sec = timeout / 1000;
            ts.tv_nsec =
                static_cast<long>(timeout % 1000) * 1000000L;
            ::nanosleep(&ts, nullptr);
            return;
        }
        const int n =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
        if (n < 0) {
            if (errno == EINTR)
                return;
            util::fatal("fleet: poll(): ", std::strerror(errno));
        }
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            drainWorker(workers_[owner[i]]);
        }
    }

    /** Read and act on everything one worker has sent. */
    void
    drainWorker(WorkerProc &w)
    {
        if (!w.alive())
            return;
        const bool open = w.reader->fill();
        for (;;) {
            const std::optional<std::string> line = w.reader->nextLine();
            if (!line)
                break;
            Message msg;
            try {
                msg = Message::decode(*line);
            } catch (const std::exception &e) {
                util::warn("fleet: garbled worker message (", e.what(),
                           ")");
                failWorker(w, "sent a garbled message");
                return;
            }
            w.lastSeen = Clock::now();
            switch (msg.type) {
              case Message::Type::Ready:
                w.ready = true;
                break;
              case Message::Type::Heartbeat:
                break;
              case Message::Type::Obs:
                // Advisory stream; a push for a shard this worker no
                // longer owns (late flush across a reassignment) is
                // simply ignored -- obs can never change campaign
                // outputs.
                if (msg.obs.shard == w.shard && w.slot >= 0) {
                    LiveObs &live = liveObs_[w.shard];
                    live.slot = w.slot;
                    live.pid = static_cast<long>(w.pid);
                    live.chips = msg.obs.chips;
                    live.messages += 1;
                    live.spansDropped = msg.obs.spansDropped;
                    for (obs::RemoteSpan &span : msg.obs.spans)
                        live.spans.push_back(std::move(span));
                    live.metrics = std::move(msg.obs.metrics);
                    obs::WorkerManifest &slot = fold_.workerSlots[
                        static_cast<std::size_t>(w.slot)];
                    slot.pid = static_cast<long>(w.pid);
                    slot.obsMessages += 1;
                }
                break;
              case Message::Type::Result:
                if (msg.result.shard != w.shard) {
                    failWorker(w, "answered for the wrong shard");
                    return;
                }
                finishObs(w);
                fold_.complete(std::move(msg.result));
                attempts_.erase(w.shard);
                notBefore_.erase(w.shard);
                w.shard = -1;
                break;
              case Message::Type::Assign:
              case Message::Type::Exit:
                failWorker(w, "sent a supervisor-only message");
                return;
            }
        }
        if (!open) {
            // EOF: the worker is gone. Reap it here so reapDead()
            // does not double-count the failure.
            const long shard = w.shard;
            if (w.pid >= 0)
                ::waitpid(w.pid, nullptr, 0);
            releaseSlot(w);
            if (shard >= 0)
                recordFailure(shard, "crashed");
        }
    }

    /** A shard completed: move its streamed obs into the fold. */
    void
    finishObs(WorkerProc &w)
    {
        if (w.slot >= 0) {
            obs::WorkerManifest &slot =
                fold_.workerSlots[static_cast<std::size_t>(w.slot)];
            slot.pid = static_cast<long>(w.pid);
            slot.shardsCompleted += 1;
        }
        const auto it = liveObs_.find(w.shard);
        if (it == liveObs_.end())
            return;
        if (w.slot >= 0) {
            obs::WorkerManifest &slot =
                fold_.workerSlots[static_cast<std::size_t>(w.slot)];
            slot.chipsObserved += it->second.chips;
            slot.spanEvents +=
                static_cast<long>(it->second.spans.size());
            slot.spansDropped += it->second.spansDropped;
        }
        obs::ProcessSpans spans;
        spans.pid = it->second.pid;
        spans.shard = static_cast<int>(w.shard);
        spans.dropped = it->second.spansDropped;
        spans.spans = std::move(it->second.spans);
        fold_.shardSpans.emplace(w.shard, std::move(spans));
        liveObs_.erase(it);
    }

    void
    checkWatchdog()
    {
        const Clock::time_point now = Clock::now();
        for (WorkerProc &w : workers_) {
            if (!w.busy())
                continue;
            const double silent =
                std::chrono::duration<double>(now - w.lastSeen).count();
            if (silent > config_.watchdogSeconds)
                failWorker(w, "went silent (watchdog)");
        }
    }

    void
    shutdown(bool halted)
    {
        for (WorkerProc &w : workers_) {
            if (!w.alive())
                continue;
            if (halted) {
                // Halt is a tear-down, possibly mid-shard.
                ::kill(w.pid, SIGKILL);
            } else {
                Message exitMsg;
                exitMsg.type = Message::Type::Exit;
                // Best effort; closing the pipe is the backstop.
                (void)writeAll(w.cmdFd, exitMsg.encode());
            }
            closeQuiet(w.cmdFd);
            ::waitpid(w.pid, nullptr, 0);
            releaseSlot(w);
        }
    }

    const FleetConfig &config_;
    Fold &fold_;
    std::vector<WorkerProc> workers_;
    std::deque<long> runQueue_; ///< Undecided shards, ascending.
    std::map<long, long> attempts_; ///< Failures so far per shard.
    std::map<long, Clock::time_point> notBefore_; ///< Backoff gates.
    std::map<long, LiveObs> liveObs_; ///< In-flight obs per shard.
};

#endif // ATMSIM_FLEET_POSIX

void
validateConfig(const FleetConfig &config)
{
    if (config.workers < 0)
        util::fatal("fleet: --workers must be >= 0, got ",
                    config.workers);
    if (config.workers == 0 && config.failInject.enabled())
        util::fatal("fleet: --fail-inject needs forked workers "
                    "(--workers >= 1)");
    if (config.shardSize <= 0)
        util::fatal("fleet: --shard-size must be positive, got ",
                    config.shardSize);
    if (config.checkpointEvery <= 0)
        util::fatal("fleet: --checkpoint-every must be positive, got ",
                    config.checkpointEvery);
    if (config.maxRetries < 0)
        util::fatal("fleet: --max-retries must be >= 0, got ",
                    config.maxRetries);
    if (config.watchdogSeconds <= 0.0)
        util::fatal("fleet: --watchdog-seconds must be positive");
    if (config.backoffSeconds < 0.0)
        util::fatal("fleet: --backoff-seconds must be >= 0");
    if (config.resume && config.checkpointDir.empty())
        util::fatal("fleet: --resume needs a checkpoint directory");
    if (config.strictResume && !config.resume)
        util::fatal("fleet: --strict-resume only makes sense with "
                    "--resume");
}

} // namespace

FleetResult
runFleetCampaign(const FleetConfig &config)
{
    validateConfig(config);
    Fold fold(config);

    if (config.resume) {
        CheckpointLoadResult loaded =
            loadCheckpoint(config.checkpointDir, fold.fingerprint());
        if (loaded.status == CheckpointStatus::Loaded) {
            fold.restore(std::move(loaded.data));
            util::inform("fleet: resumed at shard ", fold.decided,
                         " of ", fold.shardCount(), " (",
                         fold.pending.size(), " buffered)");
        } else if (config.strictResume) {
            util::fatal("fleet: --strict-resume: ",
                        checkpointStatusName(loaded.status), ": ",
                        loaded.message);
        } else {
            util::warn("fleet: cannot resume (",
                       checkpointStatusName(loaded.status), ": ",
                       loaded.message, "); starting fresh");
        }
    }

    bool halted = false;
    if (fold.decided < fold.shardCount()) {
        if (config.workers <= 0) {
            runInProcess(config, fold, halted);
        } else {
#if defined(ATMSIM_FLEET_POSIX)
            ForkedDriver driver(config, fold);
            driver.run(halted);
#else
            util::fatal("fleet: forked workers need a POSIX platform; "
                        "use --workers 0");
#endif
        }
    }
    fold.advance();
    fold.maybeCheckpoint(/*force=*/true);

    FleetResult out;
    out.halted = halted;
    out.stats = std::move(fold.stats);
    out.metrics = fold.registry.snapshot();
    obs::FleetManifest &cov = out.coverage;
    cov.present = true;
    cov.shardsTotal = fold.shardCount();
    cov.shardsFailed = static_cast<long>(fold.failedShards.size());
    cov.shardsCompleted = fold.decided - cov.shardsFailed;
    cov.chipsTotal = config.population.chipCount;
    cov.chipsDone = fold.chipsDone;
    cov.chipsSkipped = fold.chipsSkipped;
    cov.retries = fold.totalRetries;
    cov.checkpointsWritten = fold.checkpointsWritten;
    cov.resumed = fold.resumed;
    for (const auto &[shard, count] : fold.retriesByShard)
        cov.shardRetries.emplace_back(shard, count);
    cov.failedShards = fold.failedShards;
    cov.workersConfigured = config.workers;

    // Merged-trace span batches, ascending by shard (map order).
    for (auto &[shard, spans] : fold.shardSpans)
        out.spanBatches.push_back(std::move(spans));

    // workers[]: per-slot observability plus the partial records of
    // abandoned shards, keyed by slot index. A resumed campaign may
    // carry partials owned by slots of the previous process (or of a
    // larger pool); synthetic entries keep those visible instead of
    // dropping them.
    std::map<long, obs::WorkerManifest> slots;
    for (const obs::WorkerManifest &slot : fold.workerSlots)
        slots.emplace(slot.worker, slot);
    std::sort(fold.abandonedPartials.begin(),
              fold.abandonedPartials.end(),
              [](const AbandonedPartial &a, const AbandonedPartial &b) {
                  return a.shard < b.shard;
              });
    std::map<long, obs::MetricsRegistry> partialRegs;
    for (const AbandonedPartial &p : fold.abandonedPartials) {
        obs::WorkerManifest &wm = slots[p.worker];
        wm.worker = p.worker;
        if (wm.pid == 0)
            wm.pid = p.pid;
        wm.partial.present = true;
        wm.partial.shards.push_back(p.shard);
        wm.partial.chipsObserved += p.chipsObserved;
        // Partials fold per worker in shard order (the sort above),
        // through the same histogram-layout machinery as campaign
        // metrics -- but into a registry of their own, never the
        // campaign fold.
        partialRegs[p.worker].mergeFrom(p.metrics);
    }
    for (auto &[worker, wm] : slots) {
        if (wm.partial.present)
            wm.partial.metrics = partialRegs[worker].snapshot();
        cov.workers.push_back(std::move(wm));
    }
    return out;
}

} // namespace atmsim::fleet
