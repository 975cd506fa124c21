#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <unordered_set>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace atmsim::util {

namespace {

Mutex g_mutex;
// Read on every logMessage() call without the lock; atomic so the
// hot-path filter stays lock-free.
std::atomic<LogLevel> g_level{LogLevel::Warn};
LogSink *g_sink ATM_GUARDED_BY(g_mutex) = nullptr;
std::string g_context ATM_GUARDED_BY(g_mutex);
std::unordered_set<std::string> g_warned_keys
    ATM_GUARDED_BY(g_mutex);

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

/** UTC wall-clock timestamp for the default stderr sink. */
std::string
wallTimestamp()
{
    const auto now = std::chrono::system_clock::now();
    const std::time_t secs = std::chrono::system_clock::to_time_t(now);
    const auto millis =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now.time_since_epoch())
            .count()
        % 1000;
    std::tm tm_utc{};
    gmtime_r(&secs, &tm_utc);
    // Sized for any int in every field, so -Wformat-truncation can
    // prove the write fits.
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                  tm_utc.tm_year + 1900, tm_utc.tm_mon + 1,
                  tm_utc.tm_mday, tm_utc.tm_hour, tm_utc.tm_min,
                  tm_utc.tm_sec, static_cast<int>(millis));
    return buf;
}

} // namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
setLogSink(LogSink *sink)
{
    MutexLock lock(g_mutex);
    g_sink = sink;
}

void
setLogContext(const std::string &context)
{
    MutexLock lock(g_mutex);
    g_context = context;
}

std::string
logContext()
{
    MutexLock lock(g_mutex);
    return g_context;
}

void
logMessage(LogLevel level, const std::string &msg)
{
    if (level < g_level.load(std::memory_order_relaxed))
        return;
    MutexLock lock(g_mutex);
    if (g_sink) {
        g_sink->write(level, msg);
        return;
    }
    std::cerr << "[" << levelTag(level) << " " << wallTimestamp()
              << "] ";
    if (!g_context.empty())
        std::cerr << g_context << " | ";
    std::cerr << msg << "\n";
}

bool
warnOnceArm(const std::string &key)
{
    MutexLock lock(g_mutex);
    return g_warned_keys.insert(key).second;
}

void
resetWarnOnce()
{
    MutexLock lock(g_mutex);
    g_warned_keys.clear();
}

void
fatalImpl(const std::string &msg)
{
    logMessage(LogLevel::Error, "fatal: " + msg);
    throw FatalError(msg);
}

void
panicImpl(const std::string &msg)
{
    logMessage(LogLevel::Error, "panic: " + msg);
    throw PanicError(msg);
}

} // namespace atmsim::util
