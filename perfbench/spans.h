/// \file
/// The traced run's span log: the benchmark's own record of each call it
/// makes into a layer (name, start, end, parent span, run id). Spans stay
/// in memory and are written out once, when the run ends. A disabled log
/// records nothing, so the timed runs pay one branch per span site.

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class SpanLog {
  public:
    struct Span {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
    };

    SpanLog(bool enabled, std::string run_id)
        : enabled_(enabled), run_id_(std::move(run_id))
    {}

    /// Opens a span on the calling thread (its parent is the thread's
    /// innermost open span). Returns -1 when disabled.
    int
    begin(const std::string& name)
    {
        if (!enabled_) {
            return -1;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<int>& stack = open_[std::this_thread::get_id()];
        spans_.push_back({name, now_s(), 0, stack.empty() ? -1 : stack.back()});
        stack.push_back(static_cast<int>(spans_.size()) - 1);
        return stack.back();
    }

    void
    end(int id)
    {
        if (id < 0) {
            return;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<size_t>(id)].end = now_s();
        std::vector<int>& stack = open_[std::this_thread::get_id()];
        if (!stack.empty() && stack.back() == id) {
            stack.pop_back();
        }
    }

    /// Records an already-measured interval (a rung residency read from
    /// the runtime's transition log) under the thread's open span.
    void
    add(const std::string& name, double start, double end)
    {
        if (!enabled_) {
            return;
        }
        std::lock_guard<std::mutex> lock(mutex_);
        const std::vector<int>& stack = open_[std::this_thread::get_id()];
        spans_.push_back({name, start, end, stack.empty() ? -1 : stack.back()});
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /// Writes {"run": id, "spans": [{name, start_s, end_s, parent}...]}
    /// with times relative to the first span.
    bool
    write_json(const std::string& path) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::ofstream out(path);
        if (!out) {
            return false;
        }
        const double t0 = spans_.empty() ? 0 : spans_.front().start;
        out << "{\"run\":\"" << run_id_ << "\",\"spans\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "\",\"start_s\":%.6f,\"end_s\":%.6f,\"parent\":%d}",
                          s.start - t0, s.end - t0, s.parent);
            out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name << buf;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    const bool enabled_;
    const std::string run_id_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::thread::id, std::vector<int>> open_; ///< thread -> open span ids
};

/// Closes its span when it goes out of scope.
class SpanScope {
  public:
    SpanScope(SpanLog& log, const std::string& name)
        : log_(log), id_(log.begin(name))
    {}
    ~SpanScope() { log_.end(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    SpanLog& log_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
