/// \file
/// The end-to-end benchmark of the JIT ladder (see README.md beside this
/// file). One process runs one workload with one seed:
///
///   perfbench --workload <pow_ladder|regex_stream|edit_loop|shared_fabric>
///             --seed <n> --seconds <s> --trace <0|1>
///
/// Every workload runs an all-tier session, which climbs interpreter ->
/// JIT kernel -> fabric from a cold JIT cache, and a software-only session
/// of the same design, and checks both sessions' outputs against the host
/// references in reference.h. The benchmark is closed-loop: it calls the
/// runtime, waits for it, and drives it from at most three threads.
/// All timing is taken from outside the program, through its public API.
///
/// The last stdout line is one JSON object: {"correct", "attempted",
/// "failed", "metrics"}. Untraced runs report the end-to-end metrics;
/// traced runs (--trace 1) replay the workload's design through the
/// standalone layer calls under spans and report the per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fpga/bitstream.h"
#include "fpga/compile.h"
#include "fpga/synth.h"
#include "hypervisor/fabric_manager.h"
#include "ir/hw_wrapper.h"
#include "jit/codegen.h"
#include "jit/jit_cache.h"
#include "jit/jit_kernel.h"
#include "reference.h"
#include "runtime/runtime.h"
#include "service/compile_service.h"
#include "sim/interpreter.h"
#include "spans.h"
#include "telemetry/sync.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "verilog/elaborate.h"
#include "verilog/parser.h"
#include "workloads/workloads.h"

namespace {

using cascade::runtime::Location;
using cascade::runtime::Runtime;
using perfbench::now_s;

/// Taken during static initialization, before main: set-up time counts
/// from here.
const double g_process_start = now_s();

/// Shares of --seconds the measured windows last: the software-only
/// sessions together, and the fabric's plateau after adoption.
constexpr double kSoftwareShare = 0.5;
constexpr double kPlateauShare = 0.25;
/// The software-only window is split over this many fresh sessions, so
/// that no one session's memory layout sets the rate.
constexpr int kSoftwareSessions = 2;
/// No rung adoption may take longer than this (wall seconds per session).
constexpr double kClimbTimeoutS = 100;
/// The traced run's span log (disabled, and so free, in timed runs).
perfbench::SpanLog* g_spans = nullptr;

/// Every all-tier session places with this seed, so its compile is the
/// same work on every run.
constexpr uint64_t kPlacementSeed = 7;

/// Runtime::Options::open_loop_target_wall_s as a user leaves it.
const double kDefaultGrantTargetS = Runtime::Options().open_loop_target_wall_s;

constexpr uint32_t kPowZeroBits = 8;
constexpr int kEdits = 12;
constexpr int kTenants = 3;

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/// splitmix64: the benchmark's only source of input randomness.
class Rng {
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t s_;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What one run reports: the check verdicts, the operation counts, and the
/// metrics of the requested kind.
struct Report {
    bool correct = true;
    /// False when an operation failed in a way that left a metric
    /// unmeasured; such a run exits nonzero.
    bool complete = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;
    std::vector<Metric> metrics;

    void
    check(const std::string& what, const std::string& error)
    {
        if (!error.empty()) {
            correct = false;
            problems.push_back(what + ": " + error);
        }
    }
    void
    fail(const std::string& why, bool measured = false)
    {
        ++failed;
        complete = complete && measured;
        problems.push_back(why);
    }
    void
    add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }
};

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Replaces the one occurrence of \p from in \p text; a workload source
/// that no longer has it is a benchmark bug, so the run stops.
std::string
replace_once(std::string text, const std::string& from,
             const std::string& to)
{
    const size_t at = text.find(from);
    if (at == std::string::npos ||
        text.find(from, at + from.size()) != std::string::npos) {
        std::fprintf(stderr, "perfbench: workload source lost \"%s\"\n",
                     from.c_str());
        std::exit(2);
    }
    return text.replace(at, from.size(), to);
}

/// Collects a runtime's display output as whole lines.
struct Lines {
    std::vector<std::string> lines;
    std::string partial;
    void
    attach(Runtime& rt)
    {
        rt.on_output = [this](const std::string& text) {
            partial += text;
            size_t nl = 0;
            while ((nl = partial.find('\n')) != std::string::npos) {
                lines.push_back(partial.substr(0, nl));
                partial.erase(0, nl + 1);
            }
        };
    }
};

uint64_t
peek(Runtime& rt, const std::string& signal)
{
    std::string err;
    const auto v = rt.debug_peek(signal, &err);
    if (!v.has_value()) {
        std::fprintf(stderr, "perfbench: debug_peek %s: %s\n",
                     signal.c_str(), err.c_str());
        return UINT64_MAX;
    }
    return v->to_uint64();
}

bool
on_fabric(Location loc)
{
    return loc == Location::Hardware || loc == Location::HardwareForwarded ||
           loc == Location::Native;
}

/// Wall time on this process's steady clock of a tracer timestamp (the
/// transition log stamps adoptions with the global tracer's clock).
double
tracer_wall(double trace_us)
{
    static const double offset =
        now_s() - cascade::telemetry::Tracer::global().now_us() * 1e-6;
    return offset + trace_us * 1e-6;
}

/// The work a workload's user sees done: virtual ticks, or for the
/// streaming matcher the bytes it consumed. feed() keeps the input queue
/// topped up before each scheduler call.
struct Work {
    std::function<uint64_t()> count;
    std::function<void()> feed = [] {};
};

/// A runtime's position at one instant.
struct Mark {
    double wall = -1;
    uint64_t ticks = 0;
    uint64_t work = 0;
    uint64_t iterations = 0;
    double timeline = 0;
    bool valid() const { return wall >= 0; }
};

Mark
mark(const Runtime& rt, const Work& work)
{
    return {now_s(), rt.virtual_ticks(), work.count(),
            rt.scheduler_iterations(), rt.timeline_seconds()};
}

/// Cuts a rung's residency into back-to-back slices of at least
/// kSliceS and keeps each slice's rates. A rung's rate is its median
/// slice, so one stalled slice (a host hiccup, an oversized grant) does
/// not move it.
class Slicer {
  public:
    void begin(const Mark& m) { start_ = m; }

    void
    add(const Mark& m)
    {
        if (!start_.valid() || m.wall - start_.wall < kSliceS) {
            return;
        }
        const double dt = m.wall - start_.wall;
        const double dtl = m.timeline - start_.timeline;
        const auto dwork = static_cast<double>(m.work - start_.work);
        work_.push_back(dwork / dt);
        ticks_.push_back(static_cast<double>(m.ticks - start_.ticks) / dt);
        if (dtl > 0) {
            modeled_.push_back(dwork / dtl);
        }
        iterations_ += m.iterations - start_.iterations;
        ticks_total_ += m.ticks - start_.ticks;
        start_ = m;
    }

    double work_per_s() const { return median(work_); }
    double ticks_per_s() const { return median(ticks_); }
    double modeled_work_per_s() const { return median(modeled_); }
    double
    iters_per_tick() const
    {
        return ticks_total_ > 0 ? static_cast<double>(iterations_) /
                                      static_cast<double>(ticks_total_)
                                : 0;
    }

  private:
    static constexpr double kSliceS = 0.25;
    Mark start_;
    std::vector<double> work_;
    std::vector<double> ticks_;
    std::vector<double> modeled_;
    uint64_t iterations_ = 0;
    uint64_t ticks_total_ = 0;
};

/// Steps an all-tier runtime one scheduler iteration per call and notes
/// where it stood when it adopted the JIT kernel and the fabric. Rung
/// residency comes from Runtime::transitions(): the iteration that adopts
/// a rung also runs the first open-loop grant on it, so the position just
/// before that call is the position at adoption, and the transition's own
/// stamps give its wall and modeled time.
///
/// The fabric's plateau starts once its open-loop grants have adapted:
/// after the first call on the fabric that took no longer than the
/// adaptive loop's own upper bound (1.5 x the grant target). The first
/// fabric grant is sized for the faster rung before it and can last many
/// times the target. Runtimes that share a fabric share a Fleet, and their
/// plateaus start only once every one of them is fabric-resident.
struct Fleet {
    int size = 1;
    std::atomic<int> resident{0};
};

class Climber {
  public:
    Climber(Runtime& rt, Work work, double grant_target_s,
            Fleet* fleet = nullptr)
        : rt_(rt), work_(std::move(work)), seen_(rt.transitions().size()),
          plateau_call_s_(1.5 * grant_target_s), fleet_(fleet)
    {}

    void
    step()
    {
        work_.feed();
        const Mark before = mark(rt_, work_);
        const bool resident = fabric_.valid();
        rt_.run(1);
        const Mark after = mark(rt_, work_);
        plateau_.add(after);
        if (resident && !steady_.valid() &&
            after.wall - before.wall <= plateau_call_s_ &&
            (fleet_ == nullptr || fleet_->resident.load() == fleet_->size)) {
            steady_ = after;
            plateau_.begin(after);
        }
        const bool was_on_jit = jit_.valid() && !fabric_.valid();
        const auto& log = rt_.transitions();
        for (; seen_ < log.size(); ++seen_) {
            Mark at = before;
            at.wall = tracer_wall(log[seen_].trace_ts_us);
            at.timeline = log[seen_].timeline_seconds;
            if (log[seen_].to == Location::Jit && !jit_.valid() &&
                !fabric_.valid()) {
                jit_ = at;
                jit_slices_.begin(at);
            } else if (on_fabric(log[seen_].to) && !fabric_.valid()) {
                fabric_ = at;
                count_resident();
            }
        }
        if (was_on_jit && !fabric_.valid()) {
            jit_slices_.add(after);
        }
    }

    /// Counts this runtime as resident in its fleet (once), so that the
    /// others' plateaus can start; climb() calls it also when the runtime
    /// gives up short of the fabric.
    void
    count_resident()
    {
        if (fleet_ != nullptr && !counted_) {
            counted_ = true;
            ++fleet_->resident;
        }
    }

    Runtime& runtime() { return rt_; }
    Mark now() const { return mark(rt_, work_); }
    const Mark& jit() const { return jit_; }
    const Mark& fabric() const { return fabric_; }
    const Mark& steady() const { return steady_; }
    const Slicer& jit_slices() const { return jit_slices_; }
    const Slicer& plateau() const { return plateau_; }

  private:
    Runtime& rt_;
    Work work_;
    size_t seen_;
    const double plateau_call_s_;
    Fleet* fleet_;
    bool counted_ = false;
    Mark jit_;
    Mark fabric_;
    Mark steady_;
    Slicer jit_slices_;
    Slicer plateau_;
};

/// What one all-tier session measured.
struct Ladder {
    double eval_wall = 0; ///< the last eval started
    Mark jit, fabric, end;
    Slicer on_jit, on_fabric;
    bool ok = false;
};

/// Climbs to the fabric, then measures \p window seconds of its plateau.
/// \p c must have been made right after the eval, so that no adoption
/// slips past it.
Ladder
climb(Climber& c, double eval_wall, double window)
{
    Runtime& rt = c.runtime();
    Ladder out;
    out.eval_wall = eval_wall;
    const double deadline = now_s() + kClimbTimeoutS;
    while (!rt.finished() && now_s() < deadline) {
        c.step();
        if (c.steady().valid() && now_s() >= c.steady().wall + window) {
            out.ok = c.jit().valid();
            break;
        }
    }
    out.jit = c.jit();
    out.fabric = c.fabric();
    out.end = c.now();
    out.on_jit = c.jit_slices();
    out.on_fabric = c.plateau();
    c.count_resident();
    g_spans->add("runtime.software", eval_wall, out.jit.wall);
    g_spans->add("runtime.jit", out.jit.wall, out.fabric.wall);
    g_spans->add("runtime.fabric", out.fabric.wall, out.end.wall);
    return out;
}

/// Runs a software-only runtime for \p window seconds, adding its slices
/// to \p slices.
void
run_software(Runtime& rt, const Work& work, double window, Slicer* slices)
{
    const Mark a = mark(rt, work);
    slices->begin(a);
    while (!rt.finished() && now_s() < a.wall + window) {
        work.feed();
        rt.run(256);
        slices->add(mark(rt, work));
    }
}

/// Runs until the first virtual tick has executed; returns the wall time.
double
first_tick(Climber& c)
{
    while (c.runtime().virtual_ticks() == 0 && !c.runtime().finished()) {
        c.step();
    }
    return now_s();
}

/// Evaluates \p source, timing it; counts a rejected eval as failed.
bool
timed_eval(Runtime& rt, const std::string& source, Report* report,
           std::vector<double>* evals, double* started = nullptr)
{
    ++report->attempted;
    std::string errors;
    const double t0 = now_s();
    const bool ok = rt.eval(source, &errors);
    if (evals != nullptr) {
        evals->push_back(now_s() - t0);
    }
    if (started != nullptr) {
        *started = t0;
    }
    if (!ok) {
        report->fail("eval rejected: " + errors);
    }
    return ok;
}

/// Brings the session to a tick boundary (just after a negedge), where
/// every posedge's register updates and display lines are through.
void
settle(Runtime& rt)
{
    rt.run_for_ticks(1);
}

std::string
stats_field(const std::string& json, const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    const size_t at = json.find(needle);
    if (at == std::string::npos) {
        return {};
    }
    const size_t from = at + needle.size();
    const size_t to = json.find_first_of(",}", from);
    return json.substr(from, to - from);
}

/// The all-tier runtime counters the traced run reads after a session.
struct SessionCounters {
    uint64_t grants = 0;
    double grant_max_s = 0;
    double cache_hit_rate = 0;
    uint64_t journal_events = 0;
    uint64_t ticks = 0;
    std::optional<cascade::fpga::CompileReport> report;
};

SessionCounters
read_counters(Runtime& rt)
{
    SessionCounters c;
    const cascade::telemetry::Histogram* wall =
        rt.telemetry().histogram("openloop.wall_ns");
    c.grants = wall->count();
    c.grant_max_s = static_cast<double>(wall->max()) * 1e-9;
    c.cache_hit_rate =
        std::strtod(stats_field(rt.stats_json(), "cache_hit_rate").c_str(),
                    nullptr);
    c.journal_events = rt.journal().events_recorded();
    c.ticks = rt.virtual_ticks();
    c.report = rt.last_compile_report();
    return c;
}

/// Everything a workload hands to the reporting step.
struct Measured {
    double setup_s = 0;
    std::vector<double> evals; ///< all-tier eval latencies
    /// Ready times (eval -> every runtime on the rung) and rung rates,
    /// summed over runtimes.
    double jit_ready_s = 0;
    double fabric_ready_s = 0;
    double sw_work_per_s = 0;
    double jit_work_per_s = 0;
    double fabric_work_per_s = 0;
    double fabric_virtual_work_per_s = 0;
    /// Layer counters.
    double sw_ticks_per_s = 0; ///< summed over sw_runtimes runtimes
    int sw_runtimes = 0;
    double iters_per_tick_sw = 0;
    double iters_per_tick_jit = 0;
    double iters_per_tick_fabric = 0;
    double openloop_work = 0; ///< work done on open-loop rungs
    SessionCounters counters;
    double lock_wait_s = 0;
    double service_hit_rate = -1; ///< shared service (shared_fabric only)
};

void
fold_ladder(const Ladder& l, Measured* m)
{
    m->jit_ready_s = std::max(m->jit_ready_s, l.jit.wall - l.eval_wall);
    m->fabric_ready_s =
        std::max(m->fabric_ready_s, l.fabric.wall - l.eval_wall);
    m->jit_work_per_s += l.on_jit.work_per_s();
    m->fabric_work_per_s += l.on_fabric.work_per_s();
    m->fabric_virtual_work_per_s += l.on_fabric.modeled_work_per_s();
    m->iters_per_tick_jit = l.on_jit.iters_per_tick();
    m->iters_per_tick_fabric = l.on_fabric.iters_per_tick();
    m->openloop_work += static_cast<double>(l.end.work - l.jit.work);
}

void
fold_software(const Slicer& w, Measured* m)
{
    m->sw_work_per_s += w.work_per_s();
    m->sw_ticks_per_s += w.ticks_per_s();
    ++m->sw_runtimes;
    m->iters_per_tick_sw = w.iters_per_tick();
}

Runtime::Options
all_tiers(double effort)
{
    Runtime::Options o;
    o.compile_effort = effort;
    o.compile_seed = kPlacementSeed;
    return o;
}

Runtime::Options
software_only()
{
    Runtime::Options o;
    o.enable_hardware = false;
    return o;
}

// ---------------------------------------------------------------------------
// pow_ladder: the §6.1 miner, one golden nonce per ~256 candidates.

constexpr double kPowEffort = 0.3;

std::string
pow_source(uint32_t start)
{
    return replace_once(
        cascade::workloads::proof_of_work_source(kPowZeroBits, true),
        "reg [31:0] nonce = 0;",
        "reg [31:0] nonce = 32'd" + std::to_string(start) + ";");
}

std::string
pow_module(uint32_t start)
{
    return replace_once(
        cascade::workloads::proof_of_work_module(kPowZeroBits),
        "reg [31:0] nonce = 0;",
        "reg [31:0] nonce = 32'd" + std::to_string(start) + ";");
}

/// Counts the display lines whose nonce falls in [begin, end).
uint64_t
lines_in_sweep(const Lines& out, uint32_t begin, uint32_t end)
{
    uint64_t n = 0;
    for (const std::string& line : out.lines) {
        unsigned nonce = 0;
        unsigned hash = 0;
        if (std::sscanf(line.c_str(), "nonce %x -> hash %x", &nonce,
                        &hash) == 2 &&
            static_cast<uint32_t>(nonce - begin) < end - begin) {
            ++n;
        }
    }
    return n;
}

/// Checks a miner session: against the design's own counters (a failure
/// makes the run incorrect), then against SHA-256 as an operation of its
/// own. The workload's miner is not SHA-256 (its final word adds the
/// round-63 working variable a to the digest's first word), so that
/// operation fails on every session that displayed a hit, and is counted
/// in `failed`; every session displays at least one.
///
/// The nonce, hits and LED registers are read together at a tick
/// boundary. Lines displayed by the last open-loop grant wait in the
/// runtime's interrupt queue until its next scheduler window, so the
/// session then runs on, one iteration at a time, until every hit the
/// hits register counts has been delivered, for at most kDrainS.
void
check_pow_session(Runtime& rt, const Lines& out, uint32_t start,
                  const char* session, Report* report)
{
    constexpr double kDrainS = 30;
    settle(rt);
    const auto end = static_cast<uint32_t>(peek(rt, "nonce"));
    const uint64_t hits = peek(rt, "hits");
    const uint64_t led = rt.led_state().to_uint64();
    const double deadline = now_s() + kDrainS;
    while (lines_in_sweep(out, start, end) < hits && now_s() < deadline &&
           !rt.finished()) {
        rt.run(1);
    }
    const auto limit = static_cast<uint32_t>(peek(rt, "nonce"));
    report->check(session, perfbench::check_pow(out.lines, start, end, limit,
                                                hits, kPowZeroBits, led));
    ++report->attempted;
    const std::string sha = perfbench::check_pow_sha256(
        out.lines, start, end, kPowZeroBits, led);
    if (!sha.empty()) {
        report->fail(std::string(session) + " against SHA-256: " + sha,
                     /*measured=*/true);
    }
}

Measured
pow_ladder(const Args& args, Report* report)
{
    Measured m;
    Rng rng(args.seed);
    const uint32_t start_l = static_cast<uint32_t>(rng.below(1u << 30));
    const uint32_t start_s = static_cast<uint32_t>(rng.below(1u << 30));
    {
        Runtime rt(all_tiers(kPowEffort));
        Lines out;
        out.attach(rt);
        double eval_wall = 0;
        if (!timed_eval(rt, pow_source(start_l), report, &m.evals,
                        &eval_wall)) {
            return m;
        }
        Climber c(rt, {[&rt] { return rt.virtual_ticks(); }},
                  kDefaultGrantTargetS);
        m.setup_s = first_tick(c) - g_process_start;
        const Ladder l = climb(c, eval_wall, kPlateauShare * args.seconds);
        if (!l.ok) {
            report->fail("pow_ladder: all-tier session never reached the "
                         "fabric through the JIT");
            return m;
        }
        fold_ladder(l, &m);
        check_pow_session(rt, out, start_l, "pow_ladder all-tier", report);
        m.counters = read_counters(rt);
    }
    Slicer sw;
    for (int k = 0; k < kSoftwareSessions; ++k) {
        Runtime rt(software_only());
        Lines out;
        out.attach(rt);
        if (!timed_eval(rt, pow_source(start_s), report, nullptr)) {
            return m;
        }
        Work work{[&rt] { return rt.virtual_ticks(); }};
        run_software(rt, work, kSoftwareShare * args.seconds /
                                   kSoftwareSessions,
                     &sw);
        // A hit every ~16k ticks: a session displays several, but runs on
        // until it has displayed one, so that every session is checked.
        const double deadline = now_s() + kClimbTimeoutS;
        while (out.lines.empty() && now_s() < deadline) {
            rt.run(256);
        }
        check_pow_session(rt, out, start_s, "pow_ladder software", report);
    }
    fold_software(sw, &m);
    return m;
}

// ---------------------------------------------------------------------------
// regex_stream: the §6.2 matcher fed through the stdlib FIFO.

constexpr double kRegexEffort = 1.0;
/// Options::open_loop_target_wall_s recommends a small target for
/// IO-bound programs: the FIFO is refilled only between grants.
constexpr double kRegexGrantTargetS = 0.05;

/// Seeded request stream: a mix of matching requests, near misses (upper
/// case, digits, empty path, other methods, a request cut short) and
/// random bytes.
class RequestStream {
  public:
    explicit RequestStream(uint64_t seed) : rng_(seed) {}

    /// Appends at least \p n bytes to pushed() and returns them.
    std::vector<uint8_t>
    next(size_t n)
    {
        std::vector<uint8_t> chunk;
        while (chunk.size() < n) {
            append(&chunk);
        }
        pushed_.insert(pushed_.end(), chunk.begin(), chunk.end());
        return chunk;
    }
    const std::vector<uint8_t>& pushed() const { return pushed_; }

  private:
    std::string
    word(size_t len, char base, int span)
    {
        std::string w;
        for (size_t i = 0; i < len; ++i) {
            w += static_cast<char>(base + rng_.below(span));
        }
        return w;
    }

    void
    append(std::vector<uint8_t>* out)
    {
        std::string s;
        switch (rng_.below(8)) {
        case 0:
        case 1:
        case 2:
            s = "GET /" + word(1 + rng_.below(8), 'a', 26) + " ";
            break;
        case 3:
            s = "GET /" + word(1 + rng_.below(4), 'A', 26) + " ";
            break;
        case 4:
            s = "GET /" + word(2, 'a', 26) + word(1, '0', 10) + " ";
            break;
        case 5:
            s = rng_.below(2) != 0 ? "GET / " : "POST /form ";
            break;
        case 6:
            s = "GGET /" + word(3, 'a', 26) + " G";
            break;
        default:
            for (int i = 0, k = 1 + static_cast<int>(rng_.below(12)); i < k;
                 ++i) {
                s += static_cast<char>(32 + rng_.below(95));
            }
            break;
        }
        out->insert(out->end(), s.begin(), s.end());
    }

    Rng rng_;
    std::vector<uint8_t> pushed_;
};

/// Stops feeding and runs until every pushed byte went through the
/// design, then checks the session.
void
drain_and_check_regex(Runtime& rt, const RequestStream& stream,
                      const char* session, Report* report)
{
    const double deadline = now_s() + 30;
    while (now_s() < deadline &&
           (rt.fifo_backlog() > 0 ||
            peek(rt, "consumed") < stream.pushed().size())) {
        rt.run(1);
    }
    settle(rt);
    report->check(session,
                  perfbench::check_regex(stream.pushed(),
                                         rt.fifo_bytes_consumed(),
                                         peek(rt, "consumed"),
                                         peek(rt, "hits")));
}

Measured
regex_stream(const Args& args, Report* report)
{
    Measured m;
    const std::string source = cascade::workloads::regex_stream_source();
    {
        Runtime::Options o = all_tiers(kRegexEffort);
        o.open_loop_target_wall_s = kRegexGrantTargetS;
        Runtime rt(o);
        RequestStream stream(args.seed * 2 + 1);
        // A grant consumes at most one FIFO (256 bytes); keeping a second
        // FIFO's worth queued means no grant starts short of input.
        Work work{[&rt] { return rt.fifo_bytes_consumed(); },
                  [&rt, &stream] {
                      if (rt.fifo_backlog() < 256) {
                          rt.fifo_push(stream.next(256));
                      }
                  }};
        double eval_wall = 0;
        if (!timed_eval(rt, source, report, &m.evals, &eval_wall)) {
            return m;
        }
        Climber c(rt, work, kRegexGrantTargetS);
        m.setup_s = first_tick(c) - g_process_start;
        const Ladder l = climb(c, eval_wall, kPlateauShare * args.seconds);
        if (!l.ok) {
            report->fail("regex_stream: all-tier session never reached "
                         "the fabric through the JIT");
            return m;
        }
        fold_ladder(l, &m);
        drain_and_check_regex(rt, stream, "regex_stream all-tier", report);
        m.counters = read_counters(rt);
    }
    Slicer sw;
    for (int k = 0; k < kSoftwareSessions; ++k) {
        Runtime rt(software_only());
        RequestStream stream(args.seed * 2 + 2);
        Work work{[&rt] { return rt.fifo_bytes_consumed(); },
                  [&rt, &stream] {
                      if (rt.fifo_backlog() < 1024) {
                          rt.fifo_push(stream.next(1024));
                      }
                  }};
        if (!timed_eval(rt, source, report, nullptr)) {
            return m;
        }
        run_software(rt, work,
                     kSoftwareShare * args.seconds / kSoftwareSessions, &sw);
        drain_and_check_regex(rt, stream, "regex_stream software", report);
    }
    fold_software(sw, &m);
    return m;
}

// ---------------------------------------------------------------------------
// edit_loop: a live session that gains one aligner instance per eval.

constexpr double kEditEffort = 0.05;

std::vector<perfbench::Aligner>
make_aligners(uint64_t seed)
{
    Rng rng(seed);
    std::vector<perfbench::Aligner> out;
    for (int k = 0; k < kEdits; ++k) {
        perfbench::Aligner a;
        a.id = k;
        a.n = 3 + static_cast<int>(rng.below(4));
        a.style = rng.below(2) != 0 ? 2 : 0;
        a.a_mul = 1 + static_cast<int>(rng.below(7));
        a.a_add = static_cast<int>(rng.below(4));
        a.b_mul = 1 + static_cast<int>(rng.below(7));
        a.b_add = static_cast<int>(rng.below(4));
        out.push_back(a);
    }
    return out;
}

/// The aligner as a module of its own: the workload body with the
/// instance's sequences, a labelled score line, and a done flag in place
/// of $finish (the session outlives every aligner).
std::string
aligner_module(const perfbench::Aligner& a)
{
    const std::string k = std::to_string(a.id);
    std::string body =
        cascade::workloads::needleman_wunsch_source(a.n, a.style);
    body = replace_once(body, "seqa[t] = (t * 7 + 3) % 4",
                        "seqa[t] = (t * " + std::to_string(a.a_mul) + " + " +
                            std::to_string(a.a_add) + ") % 4");
    body = replace_once(body, "seqb[t] = (t * 5 + 1) % 4",
                        "seqb[t] = (t * " + std::to_string(a.b_mul) + " + " +
                            std::to_string(a.b_add) + ") % 4");
    body = replace_once(body, "always @(posedge clk.val)\n  if (phase == 0)",
                        "always @(posedge clk)\n  if (done) begin end\n"
                        "  else if (phase == 0)");
    body = replace_once(body, "\"score = %0d\"", "\"score " + k + " = %0d\"");
    body = replace_once(body, "$finish;", "done <= 1;");
    return "module Nw" + k + "(input wire clk);\nreg done = 0;\n" + body +
           "endmodule\n";
}

std::string
aligner_edit(const perfbench::Aligner& a)
{
    const std::string k = std::to_string(a.id);
    return aligner_module(a) + "Nw" + k + " nw" + k + "(.clk(clk.val));\n";
}

/// Applies every edit, each run until its score line appears;
/// \p after_first runs right after the first eval.
bool
apply_edits(Runtime& rt, Lines& out,
            const std::vector<perfbench::Aligner>& aligners, Report* report,
            std::vector<double>* evals, double* last_eval_wall,
            const std::function<void()>& after_first)
{
    for (const perfbench::Aligner& a : aligners) {
        if (!timed_eval(rt, aligner_edit(a), report, evals,
                        last_eval_wall)) {
            return false;
        }
        if (a.id == aligners.front().id) {
            after_first();
        }
        const std::string prefix = "score " + std::to_string(a.id) + " ";
        const double deadline = now_s() + 30;
        while (now_s() < deadline &&
               std::none_of(out.lines.begin(), out.lines.end(),
                            [&](const std::string& l) {
                                return l.rfind(prefix, 0) == 0;
                            })) {
            rt.run(64);
        }
    }
    return true;
}

Measured
edit_loop(const Args& args, Report* report)
{
    Measured m;
    const std::vector<perfbench::Aligner> aligners = make_aligners(args.seed);
    {
        Runtime rt(all_tiers(kEditEffort));
        Lines out;
        out.attach(rt);
        double eval_wall = 0;
        const auto first_edit = [&] {
            while (rt.virtual_ticks() == 0 && !rt.finished()) {
                rt.run(1);
            }
            m.setup_s = now_s() - g_process_start;
        };
        if (!apply_edits(rt, out, aligners, report, &m.evals, &eval_wall,
                         first_edit)) {
            return m;
        }
        Climber c(rt, {[&rt] { return rt.virtual_ticks(); }},
                  kDefaultGrantTargetS);
        const Ladder l = climb(c, eval_wall, kPlateauShare * args.seconds);
        if (!l.ok) {
            report->fail("edit_loop: the final program never reached the "
                         "fabric through the JIT");
            return m;
        }
        fold_ladder(l, &m);
        settle(rt);
        report->check("edit_loop all-tier",
                      perfbench::check_scores(out.lines, aligners));
        m.counters = read_counters(rt);
    }
    Slicer sw;
    for (int k = 0; k < kSoftwareSessions; ++k) {
        Runtime rt(software_only());
        Lines out;
        out.attach(rt);
        double unused = 0;
        if (!apply_edits(rt, out, aligners, report, nullptr, &unused,
                         [] {})) {
            return m;
        }
        Work work{[&rt] { return rt.virtual_ticks(); }};
        run_software(rt, work,
                     kSoftwareShare * args.seconds / kSoftwareSessions, &sw);
        settle(rt);
        report->check("edit_loop software",
                      perfbench::check_scores(out.lines, aligners));
    }
    fold_software(sw, &m);
    return m;
}

// ---------------------------------------------------------------------------
// shared_fabric: three tenants on one FabricManager and one CompileService.

/// Tiny designs place fast; at this effort a tenant's fabric compile
/// still lands after its JIT kernel, so every tenant climbs both rungs.
constexpr double kTenantEffort = 2.0;

std::vector<uint64_t>
tenant_increments(uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> incs;
    while (incs.size() < kTenants) {
        const uint64_t inc = 1 + rng.below(1000);
        if (std::find(incs.begin(), incs.end(), inc) == incs.end()) {
            incs.push_back(inc);
        }
    }
    return incs;
}

std::string
tenant_source(uint64_t inc)
{
    return "reg [15:0] n = 0;\nalways @(posedge clk.val) n <= n + 16'd" +
           std::to_string(inc) + ";\n";
}

std::string
tenant_module(uint64_t inc)
{
    return "module Tenant(input wire clk, output wire [15:0] q);\n"
           "reg [15:0] n = 0;\nalways @(posedge clk) n <= n + 16'd" +
           std::to_string(inc) + ";\nassign q = n;\nendmodule\n";
}

void
check_tenant(Runtime& rt, uint64_t inc, const std::string& session,
             Report* report, std::mutex* mu)
{
    settle(rt);
    const std::string err = perfbench::check_counter(
        peek(rt, "n"), inc, rt.virtual_ticks());
    std::lock_guard<std::mutex> lock(*mu);
    report->check(session, err);
}

Measured
shared_fabric(const Args& args, Report* report)
{
    Measured m;
    const std::vector<uint64_t> incs = tenant_increments(args.seed);
    std::mutex mu; // guards report and m across tenant threads
    {
        cascade::service::CompileService::Config cfg;
        cfg.workers = 2;
        cascade::service::CompileService service(cfg);
        cascade::hypervisor::FabricManager fabric;
        Fleet fleet;
        fleet.size = kTenants;
        double last_first_tick = 0;
        std::vector<Ladder> ladders(kTenants);
        std::vector<std::thread> threads;
        for (int i = 0; i < kTenants; ++i) {
            threads.emplace_back([&, i] {
                Runtime::Options o = all_tiers(kTenantEffort);
                o.open_loop_target_wall_s = 0.02;
                o.tenant_name = "bench-t" + std::to_string(i);
                Runtime rt(o, service, fabric);
                rt.on_output = [](const std::string&) {};
                {
                    std::lock_guard<std::mutex> lock(mu);
                    ++report->attempted;
                }
                std::string errors;
                const double eval_wall = now_s();
                const bool ok = rt.eval(tenant_source(incs[i]), &errors);
                const double eval_s = now_s() - eval_wall;
                if (!ok) {
                    std::lock_guard<std::mutex> lock(mu);
                    report->fail("tenant eval rejected: " + errors);
                    ++fleet.resident;
                    return;
                }
                Climber c(rt, {[&rt] { return rt.virtual_ticks(); }},
                          o.open_loop_target_wall_s, &fleet);
                const double ticked = first_tick(c);
                {
                    std::lock_guard<std::mutex> lock(mu);
                    m.evals.push_back(eval_s);
                    last_first_tick = std::max(last_first_tick, ticked);
                }
                const Ladder l =
                    climb(c, eval_wall, kPlateauShare * args.seconds);
                check_tenant(rt, incs[i],
                             "shared_fabric tenant " + std::to_string(i),
                             report, &mu);
                const auto waits =
                    cascade::telemetry::SyncRegistry::global().tenant_waits();
                const auto w = waits.find(rt.tenant_id());
                std::lock_guard<std::mutex> lock(mu);
                if (w != waits.end()) {
                    m.lock_wait_s += static_cast<double>(w->second) * 1e-9;
                }
                ladders[i] = l;
                if (i == 0) {
                    m.counters = read_counters(rt);
                }
            });
        }
        for (std::thread& t : threads) {
            t.join();
        }
        double first_eval = ladders[0].eval_wall;
        std::vector<double> jit_ready;
        for (const Ladder& l : ladders) {
            first_eval = std::min(first_eval, l.eval_wall);
            jit_ready.push_back(l.jit.wall - l.eval_wall);
        }
        m.setup_s = last_first_tick - g_process_start;
        for (Ladder& l : ladders) {
            l.eval_wall = first_eval;
            if (!l.ok) {
                report->fail("shared_fabric: a tenant did not climb "
                             "JIT -> fabric");
                return m;
            }
            fold_ladder(l, &m);
        }
        // Tenants reach the JIT at once (their builds run side by side), so
        // the median tenant's own eval -> JIT time stands for the fleet.
        m.jit_ready_s = median(jit_ready);
        m.service_hit_rate = service.cache_hit_rate();
    }
    {
        std::vector<Slicer> windows(kTenants);
        std::vector<std::thread> threads;
        for (int i = 0; i < kTenants; ++i) {
            threads.emplace_back([&, i] {
                Runtime rt(software_only());
                rt.on_output = [](const std::string&) {};
                {
                    std::lock_guard<std::mutex> lock(mu);
                    ++report->attempted;
                }
                std::string errors;
                if (!rt.eval(tenant_source(incs[i]), &errors)) {
                    std::lock_guard<std::mutex> lock(mu);
                    report->fail("tenant eval rejected: " + errors);
                    return;
                }
                Work work{[&rt] { return rt.virtual_ticks(); }};
                run_software(rt, work, kSoftwareShare * args.seconds,
                             &windows[i]);
                check_tenant(rt, incs[i],
                             "shared_fabric software " + std::to_string(i),
                             report, &mu);
            });
        }
        for (std::thread& t : threads) {
            t.join();
        }
        for (const auto& w : windows) {
            fold_software(w, &m);
        }
    }
    return m;
}

// ---------------------------------------------------------------------------
// The traced run's standalone layer replay.

/// Receives the display output of the standalone interpreter.
class NullTasks : public cascade::sim::SystemTaskHandler {
  public:
    void on_display(const std::string&) override {}
    void on_write(const std::string&) override {}
    void on_finish() override {}
    uint64_t current_time() const override { return 0; }
};

/// Median wall time of \p reps calls of \p fn, each under a span.
double
timed(perfbench::SpanLog& spans, const std::string& name, int reps,
      const std::function<void()>& fn)
{
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        perfbench::SpanScope span(spans, name);
        const double t0 = now_s();
        fn();
        t.push_back(now_s() - t0);
    }
    return median(t);
}

/// Replays one design (the last module in \p source)
/// through the layers a background compile crosses, timing each call.
void
replay_layers(const std::string& source, double effort,
              perfbench::SpanLog& spans, Report* report)
{
    using namespace cascade;
    perfbench::SpanScope root(spans, "replay");
    constexpr int kReps = 5;
    Diagnostics diags;
    verilog::SourceUnit unit;
    report->add("verilog.parse_s",
                timed(spans, "verilog.parse", kReps,
                      [&] {
                          Diagnostics d;
                          unit = verilog::parse(source, &d);
                      }),
                "s");
    if (unit.modules.empty()) {
        report->fail("replay: the design does not parse");
        return;
    }
    std::shared_ptr<const verilog::ElaboratedModule> em;
    report->add("verilog.elaborate_s",
                timed(spans, "verilog.elaborate", kReps,
                      [&] {
                          verilog::Elaborator elab(&diags);
                          em = elab.elaborate(*unit.modules.back());
                      }),
                "s");
    if (em == nullptr) {
        report->fail("replay: the design does not elaborate: " +
                     diags.str());
        return;
    }
    ir::WrapperMap map;
    std::unique_ptr<verilog::ModuleDecl> wrapper;
    report->add("ir.wrap_s",
                timed(spans, "ir.wrap", kReps,
                      [&] {
                          map = ir::WrapperMap();
                          wrapper = ir::generate_hw_wrapper(*em, "clk", &map,
                                                            &diags);
                      }),
                "s");
    std::shared_ptr<const verilog::ElaboratedModule> wem;
    if (wrapper != nullptr) {
        verilog::Elaborator elab(&diags);
        wem = elab.elaborate(*wrapper);
    }
    if (wem == nullptr) {
        report->fail("replay: the wrapper does not elaborate: " +
                     diags.str());
        return;
    }
    std::unique_ptr<fpga::Netlist> plain;
    std::unique_ptr<fpga::Netlist> wrapped;
    timed(spans, "fpga.synthesize", 1,
          [&] { plain = fpga::synthesize(*em, &diags); });
    const double synth_s = timed(spans, "fpga.synthesize", 1, [&] {
        wrapped = fpga::synthesize(*wem, &diags);
    });
    report->add("ir.wrapped_cells_ratio",
                plain != nullptr && wrapped != nullptr && plain->size() > 0
                    ? static_cast<double>(wrapped->size()) /
                          static_cast<double>(plain->size())
                    : 0,
                "ratio");

    fpga::CompileOptions copts;
    copts.effort = effort;
    copts.seed = kPlacementSeed;
    fpga::CompileResult result;
    timed(spans, "fpga.compile", 1,
          [&] { result = fpga::compile(*wem, copts); });
    if (!result.ok) {
        report->fail("replay: fpga::compile failed: " + result.error);
        return;
    }
    const fpga::CompileReport& r = result.report;
    report->add("fpga.synth_s", synth_s, "s");
    report->add("fpga.techmap_s", r.techmap_seconds, "s");
    report->add("fpga.place_s", r.place_seconds, "s");
    report->add("fpga.timing_s", r.timing_seconds, "s");
    report->add("fpga.anneal_moves", static_cast<double>(r.anneal_moves),
                "count");
    report->add("fpga.fmax_mhz", r.timing.fmax_mhz, "MHz");
    report->add("fpga.les", static_cast<double>(r.area.les), "count");

    std::string err;
    std::unique_ptr<fpga::Bitstream> bits;
    timed(spans, "fpga.program", 1, [&] {
        bits = fpga::FpgaDevice().program(result, &err, true);
    });
    if (bits == nullptr) {
        report->fail("replay: FpgaDevice::program failed: " + err);
        return;
    }
    constexpr int kFabricCycles = 2000;
    report->add("fpga.bitstream_cycle_us",
                1e6 *
                    timed(spans, "fpga.bitstream_cycles", 3,
                          [&] {
                              for (int c = 0; c < kFabricCycles; ++c) {
                                  bits->step();
                              }
                          }) /
                    kFabricCycles,
                "us");

    std::string jit_source;
    report->add("jit.codegen_s",
                timed(spans, "jit.codegen", 1,
                      [&] {
                          jit_source = jit::generate_source(*result.netlist);
                      }),
                "s");
    report->add("jit.source_kb", static_cast<double>(jit_source.size()) / 1024,
                "KiB");
    bool cache_hit = false;
    const jit::JitModule* mod = nullptr;
    // The comment gives the source a digest of its own, so the build is
    // cold even when the session already compiled this netlist.
    const double cxx_s = timed(spans, "jit.build_module", 1, [&] {
        mod = jit::build_module(jit_source + "\n// perfbench replay\n",
                                nullptr, &cache_hit, &err);
    });
    report->add("jit.cxx_s", cxx_s, "s");
    if (mod == nullptr || cache_hit) {
        report->fail("replay: no cold JIT build (" +
                     (mod == nullptr ? err : std::string("cache hit")) + ")");
        return;
    }
    auto kernel = jit::JitKernel::create(result.netlist, &err);
    if (kernel == nullptr) {
        report->fail("replay: JitKernel::create failed: " + err);
        return;
    }
    constexpr int kKernelCycles = 200000;
    report->add("jit.kernel_cycle_ns",
                1e9 *
                    timed(spans, "jit.kernel_cycles", 3,
                          [&] {
                              for (int c = 0; c < kKernelCycles; ++c) {
                                  kernel->step();
                              }
                          }) /
                    kKernelCycles,
                "ns");

    NullTasks tasks;
    sim::ModuleInterpreter interp(em, &tasks);
    interp.run_initials();
    constexpr int kInterpTicks = 2000;
    report->add("sim.interp_tick_us",
                1e6 *
                    timed(spans, "sim.interp_ticks", 3,
                          [&] {
                              for (int c = 0; c < 2 * kInterpTicks; ++c) {
                                  interp.set_input(
                                      "clk", BitVector(1, (c & 1) == 0));
                                  interp.evaluate();
                                  while (interp.there_are_updates()) {
                                      interp.update();
                                      interp.evaluate();
                                  }
                              }
                          }) /
                    kInterpTicks,
                "us");

    service::CompileService service;
    const uint64_t client = service.register_client();
    service::CompileService::Job job;
    job.version = 1;
    job.module = wem;
    job.options = copts;
    std::vector<service::CompileService::Done> done;
    timed(spans, "service.compile", 1, [&] {
        service.submit(client, std::move(job));
        service.wait_for_done(client, 120);
        done = service.poll(client);
    });
    service.unregister_client(client);
    if (done.size() != 1) {
        report->fail("replay: the compile service returned no result");
        return;
    }
    report->add("service.queue_s",
                (done[0].dequeue_us - done[0].enqueue_us) * 1e-6, "s");
    report->add("service.exec_s", (done[0].done_us - done[0].dequeue_us) * 1e-6,
                "s");

    hypervisor::FabricManager fabric;
    const uint64_t tenant = fabric.add_tenant("replay");
    hypervisor::Admission admission;
    report->add("hypervisor.admit_s",
                timed(spans, "hypervisor.admit", 1,
                      [&] {
                          admission =
                              fabric.request_residency(tenant, result);
                      }),
                "s");
    if (admission.bitstream == nullptr) {
        report->fail("replay: hypervisor admission denied: " +
                     admission.error);
    }
    fabric.release_residency(tenant);
    fabric.remove_tenant(tenant);
}

// ---------------------------------------------------------------------------

struct Workload {
    const char* name;
    Measured (*run)(const Args&, Report*);
    /// The design the traced run replays, as one standalone module.
    std::string (*design)(const Args&);
    double effort;
};

std::string
pow_design(const Args& args)
{
    return pow_module(static_cast<uint32_t>(Rng(args.seed).below(1u << 30)));
}

std::string
regex_design(const Args&)
{
    return cascade::workloads::regex_stream_module();
}

std::string
edit_design(const Args& args)
{
    // The largest aligner of the session.
    std::vector<perfbench::Aligner> a = make_aligners(args.seed);
    return aligner_module(*std::max_element(
        a.begin(), a.end(),
        [](const perfbench::Aligner& x, const perfbench::Aligner& y) {
            return x.n < y.n;
        }));
}

std::string
shared_design(const Args& args)
{
    return tenant_module(tenant_increments(args.seed)[0]);
}

const Workload kWorkloads[] = {
    {"pow_ladder", pow_ladder, pow_design, kPowEffort},
    {"regex_stream", regex_stream, regex_design, kRegexEffort},
    {"edit_loop", edit_loop, edit_design, kEditEffort},
    {"shared_fabric", shared_fabric, shared_design, kTenantEffort},
};

/// The end-to-end metrics, gated first. The rest are too dependent on the
/// shared host's speed to gate a change (two ten-run sets of the same code
/// spread by up to 0.35 of their median on pow_ladder), so only the traced
/// run reports them, as layer figures: the rung rates and the ready times
/// on host wall time, and the eval latency.
void
add_end_to_end(const Measured& m, bool traced, Report* r)
{
    const Metric all[] = {
        {"setup_s", m.setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"fabric_virtual_work_per_s", m.fabric_virtual_work_per_s, "work/s"},
        {"sw_work_per_s", m.sw_work_per_s, "work/s"},
        {"jit_work_per_s", m.jit_work_per_s, "work/s"},
        {"fabric_work_per_s", m.fabric_work_per_s, "work/s"},
        {"jit_ready_s", m.jit_ready_s, "s"},
        {"fabric_ready_s", m.fabric_ready_s, "s"},
        {"eval_s", median(m.evals), "s"},
    };
    constexpr size_t kGated = 3;
    for (size_t i = 0; i < std::size(all); ++i) {
        if (traced) {
            r->add("traced." + all[i].name, all[i].value, all[i].unit);
        } else if (i < kGated) {
            r->add(all[i].name, all[i].value, all[i].unit);
        }
    }
}

void
add_layers(const Measured& m, Report* r)
{
    const SessionCounters& c = m.counters;
    const double interp_us = [&] {
        for (const Metric& x : r->metrics) {
            if (x.name == "sim.interp_tick_us") {
                return x.value;
            }
        }
        return 0.0;
    }();
    const double tick_us =
        m.sw_ticks_per_s > 0 ? 1e6 * m.sw_runtimes / m.sw_ticks_per_s : 0;
    double frontend_s = 0;
    for (const Metric& x : r->metrics) {
        if (x.name == "verilog.parse_s" || x.name == "verilog.elaborate_s") {
            frontend_s += x.value;
        }
    }
    r->add("runtime.tick_overhead_us", tick_us - interp_us, "us");
    r->add("runtime.iters_per_tick.sw", m.iters_per_tick_sw, "ratio");
    r->add("runtime.iters_per_tick.jit", m.iters_per_tick_jit, "ratio");
    r->add("runtime.iters_per_tick.fabric", m.iters_per_tick_fabric, "ratio");
    r->add("runtime.eval_wait_s", median(m.evals) - frontend_s, "s");
    r->add("runtime.openloop.grants", static_cast<double>(c.grants), "count");
    r->add("runtime.openloop.grant_max_s", c.grant_max_s, "s");
    r->add("runtime.openloop.work_per_grant",
           c.grants > 0 ? m.openloop_work / static_cast<double>(c.grants) : 0,
           "work");
    r->add("runtime.compile.place_s",
           c.report.has_value() ? c.report->place_seconds : 0, "s");
    r->add("service.cache_hit_rate",
           m.service_hit_rate >= 0 ? m.service_hit_rate : c.cache_hit_rate,
           "ratio");
    r->add("hypervisor.lock_wait_s", m.lock_wait_s, "s");
    r->add("telemetry.journal_events_per_ktick",
           c.ticks > 0 ? 1000.0 * static_cast<double>(c.journal_events) /
                             static_cast<double>(c.ticks)
                       : 0,
           "count");
}

bool
parse_args(int argc, char** argv, Args* args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* value = argv[i + 1];
        if (key == "--workload") {
            args->workload = value;
        } else if (key == "--seed") {
            args->seed = std::strtoull(value, nullptr, 10);
        } else if (key == "--seconds") {
            args->seconds = std::strtod(value, nullptr);
        } else if (key == "--trace") {
            args->trace = std::strcmp(value, "0") != 0;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

void
print(const Report& r)
{
    for (const std::string& p : r.problems) {
        std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    }
    for (const Metric& m : r.metrics) {
        std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                r.correct ? "true" : "false", r.attempted, r.failed);
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                    r.metrics[i].value, r.metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse_args(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1>\n");
        return 2;
    }
    const Workload* w = nullptr;
    for (const Workload& x : kWorkloads) {
        if (args.workload == x.name) {
            w = &x;
        }
    }
    if (w == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }
    cascade::telemetry::Tracer::global(); // fixes tracer_wall's epoch
    tracer_wall(0);

    Report report;
    perfbench::SpanLog spans(args.trace, args.workload + "-" +
                                             std::to_string(args.seed));
    g_spans = &spans;
    Measured m;
    {
        perfbench::SpanScope span(spans, "workload");
        m = w->run(args, &report);
    }
    if (!args.trace) {
        add_end_to_end(m, false, &report);
    } else {
        replay_layers(w->design(args), w->effort, spans, &report);
        add_layers(m, &report);
        // The traced run's own end-to-end figures: their distance from the
        // untraced runs' is the tracing overhead.
        add_end_to_end(m, true, &report);
        report.add("trace.spans", static_cast<double>(spans.size()), "count");
        const char* dir = std::getenv("PERFBENCH_TRACE_DIR");
        if (dir != nullptr && *dir != '\0') {
            spans.write_json(std::string(dir) + "/" + args.workload + "-" +
                             std::to_string(args.seed) + ".spans.json");
        }
    }
    print(report);
    return report.correct && report.complete ? 0 : 1;
}
