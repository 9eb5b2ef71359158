/**
 * @file
 * End-to-end benchmark: trains, infers and serves one Fathom model
 * through the public workloads, runtime and serving APIs, checks the
 * outputs, and prints one JSON result line.
 *
 *   perfbench --workload seq2seq --seed 1 --seconds 30 --trace 0
 *
 * A run sets up one instance of the workload, freezes its serving
 * plan and starts a ServingRuntime on it, then repeats short rounds
 * until --seconds have passed. Every round runs, in order: the set-up
 * of a fresh same-seed instance (set-up time is the median over the
 * rounds), a fixed spin loop and memory walk (host speed), training
 * steps, inference steps, and open-loop request bursts at a light
 * rate, a heavy rate and a ladder of probe rates. Interleaving spreads
 * every metric over the whole run, so a slow phase of the host weighs
 * on all of them alike. Rates are total work over total time.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 turns on the
 * Tracer and the metrics registry and reports the per-layer metrics,
 * including tracing overhead: each traced round also runs the same
 * training and inference steps untraced. --report <path> writes every
 * metric of the run as JSON (the per-layer table's source).
 *
 * The last line of standard output is the result:
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/roofline.h"
#include "checks.h"
#include "data/pipeline/bounded_queue.h"
#include "graph/op_class.h"
#include "graph/rewrite/rewrite.h"
#include "graph/verify/verifier.h"
#include "serving/frozen_plan.h"
#include "serving/serving_runtime.h"
#include "telemetry/metrics.h"
#include "workloads/workload.h"

namespace {

using namespace fathom;
using Clock = std::chrono::steady_clock;

double
Seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
MsSince(Clock::time_point from)
{
    return 1e3 * Seconds(from, Clock::now());
}

// ---- settings -------------------------------------------------------------

/**
 * Fixed settings of one workload. Rates are absolute, so a faster or
 * slower program shows as lower or higher latency at the same load.
 */
struct Profile {
    const char* name;
    int train_steps;     ///< training steps per round.
    int infer_steps;     ///< inference steps per round.
    double lo_rps;       ///< light rate: requests rarely share a batch.
    int lo_requests;     ///< requests per round at the light rate.
    double hi_rps;       ///< heavy rate.
    int hi_requests;     ///< requests per round at the heavy rate.
    bool loss_must_fall; ///< check the last round's loss is below the first.
};

// Batch 4 for training and inference; serving uses the default
// ServingOptions (max_batch 8, 2 ms queue delay, 1 executor), which
// seq2seq's fixed-batch graph clamps to 4.
constexpr std::int64_t kBatch = 4;
constexpr Profile kProfiles[] = {
    {"seq2seq", 32, 48, 100.0, 10, 750.0, 100, true},
    {"vgg", 12, 24, 40.0, 6, 350.0, 100, false},
};

constexpr int kReproSteps = 3;         ///< training steps compared bit for bit.
constexpr int kRequestPool = 64;       ///< distinct serving requests.
constexpr int kMinHiRequests = 1000;   ///< p99 needs >= 10 samples beyond it.
constexpr int kProbeRequests = 80;     ///< requests per probe burst.
/** Probe rates, as multiples of the capacity measured at set-up. */
constexpr double kProbeLadder[] = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2};
/** Rates added (halving below or doubling above the ladder) to bracket
    serve_max_rps, and the bursts run at each. */
constexpr int kMaxLadderExtensions = 3;
constexpr int kExtensionBursts = 8;
constexpr double kGrowthLimitMs = 5.0;   ///< backlog growth that counts as growing.
constexpr double kLatencyLimitMs = 50.0; ///< p99 limit of serving.max_rps_p99.
constexpr std::int64_t kSpinIters = 1'500'000;
constexpr std::size_t kWalkSlots = std::size_t{1} << 20;  // 4 MB of uint32.
constexpr int kWalkSteps = 100'000;

const Profile*
FindProfile(const std::string& name)
{
    for (const Profile& p : kProfiles) {
        if (name == p.name) {
            return &p;
        }
    }
    return nullptr;
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string report;
};

Args
ParseArgs(int argc, char** argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("flag " + flag + " needs a value");
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                throw std::invalid_argument("--trace takes 0 or 1");
            }
            args.trace = value == "1";
        } else if (flag == "--report") {
            args.report = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!have_workload || FindProfile(args.workload) == nullptr) {
        throw std::invalid_argument("--workload must be seq2seq or vgg");
    }
    if (!(args.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
    }
    return args;
}

// ---- statistics -----------------------------------------------------------

/** Linear-interpolated quantile @p q in [0, 1] (NumPy's default). */
double
Quantile(std::vector<double> v, double q)
{
    if (v.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (frac == 0.0) {
        return v[lo];
    }
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
Median(const std::vector<double>& v)
{
    return Quantile(v, 0.5);
}

double
Mean(const std::vector<double>& v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

// ---- host probes ----------------------------------------------------------

/** Sinks for the probes' results, so the loops are not optimised away. */
volatile std::uint64_t g_spin_sink = 0;
volatile std::uint32_t g_walk_sink = 0;

/** A fixed integer loop: tracks the core's speed, not the program's. */
double
SpinMs()
{
    const auto start = Clock::now();
    std::uint64_t x = g_spin_sink | 1;
    for (std::int64_t i = 0; i < kSpinIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    g_spin_sink = x;
    return MsSince(start);
}

/** One random cycle over kWalkSlots slots (Sattolo's algorithm). */
std::vector<std::uint32_t>
MakeWalk()
{
    std::vector<std::uint32_t> next(kWalkSlots);
    std::iota(next.begin(), next.end(), 0u);
    std::uint64_t state = 0x2545F4914F6CDD1Dull;
    for (std::size_t i = kWalkSlots - 1; i > 0; --i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t j = (state >> 33) % i;
        std::swap(next[i], next[j]);
    }
    return next;
}

/** A fixed dependent walk through memory: tracks the memory system. */
double
MemWalkMs(const std::vector<std::uint32_t>& next)
{
    const auto start = Clock::now();
    std::uint32_t at = 0;
    for (int i = 0; i < kWalkSteps; ++i) {
        at = next[at];
    }
    g_walk_sink = at;
    return MsSince(start);
}

/** @return the process's peak resident set in MB (2^20 bytes). */
double
PeakRssMb()
{
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0) {
        throw std::runtime_error("getrusage failed");
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB.
}

// ---- serving load ---------------------------------------------------------

/** Everything measured at one offered rate, pooled over the run. */
struct PhaseStats {
    std::vector<double> latency_ms;  ///< due time -> response received.
    std::vector<double> queue_ms;    ///< submit -> batch formation.
    std::vector<double> exec_ms;     ///< batch formation -> completion.
    std::vector<double> late_ms;     ///< submit time - due time.
    std::vector<double> head_ms;     ///< latency, first quarter of bursts.
    std::vector<double> tail_ms;     ///< latency, last quarter of bursts.
    double batches = 0.0;            ///< sum over served of 1 / batch size.
    double padded_rows = 0.0;        ///< padding rows charged to served.
    std::int64_t requests = 0;
    std::int64_t failed = 0;         ///< rejected, errored or mismatched.
    std::string first_error;

    double MeanBatch() const
    {
        return batches > 0.0 ? static_cast<double>(exec_ms.size()) / batches
                             : 0.0;
    }
};

/**
 * Open-loop load: this thread submits requests at their due times, one
 * collector thread waits for each response and stamps its arrival. The
 * single executor completes requests in submission order, so waiting in
 * that order stamps each as it arrives. After the burst every response
 * is checked against FrozenPlan::ServeOne of the same request, bit for
 * bit.
 */
class LoadGenerator {
  public:
    LoadGenerator(serving::ServingRuntime& runtime,
                  const std::vector<serving::RequestFeeds>& pool,
                  const std::vector<std::vector<Tensor>>& expected,
                  std::int64_t fixed_batch)
        : runtime_(runtime), pool_(pool), expected_(expected),
          fixed_batch_(fixed_batch)
    {
    }

    /** Offers @p n requests at @p rate per second, evenly spaced. */
    void Burst(double rate, int n, PhaseStats& stats);

  private:
    struct InFlight {
        std::size_t request = 0;
        int position = 0;  ///< index in the burst.
        int burst = 0;     ///< requests in the burst.
        Clock::time_point due;
        Clock::time_point submitted;
        Clock::time_point received;  ///< the collector got the response.
        std::future<serving::InferenceResponse> pending;
        serving::InferenceResponse response;
        std::string error;  ///< set when Submit refused the request.
    };

    void Settle(const InFlight& item, PhaseStats& stats);
    static void Record(const InFlight& item, double latency_ms,
                       PhaseStats& stats);

    serving::ServingRuntime& runtime_;
    const std::vector<serving::RequestFeeds>& pool_;
    const std::vector<std::vector<Tensor>>& expected_;
    std::int64_t fixed_batch_;
    std::size_t next_request_ = 0;
};

void
LoadGenerator::Burst(double rate, int n, PhaseStats& stats)
{
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    const auto start = Clock::now() + std::chrono::microseconds(200);
    data::BoundedQueue<InFlight> in_flight(static_cast<std::size_t>(n) + 1);
    std::vector<InFlight> received;
    received.reserve(static_cast<std::size_t>(n));
    std::thread collector([&] {
        while (auto item = in_flight.Pop()) {
            if (item->error.empty()) {
                try {
                    item->response = item->pending.get();
                } catch (const std::exception& e) {
                    item->error = e.what();
                }
            }
            item->received = Clock::now();
            received.push_back(std::move(*item));
        }
    });
    try {
        for (int i = 0; i < n; ++i) {
            InFlight item;
            item.request = next_request_++ % pool_.size();
            item.position = i;
            item.burst = n;
            item.due = start + period * i;
            // Sleep to just short of the due time, then spin: sleep
            // alone wakes tens of microseconds late.
            const auto wake = item.due - std::chrono::microseconds(100);
            if (Clock::now() < wake) {
                std::this_thread::sleep_until(wake);
            }
            while (Clock::now() < item.due) {
            }
            item.submitted = Clock::now();
            try {
                item.pending = runtime_.Submit(pool_[item.request]);
            } catch (const std::exception& e) {
                item.error = e.what();
            }
            in_flight.Push(std::move(item));
        }
    } catch (...) {
        in_flight.Stop();
        collector.join();
        throw;
    }
    in_flight.Stop();
    collector.join();
    for (const InFlight& item : received) {
        Settle(item, stats);
    }
}

void
LoadGenerator::Settle(const InFlight& item, PhaseStats& stats)
{
    ++stats.requests;
    stats.late_ms.push_back(1e3 * Seconds(item.due, item.submitted));
    std::string error = item.error;
    const serving::InferenceResponse& response = item.response;
    if (error.empty()) {
        const perfbench::CheckResult same = perfbench::CheckBitIdentical(
            response.outputs, expected_[item.request]);
        if (!same.ok) {
            error = "serving: " + same.detail;
        }
    }
    if (!error.empty()) {
        // A failed request misses every latency limit.
        ++stats.failed;
        if (stats.first_error.empty()) {
            stats.first_error = error;
        }
        Record(item, std::numeric_limits<double>::infinity(), stats);
        return;
    }
    Record(item, 1e3 * Seconds(item.due, item.received), stats);
    stats.queue_ms.push_back(1e3 * response.queue_seconds);
    stats.exec_ms.push_back(
        1e3 * (response.latency_seconds - response.queue_seconds));
    const double b = static_cast<double>(response.batch_size);
    stats.batches += 1.0 / b;
    if (fixed_batch_ > 0) {
        stats.padded_rows += (static_cast<double>(fixed_batch_) - b) / b;
    }
}

void
LoadGenerator::Record(const InFlight& item, double latency_ms,
                      PhaseStats& stats)
{
    stats.latency_ms.push_back(latency_ms);
    if (item.position < item.burst / 4) {
        stats.head_ms.push_back(latency_ms);
    } else if (item.position >= item.burst - item.burst / 4) {
        stats.tail_ms.push_back(latency_ms);
    }
}

/** @return the share of @p latency_ms within @p limit_ms. */
double
ShareWithin(const std::vector<double>& latency_ms, double limit_ms)
{
    if (latency_ms.empty()) {
        return 0.0;
    }
    const auto within = std::count_if(latency_ms.begin(), latency_ms.end(),
                                      [&](double v) { return v <= limit_ms; });
    return static_cast<double>(within) / static_cast<double>(latency_ms.size());
}

/**
 * @return how much the backlog grows over a burst: the median latency
 * of the last quarter of the bursts minus that of the first quarter.
 * A server that keeps up serves both alike; one that falls behind
 * makes every later request wait longer.
 */
double
BacklogGrowthMs(const PhaseStats& s)
{
    return Median(s.tail_ms) - Median(s.head_ms);
}

/**
 * @return each probe's margin: how far it is from growing a backlog
 * (BacklogGrowthMs at most kGrowthLimitMs) and, when @p limit_ms is
 * positive, from missing that p99 limit (at least 99% of its requests
 * within it), the smaller of the two, each scaled to its threshold. A
 * rate passes when its margin is at least 0.
 */
std::vector<double>
Margins(const std::vector<PhaseStats>& probes, double limit_ms)
{
    constexpr double kShare = 0.99;
    std::vector<double> margin;
    for (const PhaseStats& p : probes) {
        double m = (kGrowthLimitMs - BacklogGrowthMs(p)) / kGrowthLimitMs;
        if (limit_ms > 0.0) {
            const double share = ShareWithin(p.latency_ms, limit_ms);
            m = std::min(m, (share - kShare) / (1.0 - kShare));
        }
        margin.push_back(m);
    }
    return margin;
}

/** Where the highest passing rate lies against the probed rates. */
enum class Bracket {
    kInside,  ///< some rate passes and the highest rate fails.
    kBelow,   ///< no rate passes.
    kAbove,   ///< the highest rate passes.
};

Bracket
Locate(const std::vector<double>& margin)
{
    if (std::none_of(margin.begin(), margin.end(),
                     [](double m) { return m >= 0.0; })) {
        return Bracket::kBelow;
    }
    return margin.back() >= 0.0 ? Bracket::kAbove : Bracket::kInside;
}

/**
 * @return the highest passing probe rate (see Margins), interpolated
 * linearly in the margin between it and the next rate, which fails; NaN
 * when the probed rates do not bracket it.
 */
double
MaxRps(const std::vector<double>& rates, const std::vector<PhaseStats>& probes,
       double limit_ms)
{
    const std::vector<double> margin = Margins(probes, limit_ms);
    if (Locate(margin) != Bracket::kInside) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    std::size_t k = margin.size() - 1;
    while (margin[k] < 0.0) {
        --k;
    }
    const double frac = margin[k] / (margin[k] - margin[k + 1]);
    return rates[k] + frac * (rates[k + 1] - rates[k]);
}

// ---- tracing --------------------------------------------------------------

/** Per-layer sums over traced steps of one kind (train or infer). */
struct TraceSums {
    std::int64_t steps = 0;
    double ops = 0.0;
    double overhead_s = 0.0;
    double class_s[graph::kNumOpClasses] = {};
    std::map<std::string, double> op_s;
    double conv_flops = 0.0, conv_s = 0.0;
    double matrix_flops = 0.0, matrix_s = 0.0;
    double allocs = 0.0, fresh_allocs = 0.0, peak_bytes = 0.0;

    /** Folds the tracer's steps in, then clears it. */
    void Absorb(runtime::Tracer& tracer)
    {
        for (const runtime::StepTrace& step : tracer.steps()) {
            ++steps;
            ops += static_cast<double>(step.records.size());
            overhead_s += step.OverheadSeconds();
            for (const runtime::OpExecRecord& r : step.records) {
                class_s[static_cast<int>(r.op_class)] += r.wall_seconds;
                op_s[r.op_type] += r.wall_seconds;
            }
            allocs += static_cast<double>(step.memory.allocations);
            fresh_allocs += static_cast<double>(step.memory.fresh_allocs);
            peak_bytes += static_cast<double>(step.memory.peak_bytes);
        }
        const analysis::RooflineReport roofline = analysis::BuildRooflineReport(
            tracer, 0, runtime::DeviceSpec::Cpu(1));
        for (const analysis::RooflineRow& row : roofline.by_class) {
            if (row.op_class == graph::OpClass::kConvolution) {
                conv_flops += row.flops;
                conv_s += row.wall_seconds;
            } else if (row.op_class == graph::OpClass::kMatrixOps) {
                matrix_flops += row.flops;
                matrix_s += row.wall_seconds;
            }
        }
        tracer.Clear();
    }

    double PerStep(double total) const
    {
        return steps > 0 ? total / static_cast<double>(steps) : 0.0;
    }
};

// ---- the run --------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Operation counts of one kind. */
struct Count {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
};

class Run {
  public:
    Run(const Args& args, const Profile& profile)
        : args_(args), profile_(profile)
    {
    }

    void Execute();

    bool correct() const { return failures_.empty(); }
    const std::vector<std::string>& failures() const { return failures_; }
    const std::vector<Metric>& end_to_end() const { return end_to_end_; }
    const std::vector<Metric>& per_layer() const { return per_layer_; }
    /** Per probe rate: offered rate, p50, p99, backlog growth, mean batch. */
    std::string ProbesJson() const;
    const std::map<std::string, Count>& counts() const { return counts_; }

  private:
    /** A set-up workload, its frozen serving plan and first losses. */
    struct Instance {
        std::unique_ptr<workloads::Workload> workload;
        std::shared_ptr<const serving::FrozenPlan> plan;
        std::vector<float> losses;  ///< first kReproSteps training losses.
        /** Session plan builds per fetch set over its first steps
            (traced runs only; the metrics registry counts them). */
        double plan_builds = 0.0;
    };

    /** Sets up one instance, recording one sample of each set-up time. */
    Instance TimedSetUp();
    void SetUp();
    void RunRound(bool measured);
    void BracketMaxRps();
    void CheckKernels();
    void Report();

    /** Records one check's outcome under @p kind. */
    void Check(const std::string& kind, const perfbench::CheckResult& result);

    /** Runs and times @p steps training steps (tracing as @p traced). */
    double Train(int steps, bool traced, std::vector<float>* losses);
    double Infer(int steps, bool traced);

    workloads::WorkloadConfig Config() const;

    const Args& args_;
    const Profile& profile_;

    std::unique_ptr<workloads::Workload> workload_;
    std::shared_ptr<const serving::FrozenPlan> plan_;
    std::unique_ptr<serving::ServingRuntime> runtime_;
    std::unique_ptr<LoadGenerator> load_;
    std::vector<float> first_losses_;
    std::vector<serving::RequestFeeds> pool_;
    std::vector<std::vector<Tensor>> expected_;
    std::vector<std::uint32_t> walk_;

    // Set-up measurements, one entry per set-up.
    std::vector<double> setup_s_, setup_call_ms_, first_train_ms_,
        first_infer_ms_, freeze_ms_;
    double plan_builds_ = 0.0;
    double rewrite_ms_ = 0.0, verify_ms_ = 0.0;
    double batch1_ms_ = 0.0, batchmax_ms_ = 0.0;
    std::int64_t max_batch_ = 0;
    std::vector<double> probe_rates_;

    // Round measurements.
    double train_s_ = 0.0, infer_s_ = 0.0;
    std::int64_t train_samples_ = 0, infer_samples_ = 0;
    double traced_train_s_ = 0.0, traced_infer_s_ = 0.0;
    std::int64_t traced_train_samples_ = 0, traced_infer_samples_ = 0;
    std::vector<double> round_loss_;
    std::vector<double> spin_ms_, walk_ms_;
    PhaseStats lo_, hi_;
    std::vector<PhaseStats> probes_;
    TraceSums train_trace_, infer_trace_;
    /** Input-pipeline histograms, summed over the traced run's steps. */
    struct HistogramSum {
        double sum = 0.0;
        double count = 0.0;
    };
    HistogramSum produce_, stall_;

    /** Adds the pipeline histograms' growth since @p before. */
    void AddPipelineDelta(const telemetry::MetricsSnapshot& before);

    std::map<std::string, Count> counts_;
    std::vector<std::string> failures_;
    std::vector<Metric> end_to_end_, per_layer_;
};

workloads::WorkloadConfig
Run::Config() const
{
    workloads::WorkloadConfig config;
    config.seed = args_.seed;
    config.batch_size = kBatch;
    config.tracing = args_.trace;
    config.telemetry = args_.trace;
    return config;
}

void
Run::Check(const std::string& kind, const perfbench::CheckResult& result)
{
    Count& count = counts_["check." + kind];
    ++count.attempted;
    if (!result.ok) {
        ++count.failed;
        failures_.push_back(kind + ": " + result.detail);
    }
}

void
Run::AddPipelineDelta(const telemetry::MetricsSnapshot& before)
{
    const auto after = telemetry::MetricsRegistry::Global().Snapshot();
    for (auto [name, total] : {std::pair{"pipeline.produce_us", &produce_},
                               std::pair{"pipeline.stall_us", &stall_}}) {
        const auto a = after.HistogramValue(name);
        const auto b = before.HistogramValue(name);
        total->sum += static_cast<double>(a.sum - b.sum);
        total->count += static_cast<double>(a.count - b.count);
    }
}

double
Run::Train(int steps, bool traced, std::vector<float>* losses)
{
    workload_->session().tracer().set_enabled(traced);
    Count& count = counts_["train_steps"];
    count.attempted += steps;
    telemetry::MetricsSnapshot before;
    if (args_.trace) {
        before = telemetry::MetricsRegistry::Global().Snapshot();
    }
    const auto start = Clock::now();
    const auto result = workload_->RunTraining(steps);
    const double seconds = Seconds(start, Clock::now());
    if (args_.trace) {
        AddPipelineDelta(before);
    }
    const perfbench::CheckResult finite =
        perfbench::CheckFinite({result.mean_loss, result.final_loss});
    Check("loss_finite", finite);
    if (!finite.ok) {
        count.failed += steps;
    }
    if (losses != nullptr) {
        losses->push_back(result.mean_loss);
    }
    if (traced) {
        train_trace_.Absorb(workload_->session().tracer());
    }
    return seconds;
}

double
Run::Infer(int steps, bool traced)
{
    workload_->session().tracer().set_enabled(traced);
    counts_["infer_steps"].attempted += steps;
    telemetry::MetricsSnapshot before;
    if (args_.trace) {
        before = telemetry::MetricsRegistry::Global().Snapshot();
    }
    const auto start = Clock::now();
    workload_->RunInference(steps);
    const double seconds = Seconds(start, Clock::now());
    if (args_.trace) {
        AddPipelineDelta(before);
    }
    if (traced) {
        infer_trace_.Absorb(workload_->session().tracer());
    }
    return seconds;
}

/** @return rewrite.runs + verify.runs so far (0 with metrics off). */
std::uint64_t
PlanRuns()
{
    const auto snap = telemetry::MetricsRegistry::Global().Snapshot();
    return snap.CounterValue("rewrite.runs") + snap.CounterValue("verify.runs");
}

Run::Instance
Run::TimedSetUp()
{
    Instance out;
    const auto start_runs = PlanRuns();
    const auto t0 = Clock::now();
    out.workload = workloads::WorkloadRegistry::Global().Create(profile_.name);
    const auto t1 = Clock::now();
    out.workload->Setup(Config());
    const auto t2 = Clock::now();
    out.losses.push_back(out.workload->RunTraining(1).final_loss);
    const auto t3 = Clock::now();
    out.workload->RunInference(1);
    const auto t4 = Clock::now();
    const auto before_freeze = PlanRuns();
    out.plan = out.workload->FreezeServingPlan();
    const auto t5 = Clock::now();
    const auto freeze_runs = PlanRuns() - before_freeze;
    setup_s_.push_back(Seconds(t0, t5));
    setup_call_ms_.push_back(1e3 * Seconds(t1, t2));
    first_train_ms_.push_back(1e3 * Seconds(t2, t3));
    first_infer_ms_.push_back(1e3 * Seconds(t3, t4));
    freeze_ms_.push_back(1e3 * Seconds(t4, t5));

    // Two more steps of each fetch set, for the reproducibility check.
    for (int s = 1; s < kReproSteps; ++s) {
        out.losses.push_back(out.workload->RunTraining(1).final_loss);
        out.workload->RunInference(1);
    }
    counts_["train_steps"].attempted += kReproSteps;
    counts_["infer_steps"].attempted += kReproSteps;
    Check("loss_finite", perfbench::CheckFinite(out.losses));
    // Each session plan build runs the rewriter and the verifier once;
    // two fetch sets (train, infer) share the count.
    out.plan_builds =
        static_cast<double>(PlanRuns() - start_runs - freeze_runs) / 2.0 / 2.0;
    return out;
}

void
Run::SetUp()
{
    auto& metrics = telemetry::MetricsRegistry::Global();
    if (args_.trace) {
        // Plan build of the serving subgraph, timed apart on a
        // same-seed instance that is then discarded.
        auto w = workloads::WorkloadRegistry::Global().Create(profile_.name);
        w->Setup(Config());
        runtime::Session& session = w->session();
        const serving::InferenceSignature sig = w->ServingSignature();
        // As at plan build, where the session verifies the plan itself.
        graph::rewrite::RewriteOptions rewrite = session.rewrite_options();
        rewrite.verify = false;
        auto start = Clock::now();
        graph::rewrite::Rewrite(session.graph(), sig.fetches, {},
                                session.variables(), rewrite);
        rewrite_ms_ = MsSince(start);
        graph::verify::VerifyOptions options;
        options.variables = &session.variables();
        start = Clock::now();
        const auto report =
            graph::verify::Verify(session.graph(), sig.fetches, {}, options);
        verify_ms_ = MsSince(start);
        Check("graph_verify", {report.ok(), report.ToString()});
        metrics.ResetAll();
    }

    Instance main = TimedSetUp();
    plan_builds_ = main.plan_builds;
    if (args_.trace) {
        main.workload->session().tracer().Clear();
    }
    workload_ = std::move(main.workload);
    plan_ = std::move(main.plan);
    first_losses_ = std::move(main.losses);

    // Requests and their unbatched results, the serving check's oracle.
    for (int i = 0; i < kRequestPool; ++i) {
        pool_.push_back(workload_->SampleServingRequest());
        expected_.push_back(plan_->ServeOne(pool_.back()));
    }

    // Direct batch timings: does batching pay, and the capacity that
    // places the probe ladder.
    max_batch_ = plan_->fixed_batch() > 0
                     ? plan_->fixed_batch()
                     : serving::ServingOptions{}.max_batch;
    std::vector<const serving::RequestFeeds*> full;
    for (std::int64_t i = 0; i < max_batch_; ++i) {
        full.push_back(&pool_[static_cast<std::size_t>(i)]);
    }
    std::vector<double> b1, bmax;
    for (int rep = 0; rep < 31; ++rep) {
        auto start = Clock::now();
        plan_->ServeBatch({&pool_[0]});
        b1.push_back(MsSince(start));
        start = Clock::now();
        plan_->ServeBatch(full);
        bmax.push_back(MsSince(start));
    }
    batch1_ms_ = Median(b1);
    batchmax_ms_ = Median(bmax);
    const double capacity = 1e3 * static_cast<double>(max_batch_) / batchmax_ms_;
    for (double share : kProbeLadder) {
        probe_rates_.push_back(share * capacity);
    }
    probes_.resize(probe_rates_.size());

    runtime_ = std::make_unique<serving::ServingRuntime>(plan_);
    load_ = std::make_unique<LoadGenerator>(*runtime_, pool_, expected_,
                                            plan_->fixed_batch());
    walk_ = MakeWalk();
}

void
Run::RunRound(bool measured)
{
    {
        // A fresh same-seed instance: one set-up sample, and its first
        // losses must repeat the main instance's bit for bit.
        const Instance fresh = TimedSetUp();
        Check("same_seed_losses",
              perfbench::CheckSameLosses(fresh.losses, first_losses_));
    }
    spin_ms_.push_back(SpinMs());
    walk_ms_.push_back(MemWalkMs(walk_));

    const std::int64_t train_n = profile_.train_steps * kBatch;
    const std::int64_t infer_n = profile_.infer_steps * kBatch;
    std::vector<float> losses;
    if (args_.trace) {
        traced_train_s_ += Train(profile_.train_steps, true, &losses);
        traced_train_samples_ += train_n;
    }
    train_s_ += Train(profile_.train_steps, false, &losses);
    train_samples_ += train_n;
    if (args_.trace) {
        traced_infer_s_ += Infer(profile_.infer_steps, true);
        traced_infer_samples_ += infer_n;
    }
    infer_s_ += Infer(profile_.infer_steps, false);
    infer_samples_ += infer_n;
    round_loss_.push_back(
        Mean(std::vector<double>(losses.begin(), losses.end())));

    load_->Burst(profile_.lo_rps, profile_.lo_requests, lo_);
    load_->Burst(profile_.hi_rps, profile_.hi_requests, hi_);
    for (std::size_t k = 0; k < probe_rates_.size(); ++k) {
        load_->Burst(probe_rates_[k], kProbeRequests, probes_[k]);
    }
    if (!measured) {
        // The warm-up round fills caches and pools; its timings go.
        setup_s_.clear();
        setup_call_ms_.clear();
        first_train_ms_.clear();
        first_infer_ms_.clear();
        freeze_ms_.clear();
        train_s_ = infer_s_ = traced_train_s_ = traced_infer_s_ = 0.0;
        train_samples_ = infer_samples_ = 0;
        traced_train_samples_ = traced_infer_samples_ = 0;
        round_loss_.clear();
        spin_ms_.clear();
        walk_ms_.clear();
        train_trace_ = {};
        infer_trace_ = {};
        produce_ = stall_ = {};
        auto keep_counts = [](PhaseStats& s) {
            PhaseStats fresh;
            fresh.requests = s.requests;
            fresh.failed = s.failed;
            fresh.first_error = s.first_error;
            s = std::move(fresh);
        };
        keep_counts(lo_);
        keep_counts(hi_);
        for (PhaseStats& p : probes_) {
            keep_counts(p);
        }
    }
}

/**
 * Extends the probe ladder until it brackets serve_max_rps, halving
 * below it or doubling above it, so that a rate outside the ladder
 * reads as itself rather than as the ladder's edge.
 */
void
Run::BracketMaxRps()
{
    for (int k = 0; k < kMaxLadderExtensions; ++k) {
        const Bracket where = Locate(Margins(probes_, 0.0));
        if (where == Bracket::kInside) {
            return;
        }
        const bool below = where == Bracket::kBelow;
        const double rate =
            below ? probe_rates_.front() / 2.0 : probe_rates_.back() * 2.0;
        PhaseStats stats;
        for (int b = 0; b < kExtensionBursts; ++b) {
            load_->Burst(rate, kProbeRequests, stats);
        }
        probe_rates_.insert(below ? probe_rates_.begin() : probe_rates_.end(),
                            rate);
        probes_.insert(below ? probes_.begin() : probes_.end(),
                       std::move(stats));
    }
}

void
Run::CheckKernels()
{
    runtime::Session& session = workload_->session();
    session.tracer().set_enabled(false);
    const graph::Graph& g = session.graph();
    const serving::InferenceSignature sig = workload_->ServingSignature();

    // A batch of pool requests, fed by placeholder name.
    std::map<std::string, Tensor> feeds;
    for (const serving::TensorSpec& spec : sig.inputs) {
        std::vector<std::int64_t> dims = {kBatch};
        dims.insert(dims.end(), spec.example_dims.begin(),
                    spec.example_dims.end());
        Tensor batch(spec.dtype, Shape(dims));
        const std::int64_t row = batch.num_elements() / kBatch;
        for (std::int64_t i = 0; i < kBatch; ++i) {
            const Tensor& one = pool_[static_cast<std::size_t>(i)].at(spec.name);
            if (spec.dtype == DType::kInt32) {
                std::copy_n(one.data<std::int32_t>(), row,
                            batch.data<std::int32_t>() + i * row);
            } else {
                std::copy_n(one.data<float>(), row, batch.data<float>() + i * row);
            }
        }
        feeds[spec.name] = batch;
    }

    std::vector<graph::NodeId> roots;
    for (const graph::Output& out : sig.fetches) {
        roots.push_back(out.node);
    }
    std::vector<graph::NodeId> matmuls, convs;
    for (graph::NodeId id : g.TopologicalOrder(roots)) {
        const std::string& op = g.node(id).op_type;
        if (op == "MatMul") {
            matmuls.push_back(id);
        } else if (op == "Conv2D") {
            convs.push_back(id);
        }
    }
    if (matmuls.empty()) {
        Check("matmul_reference", {false, "no MatMul on the serving path"});
    } else {
        const graph::Node& node = g.node(matmuls.front());
        const auto out = session.RunNamed(
            feeds, {node.inputs[0], node.inputs[1], {node.id, 0}});
        Check("matmul_reference",
              perfbench::CheckMatMul(out[0], out[1],
                                     node.attr_bool("transpose_a", false),
                                     node.attr_bool("transpose_b", false),
                                     out[2]));
    }
    if (!convs.empty()) {
        const graph::Node& node = g.node(convs[convs.size() / 2]);
        const auto out = session.RunNamed(
            feeds, {node.inputs[0], node.inputs[1], {node.id, 0}});
        Check("conv2d_reference",
              perfbench::CheckConv2D(out[0], out[1],
                                     node.attr("stride").AsInt(),
                                     node.attr("padding").AsString(), out[2]));
    }
}

void
Run::Execute()
{
    SetUp();
    RunRound(/*measured=*/false);
    const auto start = Clock::now();
    while (Seconds(start, Clock::now()) < args_.seconds ||
           hi_.latency_ms.size() < static_cast<std::size_t>(kMinHiRequests)) {
        RunRound(/*measured=*/true);
    }
    BracketMaxRps();
    if (profile_.loss_must_fall) {
        Check("loss_fell",
              perfbench::CheckLossFell(round_loss_.front(), round_loss_.back()));
    }
    CheckKernels();
    runtime_->Stop();

    Count& requests = counts_["requests"];
    std::vector<const PhaseStats*> phases = {&lo_, &hi_};
    for (const PhaseStats& p : probes_) {
        phases.push_back(&p);
    }
    for (const PhaseStats* s : phases) {
        requests.attempted += s->requests;
        requests.failed += s->failed;
        if (!s->first_error.empty()) {
            failures_.push_back(s->first_error);
        }
    }
    Report();
}

void
Run::Report()
{
    auto e2e = [&](const std::string& name, double value,
                   const std::string& unit) {
        end_to_end_.push_back({name, value, unit});
    };
    e2e("setup_s", Median(setup_s_), "s");
    e2e("peak_rss_mb", PeakRssMb(), "MB");
    e2e("train_samples_per_s", static_cast<double>(train_samples_) / train_s_,
        "1/s");
    e2e("infer_samples_per_s", static_cast<double>(infer_samples_) / infer_s_,
        "1/s");
    e2e("serve_lo_p50_ms", Median(lo_.latency_ms), "ms");
    // NaN (printed as null, so the run reports it unmeasured) when even
    // the extended ladder does not bracket it.
    e2e("serve_max_rps", MaxRps(probe_rates_, probes_, 0.0), "1/s");

    auto layer = [&](const std::string& name, double value,
                     const std::string& unit) {
        per_layer_.push_back({name, value, unit});
    };
    layer("host.spin_ms", Median(spin_ms_), "ms");
    layer("host.mem_walk_ms", Median(walk_ms_), "ms");
    // Held off the end-to-end list: on this host the 1% tail is set
    // by stalls of the host itself, and moves 20-70% between runs; so
    // does the highest rate whose p99 meets a limit, which is NaN when
    // no probed rate meets it.
    layer("serving.hi_p99_ms", Quantile(hi_.latency_ms, 0.99), "ms");
    layer("serving.max_rps_p99",
          MaxRps(probe_rates_, probes_, kLatencyLimitMs), "1/s");
    layer("serving.batch_ms.b1", batch1_ms_, "ms");
    layer("serving.batch_ms.bmax", batchmax_ms_, "ms");
    layer("serving.generator_late_ms_p99",
          Quantile([&] {
              std::vector<double> all = lo_.late_ms;
              all.insert(all.end(), hi_.late_ms.begin(), hi_.late_ms.end());
              return all;
          }(), 0.99),
          "ms");
    for (const auto& [tag, s] : {std::pair{"lo", &lo_}, std::pair{"hi", &hi_}}) {
        const std::string t = tag;
        layer("serving.queue_ms_p50." + t, Median(s->queue_ms), "ms");
        layer("serving.exec_ms_p50." + t, Median(s->exec_ms), "ms");
        layer("serving.mean_batch." + t, s->MeanBatch(), "count");
        layer("serving.padded_rows_per_request." + t,
              s->exec_ms.empty()
                  ? 0.0
                  : s->padded_rows / static_cast<double>(s->exec_ms.size()),
              "count");
    }
    if (!args_.trace) {
        return;
    }
    layer("workloads.setup_ms", Median(setup_call_ms_), "ms");
    layer("graph.rewrite_ms", rewrite_ms_, "ms");
    layer("graph.verify_ms", verify_ms_, "ms");
    layer("graph.ops_per_train_step", train_trace_.PerStep(train_trace_.ops),
          "count");
    layer("graph.ops_per_infer_step", infer_trace_.PerStep(infer_trace_.ops),
          "count");
    layer("runtime.first_train_step_ms", Median(first_train_ms_), "ms");
    layer("runtime.first_infer_step_ms", Median(first_infer_ms_), "ms");
    layer("runtime.plan_builds", plan_builds_, "count");
    layer("runtime.dispatch_ms_per_train_step",
          1e3 * train_trace_.PerStep(train_trace_.overhead_s), "ms");
    layer("runtime.dispatch_ms_per_infer_step",
          1e3 * infer_trace_.PerStep(infer_trace_.overhead_s), "ms");
    const double untraced_rate = static_cast<double>(train_samples_) / train_s_;
    const double traced_rate =
        static_cast<double>(traced_train_samples_) / traced_train_s_;
    layer("runtime.trace_overhead_pct",
          100.0 * (untraced_rate - traced_rate) / untraced_rate, "%");
    for (graph::OpClass c : graph::AllOpClasses()) {
        const int i = static_cast<int>(c);
        layer("kernels.train." + graph::OpClassName(c) + "_ms",
              1e3 * train_trace_.PerStep(train_trace_.class_s[i]), "ms");
        layer("kernels.infer." + graph::OpClassName(c) + "_ms",
              1e3 * infer_trace_.PerStep(infer_trace_.class_s[i]), "ms");
    }
    for (const char* op : {"Conv2D", "Conv2DBackpropInput",
                           "Conv2DBackpropFilter", "MatMul", "Add", "Mul",
                           "SumToShapeOf", "FusedElementwise"}) {
        const auto it = train_trace_.op_s.find(op);
        layer(std::string("kernels.op.") + op + "_ms",
              it == train_trace_.op_s.end()
                  ? 0.0
                  : 1e3 * train_trace_.PerStep(it->second),
              "ms");
    }
    const double conv_flops = train_trace_.conv_flops + infer_trace_.conv_flops;
    const double conv_s = train_trace_.conv_s + infer_trace_.conv_s;
    const double mat_flops = train_trace_.matrix_flops + infer_trace_.matrix_flops;
    const double mat_s = train_trace_.matrix_s + infer_trace_.matrix_s;
    layer("kernels.Convolution_gflops",
          conv_s > 0.0 ? conv_flops / conv_s / 1e9 : 0.0, "GFLOP/s");
    layer("kernels.MatrixOps_gflops",
          mat_s > 0.0 ? mat_flops / mat_s / 1e9 : 0.0, "GFLOP/s");
    layer("tensor.allocs_per_step", train_trace_.PerStep(train_trace_.allocs),
          "count");
    layer("tensor.fresh_allocs_per_step",
          train_trace_.PerStep(train_trace_.fresh_allocs), "count");
    layer("tensor.step_peak_mb",
          train_trace_.PerStep(train_trace_.peak_bytes) / (1 << 20), "MB");
    layer("data.produce_ms_per_batch",
          produce_.count > 0 ? produce_.sum / produce_.count / 1e3 : 0.0, "ms");
    layer("data.stall_ms_per_step",
          stall_.count > 0 ? stall_.sum / stall_.count / 1e3 : 0.0, "ms");
    layer("serving.freeze_ms", Median(freeze_ms_), "ms");
}

// ---- output ---------------------------------------------------------------

std::string JsonNumber(double v);

std::string
Run::ProbesJson() const
{
    std::string out = "[";
    for (std::size_t k = 0; k < probes_.size(); ++k) {
        const PhaseStats& p = probes_[k];
        out += std::string(k ? ", " : "") + "{\"rps\": " +
               JsonNumber(probe_rates_[k]) + ", \"p50_ms\": " +
               JsonNumber(Median(p.latency_ms)) + ", \"p99_ms\": " +
               JsonNumber(Quantile(p.latency_ms, 0.99)) +
               ", \"growth_ms\": " + JsonNumber(BacklogGrowthMs(p)) +
               ", \"mean_batch\": " + JsonNumber(p.MeanBatch()) + "}";
    }
    return out + "]";
}

std::string
JsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    std::ostringstream os;
    os << std::setprecision(10) << v;
    return os.str();
}

std::string
JsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
MetricsJson(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + JsonString(metrics[i].name) +
               ": {\"value\": " + JsonNumber(metrics[i].value) +
               ", \"unit\": " + JsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

void
PrintTable(const std::string& title, const std::vector<Metric>& metrics)
{
    std::cout << title << "\n";
    for (const Metric& m : metrics) {
        std::cout << "  " << std::left << std::setw(40) << m.name << std::right
                  << std::setw(14) << JsonNumber(m.value) << "  " << m.unit
                  << "\n";
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    try {
        args = ParseArgs(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what()
                  << "\nusage: perfbench --workload seq2seq|vgg --seed N "
                     "--seconds S --trace 0|1 [--report PATH]\n";
        return 2;
    }
    workloads::RegisterAllWorkloads();
    Run run(args, *FindProfile(args.workload));
    try {
        run.Execute();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }

    std::int64_t attempted = 0, failed = 0;
    std::cout << "workload " << args.workload << ", seed " << args.seed
              << ", trace " << args.trace << "\n";
    for (const auto& [kind, count] : run.counts()) {
        std::cout << "  " << std::left << std::setw(40) << kind << std::right
                  << std::setw(8) << count.attempted << " attempted "
                  << std::setw(4) << count.failed << " failed\n";
        attempted += count.attempted;
        failed += count.failed;
    }
    for (const std::string& f : run.failures()) {
        std::cout << "  FAILED " << f << "\n";
    }
    PrintTable("end-to-end", run.end_to_end());
    PrintTable("per-layer", run.per_layer());
    const std::vector<Metric>& reported =
        args.trace ? run.per_layer() : run.end_to_end();
    const std::string result =
        std::string("{\"correct\": ") + (run.correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"metrics\": " + MetricsJson(reported) + "}";
    if (!args.report.empty()) {
        std::ofstream report(args.report);
        report << "{\"workload\": " << JsonString(args.workload)
               << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
               << ", \"end_to_end\": " << MetricsJson(run.end_to_end())
               << ", \"per_layer\": " << MetricsJson(run.per_layer())
               << ", \"probes\": " << run.ProbesJson() << "}\n";
    }
    std::cout << result << std::endl;
    return 0;
}
