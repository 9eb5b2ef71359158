#include "runtime/session.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "graph/verify/verifier.h"
#include "telemetry/metrics.h"
#include "tensor/buffer_pool.h"

namespace fathom::runtime {

using Clock = std::chrono::steady_clock;

namespace {

double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Step metrics, resolved once. Both are scheduling-invariant (the
 * determinism tests compare them across inter-op widths).
 */
struct SessionMetrics {
    telemetry::Counter& steps;
    telemetry::Counter& ops_executed;
    telemetry::Histogram& step_us;

    static SessionMetrics&
    Get()
    {
        static SessionMetrics* m = [] {
            auto& r = telemetry::MetricsRegistry::Global();
            return new SessionMetrics{
                r.GetCounter("session.steps"),
                r.GetCounter("session.ops_executed"),
                r.GetHistogram("session.step_us"),
            };
        }();
        return *m;
    }
};

}  // namespace

Session::Session(std::uint64_t seed)
    : rng_(seed), pool_(std::make_unique<parallel::ThreadPool>(1))
{
}

void
Session::SetThreads(int threads)
{
    pool_ = std::make_unique<parallel::ThreadPool>(threads);
}

void
Session::SetInterOpThreads(int threads)
{
    inter_op_threads_ = std::max(threads, 1);
    inter_op_pool_ =
        inter_op_threads_ > 1
            ? std::make_unique<parallel::ThreadPool>(inter_op_threads_)
            : nullptr;
}

const ExecPlan&
Session::GetPlan(const FeedMap& feeds, const std::vector<graph::Output>& fetches,
                 const std::vector<graph::NodeId>& targets)
{
    std::ostringstream key;
    for (const auto& f : fetches) {
        key << f.node << ":" << f.index << ",";
    }
    key << "|";
    for (graph::NodeId t : targets) {
        key << t << ",";
    }
    // The graph generation invalidates plans on user edits (a new
    // control edge may change a planned closure) but not on the
    // rewriter's "__rw/" appends, so each fetch set plans once. The
    // optimizer flag and rewrite knobs also change the plan.
    key << "|" << graph_.generation() << "|" << optimize_graphs_;
    if (optimize_graphs_) {
        key << "|" << rewrite_options_.CacheKey();
    }

    auto it = plan_cache_.find(key.str());
    if (it != plan_cache_.end()) {
        return it->second;
    }

    ExecPlan plan = BuildExecPlan(
        graph_,
        PlanOrder(graph_, fetches, targets, variables_,
                  optimize_graphs_ ? &rewrite_options_ : nullptr,
                  verify_graphs_),
        fetches);

    // Static verification of the freshly built plan: structure, types
    // (seeded from this step's feed tensors), and the aliasing/
    // liveness/determinism lints. A violation throws and caches
    // nothing, so a corrected graph replans from scratch.
    if (verify_graphs_) {
        graph::verify::VerifyOptions vopts;
        vopts.variables = &variables_;
        for (const auto& [id, value] : feeds) {
            vopts.feed_types[id] =
                graph::verify::TypeInfo::Of(value.dtype(), value.shape());
        }
        const graph::verify::PlanFacts facts = plan.Facts();
        graph::verify::VerifyOrThrow(graph_, fetches, targets, vopts,
                                     &facts);
    }

    auto [inserted, ok] = plan_cache_.emplace(key.str(), std::move(plan));
    (void)ok;
    return inserted->second;
}

std::vector<Tensor>
Session::Run(const FeedMap& feeds, const std::vector<graph::Output>& fetches,
             const std::vector<graph::NodeId>& targets)
{
    const ExecPlan& plan = GetPlan(feeds, fetches, targets);
    ValueTable values = plan.NewValues();

    // Memory planner: per-run outstanding-consumer counts, seeded from
    // the plan's liveness analysis. Null when planning is off.
    std::unique_ptr<std::atomic<std::int32_t>[]> remaining;
    if (memory_planning_) {
        remaining = plan.NewCredits();
    }

    // Allocator activity is attributed to the step as counter deltas;
    // the peak is the pool-wide live-byte high-water mark while this
    // step ran (concurrent sessions share the pool, so attribution is
    // per-process, not per-session).
    BufferPool& buffer_pool = BufferPool::Global();
    const BufferPool::Stats mem_before = buffer_pool.stats();
    buffer_pool.ResetPeak();
    auto end_step = [this, &buffer_pool, &mem_before](Clock::time_point start) {
        const BufferPool::Stats after = buffer_pool.stats();
        StepMemStats m;
        m.peak_bytes = after.peak_bytes;
        m.allocations = after.allocations - mem_before.allocations;
        m.fresh_allocs = after.fresh_allocs - mem_before.fresh_allocs;
        m.pool_hits = after.pool_hits - mem_before.pool_hits;
        tracer_.EndStep(SecondsSince(start), m);
    };

    const auto step_start = Clock::now();
    tracer_.BeginStep();
    std::vector<Tensor> results;
    try {
        for (graph::NodeId id : plan.placeholders) {
            auto fed = feeds.find(id);
            if (fed == feeds.end()) {
                throw std::invalid_argument("Session::Run: placeholder '" +
                                            graph_.node(id).name +
                                            "' not fed");
            }
            values[static_cast<std::size_t>(id)] = {fed->second};
        }
        Execute(plan, values,
                {pool_.get(), inter_op_pool_.get(), &rng_, &variables_},
                remaining.get(), &tracer_);

        results.reserve(fetches.size());
        for (std::size_t i = 0; i < fetches.size(); ++i) {
            const graph::Output& f = plan.fetches[i];
            const auto& produced = values[static_cast<std::size_t>(f.node)];
            if (static_cast<std::size_t>(f.index) >= produced.size() ||
                !produced[static_cast<std::size_t>(f.index)].initialized()) {
                throw std::logic_error("Session::Run: fetch of '" +
                                       graph_.node(fetches[i].node).name +
                                       "' produced no value");
            }
            results.push_back(produced[static_cast<std::size_t>(f.index)]);
        }
    } catch (...) {
        end_step(step_start);
        throw;
    }

    end_step(step_start);
    if (telemetry::MetricsEnabled()) {
        SessionMetrics& sm = SessionMetrics::Get();
        sm.steps.Add(1);
        sm.ops_executed.Add(plan.size());
        sm.step_us.Observe(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - step_start)
                .count()));
    }
    return results;
}

std::vector<Tensor>
Session::RunNamed(const std::map<std::string, Tensor>& feeds,
                  const std::vector<graph::Output>& fetches,
                  const std::vector<graph::NodeId>& targets)
{
    FeedMap by_id;
    for (const auto& [name, value] : feeds) {
        by_id[graph_.node_by_name(name).id] = value;
    }
    return Run(by_id, fetches, targets);
}

}  // namespace fathom::runtime
