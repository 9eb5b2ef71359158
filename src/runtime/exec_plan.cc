#include "runtime/exec_plan.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "telemetry/metrics.h"

namespace fathom::runtime {

using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t
MicrosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count());
}

/**
 * Executor metrics, resolved once. The queue/worker signals are
 * scheduling-dependent by nature and exist to expose it.
 */
struct ExecMetrics {
    telemetry::Counter& inplace_applied;
    telemetry::Counter& parallel_steps;
    telemetry::Counter& worker_busy_us;
    telemetry::Counter& worker_idle_us;
    telemetry::Histogram& ready_queue_depth;

    static ExecMetrics&
    Get()
    {
        static ExecMetrics* m = [] {
            auto& r = telemetry::MetricsRegistry::Global();
            return new ExecMetrics{
                r.GetCounter("rewrite.inplace_applied"),
                r.GetCounter("executor.parallel_steps"),
                r.GetCounter("executor.worker_busy_us"),
                r.GetCounter("executor.worker_idle_us"),
                r.GetHistogram("executor.ready_queue_depth"),
            };
        }();
        return *m;
    }
};

/** Appends @p list, sorted and deduplicated, as the next CSR row. */
void
AppendRow(std::vector<std::int32_t>& list, std::vector<std::int32_t>& begin,
          std::vector<std::int32_t>& flat)
{
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    flat.insert(flat.end(), list.begin(), list.end());
    begin.push_back(static_cast<std::int32_t>(flat.size()));
}

/** Per-execution state every lane shares. */
struct RunState {
    const ExecPlan& plan;
    ValueTable& values;
    const ExecContext& context;
    std::atomic<std::int32_t>* remaining;
    Tracer* tracer;  ///< null when this execution is not traced.
    Clock::time_point epoch;
};

/**
 * Executes step @p seq into the value table, gathering its inputs into
 * the lane's @p scratch (empty again on return). Thread-safe across
 * distinct steps. Throws on a missing input or kernel failure.
 */
void
RunStep(const RunState& run, std::size_t seq, std::vector<Tensor>& scratch,
        int lane)
{
    const ExecPlan& plan = run.plan;
    const graph::Node& node = *plan.ops[seq];
    for (auto k = plan.input_begin[seq]; k < plan.input_begin[seq + 1]; ++k) {
        const graph::Output& in = plan.inputs[static_cast<std::size_t>(k)];
        const auto& produced = run.values[static_cast<std::size_t>(in.node)];
        if (static_cast<std::size_t>(in.index) >= produced.size() ||
            !produced[static_cast<std::size_t>(in.index)].initialized()) {
            scratch.clear();
            throw std::logic_error("node '" + node.name + "' input from '" +
                                   plan.graph->node(in.node).name +
                                   "' was not produced");
        }
        scratch.push_back(produced[static_cast<std::size_t>(in.index)]);
    }

    const graph::OpDef& def = *plan.defs[seq];
    graph::OpContext ctx(node, &scratch, *run.context.intra_op,
                         *run.context.rng, *run.context.variables);

    // In-place grant: the rewrite proved input 0 statically dies at this
    // step; the refcount check (values entry + our gathered copy = 2)
    // rejects anything the static proof cannot see — preset values,
    // view-shared buffers, planner-off fetch retention.
    if (plan.inplace[seq] && !scratch.empty() && scratch[0].initialized() &&
        scratch[0].buffer_use_count() == 2) {
        ctx.set_may_alias_input(true);
        if (telemetry::MetricsEnabled()) {
            ExecMetrics::Get().inplace_applied.Add(1);
        }
    }

    // Timestamps are only taken when tracing: the traced-off hot path
    // must stay inside the bench_telemetry overhead budget.
    const auto op_start = run.tracer ? Clock::now() : Clock::time_point{};
    try {
        def.kernel(ctx);
    } catch (const std::exception& e) {
        scratch.clear();
        throw std::runtime_error("op '" + node.name + "' (" + node.op_type +
                                 ") failed: " + e.what());
    }

    if (run.tracer != nullptr) {
        OpExecRecord record;
        record.node = node.id;
        record.op_type = node.op_type;
        record.op_class = def.op_class;
        record.wall_seconds =
            std::chrono::duration<double>(Clock::now() - op_start).count();
        record.start_seconds =
            std::chrono::duration<double>(op_start - run.epoch).count();
        record.worker = lane;
        record.seq = static_cast<std::int64_t>(seq);
        if (def.cost) {
            record.cost = def.cost(node, scratch, ctx.outputs());
        } else {
            // Default: bytes-only cost from the outputs.
            graph::OpCost cost;
            for (const Tensor& out : ctx.outputs()) {
                if (out.initialized()) {
                    cost.bytes += static_cast<double>(out.byte_size());
                }
            }
            record.cost = cost;
        }
        run.tracer->Record(std::move(record));
    }

    scratch.clear();
    run.values[static_cast<std::size_t>(node.id)] = std::move(ctx.outputs());
}

/**
 * Memory-planner bookkeeping after step @p seq completed: credits the
 * step's producers and drops any value whose last consumer has now
 * run. Thread-safe: the acq_rel refcount guarantees exactly one thread
 * observes a value die, strictly after every consumer finished
 * reading it.
 */
void
ReleaseDead(const RunState& run, std::size_t seq)
{
    if (run.remaining == nullptr) {  // planner disabled for this run.
        return;
    }
    const ExecPlan& plan = run.plan;
    // A step nothing reads (e.g. a run-only target) dies on completion.
    if (plan.releasable[seq] && plan.consumer_count[seq] == 0) {
        run.values[static_cast<std::size_t>(plan.nodes[seq])].clear();
    }
    for (auto k = plan.producer_begin[seq]; k < plan.producer_begin[seq + 1];
         ++k) {
        const auto p =
            static_cast<std::size_t>(plan.producers[static_cast<std::size_t>(k)]);
        // acq_rel: the thread that takes the count to zero observes
        // every other consumer's reads as already done, so the clear
        // below cannot race a concurrent input gather. Buffers shared
        // into still-live tensors (views, Identity outputs) survive the
        // clear via their own shared_ptr refs.
        if (run.remaining[p].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
            plan.releasable[p]) {
            run.values[static_cast<std::size_t>(plan.nodes[p])].clear();
        }
    }
}

/** Drains the plan's ready queue across the inter-op pool's lanes. */
void
RunParallel(const RunState& run)
{
    const ExecPlan& plan = run.plan;
    const std::size_t total = plan.size();

    struct Queue {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<std::int32_t> ready;
        std::vector<std::int32_t> pending;
        std::size_t active = 0;     ///< steps currently executing.
        std::size_t completed = 0;  ///< steps finished (ok or not).
        bool stopped = false;       ///< error seen; start nothing new.
        std::size_t error_seq = SIZE_MAX;
        std::exception_ptr error;
    };
    Queue state;
    state.pending = plan.initial_pending;
    for (std::size_t i = 0; i < total; ++i) {
        if (state.pending[i] == 0) {
            state.ready.push_back(static_cast<std::int32_t>(i));
        }
    }

    // Each drain loop claims ready steps until the plan completes or an
    // error stops the schedule; in-flight steps always finish, so the
    // execution ends cleanly even on failure. Among concurrently
    // failing steps, the lowest plan sequence wins, keeping the
    // surfaced error deterministic. The loop's lane index becomes the
    // worker id on trace records, and — when metrics are on — the loop
    // accounts its own busy/idle split and samples the ready-queue
    // depth at each claim.
    auto drain = [&run, &plan, &state, total](int lane) {
        const bool metered = telemetry::MetricsEnabled();
        std::uint64_t busy_us = 0;
        std::uint64_t idle_us = 0;
        std::vector<Tensor> scratch;
        for (;;) {
            std::int32_t seq = -1;
            {
                const auto wait_start =
                    metered ? Clock::now() : Clock::time_point{};
                std::unique_lock<std::mutex> lock(state.mu);
                state.cv.wait(lock, [&state, total] {
                    return state.stopped || !state.ready.empty() ||
                           (state.active == 0 && state.completed == total);
                });
                if (metered) {
                    idle_us += MicrosSince(wait_start);
                }
                if (state.stopped || state.ready.empty()) {
                    if (metered) {
                        ExecMetrics& m = ExecMetrics::Get();
                        m.worker_busy_us.Add(busy_us);
                        m.worker_idle_us.Add(idle_us);
                    }
                    return;
                }
                if (metered) {
                    ExecMetrics::Get().ready_queue_depth.Observe(
                        state.ready.size());
                }
                seq = state.ready.front();
                state.ready.pop_front();
                ++state.active;
            }
            const auto run_start =
                metered ? Clock::now() : Clock::time_point{};
            std::exception_ptr err;
            try {
                RunStep(run, static_cast<std::size_t>(seq), scratch, lane);
            } catch (...) {
                err = std::current_exception();
            }
            if (metered) {
                busy_us += MicrosSince(run_start);
            }
            if (!err) {
                ReleaseDead(run, static_cast<std::size_t>(seq));
            }
            {
                std::lock_guard<std::mutex> lock(state.mu);
                --state.active;
                ++state.completed;
                if (err) {
                    state.stopped = true;
                    if (static_cast<std::size_t>(seq) < state.error_seq) {
                        state.error_seq = static_cast<std::size_t>(seq);
                        state.error = err;
                    }
                } else if (!state.stopped) {
                    const auto s = static_cast<std::size_t>(seq);
                    for (auto k = plan.dependent_begin[s];
                         k < plan.dependent_begin[s + 1]; ++k) {
                        const std::int32_t d =
                            plan.dependents[static_cast<std::size_t>(k)];
                        if (--state.pending[static_cast<std::size_t>(d)] ==
                            0) {
                            state.ready.push_back(d);
                        }
                    }
                }
            }
            state.cv.notify_all();
        }
    };

    const std::size_t width = std::min(
        static_cast<std::size_t>(run.context.inter_op->num_threads()), total);
    std::vector<std::function<void()>> loops;
    loops.reserve(width);
    for (std::size_t lane = 0; lane < width; ++lane) {
        loops.push_back([&drain, lane] { drain(static_cast<int>(lane)); });
    }
    run.context.inter_op->RunTasks(std::move(loops));

    if (state.error) {
        std::rethrow_exception(state.error);
    }
}

}  // namespace

ValueTable
ExecPlan::NewValues() const
{
    ValueTable values(num_values);
    for (const auto& [id, outputs] : preset) {
        values[static_cast<std::size_t>(id)] = outputs;
    }
    return values;
}

std::unique_ptr<std::atomic<std::int32_t>[]>
ExecPlan::NewCredits() const
{
    auto credits = std::make_unique<std::atomic<std::int32_t>[]>(size());
    for (std::size_t i = 0; i < size(); ++i) {
        credits[i].store(consumer_count[i], std::memory_order_relaxed);
    }
    return credits;
}

graph::verify::PlanFacts
ExecPlan::Facts() const
{
    graph::verify::PlanFacts facts;
    facts.order = &nodes;
    facts.replacements = &replacements;
    facts.folded = &preset;
    facts.inplace = &inplace;
    facts.consumer_count = &consumer_count;
    facts.producer_begin = &producer_begin;
    facts.producers = &producers;
    facts.releasable = &releasable;
    return facts;
}

graph::rewrite::RewriteResult
PlanOrder(graph::Graph& graph, const std::vector<graph::Output>& fetches,
          const std::vector<graph::NodeId>& targets,
          graph::VariableStore& variables,
          const graph::rewrite::RewriteOptions* rewrites, bool verified)
{
    if (rewrites != nullptr) {
        graph::rewrite::RewriteOptions options = *rewrites;
        options.verify = options.verify && !verified;
        return graph::rewrite::Rewrite(graph, fetches, targets, variables,
                                       options);
    }
    std::vector<graph::NodeId> roots;
    roots.reserve(fetches.size() + targets.size());
    for (const graph::Output& f : fetches) {
        roots.push_back(f.node);
    }
    roots.insert(roots.end(), targets.begin(), targets.end());
    graph::rewrite::RewriteResult planned;
    planned.order = graph.TopologicalOrder(roots);
    return planned;
}

ExecPlan
BuildExecPlan(const graph::Graph& graph, graph::rewrite::RewriteResult planned,
              const std::vector<graph::Output>& fetches)
{
    ExecPlan plan;
    plan.graph = &graph;
    plan.num_values = static_cast<std::size_t>(graph.num_nodes());
    plan.preset = std::move(planned.folded);
    plan.replacements = std::move(planned.replacements);
    auto resolve = [&plan](graph::NodeId id) {
        auto it = plan.replacements.find(id);
        return it == plan.replacements.end() ? id : it->second;
    };

    // Steps: the order minus fed and preset nodes. Op definitions are
    // resolved once here: registry lookups are string-keyed and would
    // otherwise run per op per step.
    const graph::OpRegistry& registry = graph::OpRegistry::Global();
    std::vector<std::int32_t> step_of(plan.num_values, -1);
    for (std::size_t oi = 0; oi < planned.order.size(); ++oi) {
        const graph::NodeId id = planned.order[oi];
        const graph::Node& node = graph.node(id);
        if (node.op_type == "Placeholder") {
            plan.placeholders.push_back(id);
            continue;
        }
        if (plan.preset.count(id) > 0) {
            continue;
        }
        step_of[static_cast<std::size_t>(id)] =
            static_cast<std::int32_t>(plan.nodes.size());
        plan.nodes.push_back(id);
        plan.ops.push_back(&node);
        plan.defs.push_back(&registry.Lookup(node.op_type));
        plan.inplace.push_back(planned.inplace.empty() ? 0
                                                       : planned.inplace[oi]);
    }
    auto step_for = [&](graph::NodeId id) {
        return step_of[static_cast<std::size_t>(resolve(id))];
    };

    std::unordered_set<graph::NodeId> fetched;
    plan.fetches.reserve(fetches.size());
    for (const graph::Output& f : fetches) {
        plan.fetches.push_back({resolve(f.node), f.index});
        fetched.insert(plan.fetches.back().node);
    }

    // Dependencies: data and control edges on other steps, plus the
    // stateful barriers. Liveness: the distinct producer steps of each
    // step's data inputs (control edges order execution but never read
    // a value), whose outputs die once every consumer step has run.
    const std::size_t n = plan.nodes.size();
    plan.initial_pending.assign(n, 0);
    plan.consumer_count.assign(n, 0);
    plan.releasable.assign(n, 0);
    plan.input_begin.push_back(0);
    plan.producer_begin.push_back(0);
    std::vector<std::vector<std::int32_t>> dependents(n);
    std::vector<std::int32_t> producers;
    std::vector<std::int32_t> deps;
    std::int32_t prev_barrier = -1;
    for (std::size_t i = 0; i < n; ++i) {
        const graph::Node& node = *plan.ops[i];
        const graph::OpDef& def = *plan.defs[i];
        plan.releasable[i] = !def.stateful && node.op_type != "Variable" &&
                             node.op_type != "Const" &&
                             fetched.count(node.id) == 0;
        producers.clear();
        for (const graph::Output& in : node.inputs) {
            plan.inputs.push_back({resolve(in.node), in.index});
            const std::int32_t p = step_for(in.node);
            if (p >= 0) {
                producers.push_back(p);
            }
        }
        plan.input_begin.push_back(
            static_cast<std::int32_t>(plan.inputs.size()));
        deps = producers;
        for (graph::NodeId c : node.control_inputs) {
            const std::int32_t p = step_for(c);
            if (p >= 0) {
                deps.push_back(p);
            }
        }
        if (def.stateful) {
            // Steps in (prev_barrier, i) already wait on prev_barrier,
            // so edges from that range (plus prev_barrier itself, for
            // back-to-back barriers) order this step after everything.
            for (auto j = std::max<std::int32_t>(prev_barrier, 0);
                 j < static_cast<std::int32_t>(i); ++j) {
                deps.push_back(j);
            }
            prev_barrier = static_cast<std::int32_t>(i);
        } else if (prev_barrier >= 0) {
            deps.push_back(prev_barrier);
        }
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        plan.initial_pending[i] = static_cast<std::int32_t>(deps.size());
        for (std::int32_t d : deps) {
            dependents[static_cast<std::size_t>(d)].push_back(
                static_cast<std::int32_t>(i));
        }
        AppendRow(producers, plan.producer_begin, plan.producers);
        for (std::int32_t p : producers) {
            ++plan.consumer_count[static_cast<std::size_t>(p)];
        }
    }

    plan.dependent_begin.push_back(0);
    for (std::vector<std::int32_t>& list : dependents) {
        AppendRow(list, plan.dependent_begin, plan.dependents);
    }
    return plan;
}

void
Execute(const ExecPlan& plan, ValueTable& values, const ExecContext& context,
        std::atomic<std::int32_t>* remaining, Tracer* tracer)
{
    if (tracer != nullptr && !tracer->enabled()) {
        tracer = nullptr;
    }
    const RunState run{plan, values, context, remaining, tracer,
                       tracer ? Clock::now() : Clock::time_point{}};
    if (context.inter_op != nullptr && plan.size() > 1) {
        if (telemetry::MetricsEnabled()) {
            ExecMetrics::Get().parallel_steps.Add(1);
        }
        RunParallel(run);
        return;
    }
    std::vector<Tensor> scratch;
    for (std::size_t seq = 0; seq < plan.size(); ++seq) {
        RunStep(run, seq, scratch, /*lane=*/0);
        ReleaseDead(run, seq);
    }
}

}  // namespace fathom::runtime
