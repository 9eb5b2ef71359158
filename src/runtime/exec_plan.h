/**
 * @file
 * The one executor behind Session (training and inference steps) and
 * FrozenPlan (serving requests).
 *
 * A runner turns a fetch/target set into an ExecPlan once — order or
 * rewrite the closure (PlanOrder), compile it (BuildExecPlan), and
 * optionally verify it against the compiled facts (ExecPlan::Facts) —
 * and then calls Execute() once per step or request with a fresh value
 * table. Everything a step needs at run time is resolved at build:
 * each step's node and OpDef, its input edges already redirected
 * through the rewrite's replacement map, its dependents and pending
 * count, and its liveness credits, all in flat per-step arrays.
 */
#ifndef FATHOM_RUNTIME_EXEC_PLAN_H
#define FATHOM_RUNTIME_EXEC_PLAN_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/op_registry.h"
#include "graph/rewrite/rewrite.h"
#include "graph/verify/verifier.h"
#include "parallel/thread_pool.h"
#include "runtime/tracer.h"
#include "tensor/rng.h"

namespace fathom::runtime {

/** Per-node output values of one execution, indexed by node id. */
using ValueTable = std::vector<std::vector<Tensor>>;

/**
 * A compiled, immutable execution plan over one graph.
 *
 * Steps are the plan's kernels in a valid sequential order (the plan
 * sequence). Placeholders and preset nodes (constant-folded results,
 * a frozen plan's bound weights) are not steps: their values are in
 * the table before the first step runs, so edges from them neither
 * order execution nor hold liveness credit.
 *
 * Adjacency is stored CSR-style: step i's entries of `inputs` are
 * [input_begin[i], input_begin[i + 1]), and likewise for dependents
 * and producers.
 */
struct ExecPlan {
    /** The planned graph (borrowed; outlives the plan). */
    const graph::Graph* graph = nullptr;

    // ---- Per step, indexed by plan sequence --------------------------
    std::vector<graph::NodeId> nodes;
    std::vector<const graph::Node*> ops;
    std::vector<const graph::OpDef*> defs;
    /** Whether the kernel may write into input 0 (statically proven
        to die here; Execute still checks the runtime refcount). */
    std::vector<char> inplace;
    /** Dependencies (data, control, and stateful barriers) that must
        complete before the step may start. */
    std::vector<std::int32_t> initial_pending;
    /** Consumer steps that read the step's outputs. */
    std::vector<std::int32_t> consumer_count;
    /** Whether the outputs may be dropped at their last consumer
        (fetched, stateful, and Variable/Const steps are exempt). */
    std::vector<char> releasable;

    /** Input edges, resolved through the rewrite's replacements. */
    std::vector<std::int32_t> input_begin;
    std::vector<graph::Output> inputs;
    /** Steps unblocked by each step's completion. */
    std::vector<std::int32_t> dependent_begin;
    std::vector<std::int32_t> dependents;
    /** Distinct producer steps of each step's data inputs. */
    std::vector<std::int32_t> producer_begin;
    std::vector<std::int32_t> producers;

    // ---- Values that exist before the first step ---------------------
    /** Placeholders in the closure; the runner feeds them. */
    std::vector<graph::NodeId> placeholders;
    /** Outputs written into the table before execution. */
    std::unordered_map<graph::NodeId, std::vector<Tensor>> preset;
    /** The rewrite's edge redirection (verifier facts only). */
    std::unordered_map<graph::NodeId, graph::NodeId> replacements;
    /** Fetch edges, resolved through the replacements. */
    std::vector<graph::Output> fetches;
    /** Value-table size: the graph's node count at build time. */
    std::size_t num_values = 0;

    std::size_t size() const { return nodes.size(); }

    /** @return a value table holding the preset outputs. */
    ValueTable NewValues() const;

    /** @return per-step outstanding-consumer counters for one run. */
    std::unique_ptr<std::atomic<std::int32_t>[]> NewCredits() const;

    /** @return the facts the verifier's lints check (borrowed). */
    graph::verify::PlanFacts Facts() const;
};

/**
 * @return the closure of @p fetches / @p targets in execution order:
 * rewritten when @p rewrites is non-null (which may append "__rw/"
 * nodes to @p graph), else the graph as written. When @p verified, the
 * caller verifies the built plan with its own seeded feed types, which
 * subsumes the rewriter's post-condition check, so that check is
 * skipped.
 */
graph::rewrite::RewriteResult PlanOrder(
    graph::Graph& graph, const std::vector<graph::Output>& fetches,
    const std::vector<graph::NodeId>& targets,
    graph::VariableStore& variables,
    const graph::rewrite::RewriteOptions* rewrites, bool verified);

/**
 * Compiles @p planned (from PlanOrder, possibly with extra preset
 * values) into an ExecPlan. Stateful steps become barriers: they wait
 * for every earlier step and every later step waits for them, so RNG
 * draws and variable writes happen in plan order at any inter-op width.
 */
ExecPlan BuildExecPlan(const graph::Graph& graph,
                       graph::rewrite::RewriteResult planned,
                       const std::vector<graph::Output>& fetches);

/** What kernels run against, shared by every step of one execution. */
struct ExecContext {
    parallel::ThreadPool* intra_op = nullptr;  ///< kernel pool.
    /** Lane pool for inter-op execution; null runs steps serially. */
    parallel::ThreadPool* inter_op = nullptr;
    Rng* rng = nullptr;
    graph::VariableStore* variables = nullptr;
};

/**
 * Runs every step of @p plan into @p values (which must hold the
 * preset and fed values): serially in plan order, or by draining a
 * dependency-counting ready queue over the inter-op pool's lanes.
 *
 * @param remaining per-step consumer credits from NewCredits(); each
 *        step's outputs are dropped at their last consumer. Null keeps
 *        every value to the end.
 * @param tracer per-op records (with timestamps) go here when non-null
 *        and enabled; otherwise no clock is read per op.
 * @throws the failing step's error; among concurrent failures the
 *         lowest plan sequence wins. In-flight steps always finish.
 */
void Execute(const ExecPlan& plan, ValueTable& values,
             const ExecContext& context,
             std::atomic<std::int32_t>* remaining, Tracer* tracer);

}  // namespace fathom::runtime

#endif  // FATHOM_RUNTIME_EXEC_PLAN_H
