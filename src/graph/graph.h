/**
 * @file
 * The dataflow graph container.
 */
#ifndef FATHOM_GRAPH_GRAPH_H
#define FATHOM_GRAPH_GRAPH_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/node.h"

namespace fathom::graph {

/** @return whether @p name marks a node appended by the rewriter. */
inline bool
IsRewriteProduced(const std::string& name)
{
    return name.rfind("__rw/", 0) == 0;
}

/**
 * An append-only DAG of operation nodes.
 *
 * Nodes are added during model construction and never removed; the
 * executor selects the subgraph reachable from the fetched outputs at
 * plan time (dead nodes cost nothing at run time, as in TensorFlow's
 * graph pruning).
 */
class Graph {
  public:
    Graph() = default;

    Graph(const Graph&) = delete;
    Graph& operator=(const Graph&) = delete;

    /**
     * Adds a node.
     *
     * @param name unique node name; a numeric suffix is appended on
     *             collision, so builders may reuse readable stems.
     * @return the new node's id.
     * @throws std::invalid_argument if an input references a missing
     *         node/output.
     */
    NodeId AddNode(std::string name, std::string op_type,
                   std::vector<Output> inputs,
                   std::map<std::string, AttrValue> attrs = {},
                   int num_outputs = 1);

    /** Adds a control (order-only) edge: @p before runs before @p node. */
    void AddControlEdge(NodeId before, NodeId node);

    const Node& node(NodeId id) const;
    Node& mutable_node(NodeId id);

    /** @return node by unique name; throws if absent. */
    const Node& node_by_name(const std::string& name) const;

    /** @return id of the node named @p name, or -1 if absent. */
    NodeId FindNode(const std::string& name) const;

    /** @return total node count. */
    int num_nodes() const { return static_cast<int>(nodes_.size()); }

    /**
     * @return a counter bumped by every AddNode and AddControlEdge,
     * except for rewrite-produced ("__rw/") nodes and control edges
     * into them: no other node reads those, so no fetch closure
     * changes. Plan caches key on it.
     */
    std::uint64_t generation() const { return generation_; }

    /** @return all node ids in insertion order. */
    std::vector<NodeId> AllNodes() const;

    /**
     * @return ids of the subgraph needed to produce @p targets (their
     * transitive data+control closure), in a valid topological
     * execution order.
     * @throws std::logic_error if a cycle is found.
     */
    std::vector<NodeId> TopologicalOrder(const std::vector<NodeId>& targets) const;

    /** @return a multi-line structural dump for debugging/inspection. */
    std::string DebugString() const;

  private:
    std::vector<std::unique_ptr<Node>> nodes_;
    std::unordered_map<std::string, NodeId> by_name_;
    std::uint64_t generation_ = 0;
};

}  // namespace fathom::graph

#endif  // FATHOM_GRAPH_GRAPH_H
