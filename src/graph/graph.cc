#include "graph/graph.h"

#include <sstream>
#include <stdexcept>

namespace fathom::graph {

NodeId
Graph::AddNode(std::string name, std::string op_type,
               std::vector<Output> inputs,
               std::map<std::string, AttrValue> attrs, int num_outputs)
{
    const NodeId id = static_cast<NodeId>(nodes_.size());
    for (const Output& in : inputs) {
        if (in.node < 0 || in.node >= id) {
            throw std::invalid_argument("Graph::AddNode('" + name +
                                        "'): input node id out of range");
        }
        if (in.index < 0 || in.index >= nodes_[static_cast<std::size_t>(
                                             in.node)]->num_outputs) {
            throw std::invalid_argument("Graph::AddNode('" + name +
                                        "'): input output-index out of range");
        }
    }

    // Uniquify the name with a numeric suffix if needed.
    std::string unique = name;
    int suffix = 1;
    while (by_name_.count(unique)) {
        unique = name + "_" + std::to_string(suffix++);
    }

    auto node = std::make_unique<Node>();
    node->id = id;
    node->name = unique;
    node->op_type = std::move(op_type);
    node->inputs = std::move(inputs);
    node->attrs = std::move(attrs);
    node->num_outputs = num_outputs;
    if (!IsRewriteProduced(unique)) {
        ++generation_;
    }
    by_name_[unique] = id;
    nodes_.push_back(std::move(node));
    return id;
}

void
Graph::AddControlEdge(NodeId before, NodeId node)
{
    if (before < 0 || node < 0 || before >= num_nodes() ||
        node >= num_nodes()) {
        throw std::invalid_argument("Graph::AddControlEdge: id out of range");
    }
    Node& target = mutable_node(node);
    if (!IsRewriteProduced(target.name)) {
        ++generation_;
    }
    target.control_inputs.push_back(before);
}

const Node&
Graph::node(NodeId id) const
{
    if (id < 0 || id >= num_nodes()) {
        throw std::out_of_range("Graph::node: id out of range");
    }
    return *nodes_[static_cast<std::size_t>(id)];
}

Node&
Graph::mutable_node(NodeId id)
{
    if (id < 0 || id >= num_nodes()) {
        throw std::out_of_range("Graph::mutable_node: id out of range");
    }
    return *nodes_[static_cast<std::size_t>(id)];
}

const Node&
Graph::node_by_name(const std::string& name) const
{
    auto it = by_name_.find(name);
    if (it == by_name_.end()) {
        throw std::out_of_range("Graph: no node named '" + name + "'");
    }
    return node(it->second);
}

NodeId
Graph::FindNode(const std::string& name) const
{
    auto it = by_name_.find(name);
    return it == by_name_.end() ? -1 : it->second;
}

std::vector<NodeId>
Graph::AllNodes() const
{
    std::vector<NodeId> ids;
    ids.reserve(nodes_.size());
    for (const auto& n : nodes_) {
        ids.push_back(n->id);
    }
    return ids;
}

std::vector<NodeId>
Graph::TopologicalOrder(const std::vector<NodeId>& targets) const
{
    // Iterative DFS with colors; nodes were appended in dependency
    // order (AddNode validates inputs point backwards), so cycles can
    // only arise via control edges.
    enum class Color { kWhite, kGray, kBlack };
    std::vector<Color> color(nodes_.size(), Color::kWhite);
    std::vector<NodeId> order;
    order.reserve(nodes_.size());

    struct Frame {
        NodeId id;
        std::size_t next_dep;
    };
    std::vector<Frame> stack;

    auto deps_of = [this](NodeId id) {
        std::vector<NodeId> deps;
        const Node& n = node(id);
        deps.reserve(n.inputs.size() + n.control_inputs.size());
        for (const Output& in : n.inputs) {
            deps.push_back(in.node);
        }
        for (NodeId c : n.control_inputs) {
            deps.push_back(c);
        }
        return deps;
    };

    for (NodeId target : targets) {
        if (target < 0 || target >= num_nodes()) {
            throw std::out_of_range("TopologicalOrder: target out of range");
        }
        if (color[static_cast<std::size_t>(target)] == Color::kBlack) {
            continue;
        }
        stack.push_back({target, 0});
        color[static_cast<std::size_t>(target)] = Color::kGray;
        while (!stack.empty()) {
            Frame& frame = stack.back();
            const auto deps = deps_of(frame.id);
            if (frame.next_dep < deps.size()) {
                const NodeId dep = deps[frame.next_dep++];
                Color& c = color[static_cast<std::size_t>(dep)];
                if (c == Color::kGray) {
                    throw std::logic_error("Graph contains a cycle through '" +
                                           node(dep).name + "'");
                }
                if (c == Color::kWhite) {
                    c = Color::kGray;
                    stack.push_back({dep, 0});
                }
            } else {
                color[static_cast<std::size_t>(frame.id)] = Color::kBlack;
                order.push_back(frame.id);
                stack.pop_back();
            }
        }
    }
    return order;
}

std::string
Graph::DebugString() const
{
    std::ostringstream out;
    for (const auto& n : nodes_) {
        out << n->id << ": " << n->name << " = " << n->op_type << "(";
        for (std::size_t i = 0; i < n->inputs.size(); ++i) {
            if (i > 0) {
                out << ", ";
            }
            out << node(n->inputs[i].node).name;
            if (n->inputs[i].index != 0) {
                out << ":" << n->inputs[i].index;
            }
        }
        out << ")";
        if (!n->control_inputs.empty()) {
            out << " [ctrl:";
            for (NodeId c : n->control_inputs) {
                out << " " << node(c).name;
            }
            out << "]";
        }
        out << "\n";
    }
    return out.str();
}

}  // namespace fathom::graph
