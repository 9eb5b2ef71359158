/**
 * @file
 * Elementwise arithmetic ops and their gradients.
 */
#include <cmath>

#include "autodiff/gradients.h"
#include "graph/op_registry.h"
#include "graph/rewrite/fusion_stages.h"
#include "graph/verify/shape_inference.h"
#include "kernels/elementwise.h"
#include "ops/common.h"
#include "ops/register.h"

namespace fathom::ops {

using autodiff::GradientRegistry;
using graph::AttrValue;
using graph::GraphBuilder;
using graph::Node;
using graph::OpClass;
using graph::OpContext;
using graph::OpDef;
using graph::OpRegistry;
using graph::Output;

namespace {

using graph::rewrite::FusionStage;
using graph::rewrite::FusionStageRegistry;
using graph::verify::InferenceContext;
using graph::verify::ShapeFnRegistry;
using graph::verify::TypeInfo;

/**
 * Shape fn shared by all broadcasting float binaries: both inputs
 * float32, output is their NumPy broadcast; @p param_attrs are the
 * required static float attrs (e.g. ClipByValueGrad's bounds).
 */
void
RegisterBinaryShapeFn(const std::string& name,
                      std::vector<std::string> param_attrs)
{
    ShapeFnRegistry::Global().Register(
        name, [param_attrs](InferenceContext& ctx) {
            if (ctx.num_inputs() != 2) {
                ctx.Fail("expected 2 inputs, got " +
                         std::to_string(ctx.num_inputs()));
            }
            for (const std::string& a : param_attrs) {
                ctx.RequireFloatAttr(a);
            }
            ctx.ExpectDType(0, DType::kFloat32);
            ctx.ExpectDType(1, DType::kFloat32);
            TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
            if (ctx.KnownShape(0) && ctx.KnownShape(1)) {
                try {
                    out = TypeInfo::Of(
                        DType::kFloat32,
                        graph::verify::BroadcastShapes(
                            ctx.input(0).shape, ctx.input(1).shape));
                } catch (const std::exception& e) {
                    ctx.Fail(e.what());
                }
            }
            ctx.set_output(0, out);
        });
}

/** Shape fn shared by the float unaries: output mirrors the input. */
void
RegisterUnaryShapeFn(const std::string& name,
                     std::vector<std::string> param_attrs)
{
    ShapeFnRegistry::Global().Register(
        name, [param_attrs](InferenceContext& ctx) {
            if (ctx.num_inputs() != 1) {
                ctx.Fail("expected 1 input, got " +
                         std::to_string(ctx.num_inputs()));
            }
            for (const std::string& a : param_attrs) {
                ctx.RequireFloatAttr(a);
            }
            ctx.ExpectDType(0, DType::kFloat32);
            TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
            if (ctx.KnownShape(0)) {
                out.has_shape = true;
                out.shape = ctx.input(0).shape;
            }
            ctx.set_output(0, out);
        });
}

// Scalar kernels shared verbatim between the standalone op kernels and
// the FusedElementwise kernel (via the fusion-stage registry): fusion
// replays exactly these functions per element, which is what makes
// fused results bit-identical to the unfused chain. The const float*
// parameter carries static attr values (e.g. Pow's exponent).
float AddS(float a, float b, const float*) { return a + b; }
float SubS(float a, float b, const float*) { return a - b; }
float MulS(float a, float b, const float*) { return a * b; }
float DivS(float a, float b, const float*) { return a / b; }
float NegS(float x, const float*) { return -x; }
float ExpS(float x, const float*) { return std::exp(x); }
float LogS(float x, const float*) { return std::log(x); }
float SqrtS(float x, const float*) { return std::sqrt(x); }
float SquareS(float x, const float*) { return x * x; }
float ReluS(float x, const float*) { return x > 0.0f ? x : 0.0f; }
float SigmoidS(float x, const float*) { return 1.0f / (1.0f + std::exp(-x)); }
float TanhS(float x, const float*) { return std::tanh(x); }
float PowS(float x, const float* p) { return std::pow(x, p[0]); }
float ClipS(float x, const float* p)
{
    return x < p[0] ? p[0] : (x > p[1] ? p[1] : x);
}
float ReluGradS(float g, float x, const float*) { return x > 0.0f ? g : 0.0f; }
float SigmoidGradS(float g, float y, const float*)
{
    return g * y * (1.0f - y);
}
float TanhGradS(float g, float y, const float*)
{
    return g * (1.0f - y * y);
}
float ClipGradS(float g, float x, const float* p)
{
    return (x >= p[0] && x <= p[1]) ? g : 0.0f;
}

/** Reads @p attrs off the node into a flat param vector. */
std::vector<float>
AttrParams(OpContext& ctx, const std::vector<std::string>& attrs)
{
    std::vector<float> params;
    params.reserve(attrs.size());
    for (const std::string& a : attrs) {
        params.push_back(ctx.node().attr(a).AsFloat());
    }
    return params;
}

/**
 * Registers a broadcasting binary op and its fusion stage. @p Fn is a
 * template argument so the op kernel's loop calls it directly; the
 * fusion stage holds the same function's pointer. All elementwise ops
 * support in-place output into input 0 when granted.
 */
template <float (*Fn)(float, float, const float*)>
void
RegisterBinary(const std::string& name, double flops_per_elem,
               std::vector<std::string> param_attrs = {})
{
    OpRegistry::Global().Register(OpDef{
        name, OpClass::kElementwise,
        [param_attrs](OpContext& ctx) {
            const std::vector<float> params = AttrParams(ctx, param_attrs);
            const float* p = params.data();
            ctx.set_output(
                0, kernels::BinaryMap(
                       ctx.input(0), ctx.input(1),
                       [p](float a, float b) { return Fn(a, b, p); },
                       ctx.pool(), ctx.may_alias_input()));
        },
        ElementwiseCost(flops_per_elem), false, /*supports_inplace=*/true});
    RegisterBinaryShapeFn(name, param_attrs);
    FusionStageRegistry::Global().Register(
        name, FusionStage{2, nullptr, Fn, std::move(param_attrs),
                          flops_per_elem});
}

/** Registers a unary op and its fusion stage; see RegisterBinary. */
template <float (*Fn)(float, const float*)>
void
RegisterUnary(const std::string& name, double flops_per_elem,
              std::vector<std::string> param_attrs = {})
{
    OpRegistry::Global().Register(OpDef{
        name, OpClass::kElementwise,
        [param_attrs](OpContext& ctx) {
            const std::vector<float> params = AttrParams(ctx, param_attrs);
            const float* p = params.data();
            ctx.set_output(0, kernels::UnaryMap(
                                  ctx.input(0),
                                  [p](float x) { return Fn(x, p); },
                                  ctx.pool(), ctx.may_alias_input()));
        },
        ElementwiseCost(flops_per_elem), false, /*supports_inplace=*/true});
    RegisterUnaryShapeFn(name, param_attrs);
    FusionStageRegistry::Global().Register(
        name, FusionStage{1, Fn, nullptr, std::move(param_attrs),
                          flops_per_elem});
}

/** Reduces @p grad to the broadcast-input's shape. */
Output
SumTo(GraphBuilder& b, Output grad, Output ref)
{
    return b.AddOp("sum_to", "SumToShapeOf", {grad, ref});
}

}  // namespace

void
RegisterMathOps()
{
    OpRegistry& ops = OpRegistry::Global();
    GradientRegistry& grads = GradientRegistry::Global();

    RegisterBinary<AddS>("Add", 1.0);
    RegisterBinary<SubS>("Sub", 1.0);
    RegisterBinary<MulS>("Mul", 1.0);
    RegisterBinary<DivS>("Div", 4.0);

    RegisterUnary<NegS>("Neg", 1.0);
    RegisterUnary<ExpS>("Exp", 10.0);
    RegisterUnary<LogS>("Log", 10.0);
    RegisterUnary<SqrtS>("Sqrt", 4.0);
    RegisterUnary<SquareS>("Square", 1.0);
    RegisterUnary<ReluS>("Relu", 1.0);
    RegisterUnary<SigmoidS>("Sigmoid", 12.0);
    RegisterUnary<TanhS>("Tanh", 12.0);

    RegisterUnary<PowS>("Pow", 20.0, {"exponent"});
    RegisterUnary<ClipS>("ClipByValue", 2.0, {"clip_min", "clip_max"});

    ops.Register(OpDef{
        "AddN", OpClass::kElementwise,
        [](OpContext& ctx) {
            // In place the accumulator IS input 0 (whose buffer dies
            // here); otherwise it starts as a copy — same values.
            const bool alias = ctx.may_alias_input() &&
                               ctx.input(0).dtype() == DType::kFloat32;
            Tensor acc = alias ? ctx.input(0) : ctx.input(0).Clone();
            float* a = acc.data<float>();
            const std::int64_t n = acc.num_elements();
            for (int i = 1; i < ctx.num_inputs(); ++i) {
                if (ctx.input(i).shape() != acc.shape()) {
                    throw std::invalid_argument("AddN: shape mismatch");
                }
                const float* x = ctx.input(i).data<float>();
                for (std::int64_t k = 0; k < n; ++k) {
                    a[k] += x[k];
                }
            }
            ctx.set_output(0, std::move(acc));
        },
        ElementwiseCost(1.0), false, /*supports_inplace=*/true});
    ShapeFnRegistry::Global().Register("AddN", [](InferenceContext& ctx) {
        if (ctx.num_inputs() < 1) {
            ctx.Fail("expected at least 1 input");
        }
        TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
        for (int i = 0; i < ctx.num_inputs(); ++i) {
            ctx.ExpectDType(i, DType::kFloat32);
            ctx.ExpectSameShape(0, i);
            if (ctx.KnownShape(i)) {
                out.has_shape = true;
                out.shape = ctx.input(i).shape;
            }
        }
        ctx.set_output(0, out);
    });

    // Gradient helper ops (elementwise, appear in backward profiles).
    // inputs: (grad, x) / (grad, y = forward output).
    RegisterBinary<ReluGradS>("ReluGrad", 1.0);
    RegisterBinary<SigmoidGradS>("SigmoidGrad", 3.0);
    RegisterBinary<TanhGradS>("TanhGrad", 3.0);
    RegisterBinary<ClipGradS>("ClipByValueGrad", 2.0,
                              {"clip_min", "clip_max"});

    // The adjoint of broadcasting: reduce grad down to ref's shape.
    ops.Register(OpDef{
        "SumToShapeOf", OpClass::kReductionExpansion,
        [](OpContext& ctx) {
            ctx.set_output(0, kernels::ReduceToShape(
                                  ctx.input(0), ctx.input(1).shape(),
                                  ctx.pool()));
        },
        SerialCost(1.0), false});
    ShapeFnRegistry::Global().Register(
        "SumToShapeOf", [](InferenceContext& ctx) {
            if (ctx.num_inputs() != 2) {
                ctx.Fail("expected 2 inputs (grad, shape ref), got " +
                         std::to_string(ctx.num_inputs()));
            }
            ctx.ExpectDType(0, DType::kFloat32);
            TypeInfo out = TypeInfo::OfDType(DType::kFloat32);
            if (ctx.KnownShape(1)) {
                out.has_shape = true;
                out.shape = ctx.input(1).shape;
            }
            ctx.set_output(0, out);
        });

    // ---- gradients -------------------------------------------------------

    grads.Register(
        "Add",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {SumTo(b, g[0], node.inputs[0]),
                    SumTo(b, g[0], node.inputs[1])};
        });

    grads.Register(
        "Sub",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {SumTo(b, g[0], node.inputs[0]),
                    SumTo(b, b.Neg(g[0]), node.inputs[1])};
        });

    grads.Register(
        "Mul",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const Output a = node.inputs[0];
            const Output bb = node.inputs[1];
            return {SumTo(b, b.Mul(g[0], bb), a),
                    SumTo(b, b.Mul(g[0], a), bb)};
        });

    grads.Register(
        "Div",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const Output a = node.inputs[0];
            const Output bb = node.inputs[1];
            const Output ga = b.Div(g[0], bb);
            const Output gb =
                b.Neg(b.Div(b.Mul(g[0], a), b.Mul(bb, bb)));
            return {SumTo(b, ga, a), SumTo(b, gb, bb)};
        });

    grads.Register(
        "AddN",
        [](GraphBuilder&, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return std::vector<std::optional<Output>>(node.inputs.size(),
                                                      g[0]);
        });

    grads.Register(
        "Neg",
        [](GraphBuilder& b, const Node&, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> { return {b.Neg(g[0])}; });

    grads.Register(
        "Exp",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.Mul(g[0], Output{node.id, 0})};
        });

    grads.Register(
        "Log",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.Div(g[0], node.inputs[0])};
        });

    grads.Register(
        "Sqrt",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            // d sqrt(x) = 0.5 / sqrt(x)
            const Output half = b.ScalarConst(0.5f, "half");
            return {b.Div(b.Mul(g[0], half), Output{node.id, 0})};
        });

    grads.Register(
        "Square",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const Output two = b.ScalarConst(2.0f, "two");
            return {b.Mul(b.Mul(g[0], two), node.inputs[0])};
        });

    grads.Register(
        "Pow",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            const float p = node.attr("exponent").AsFloat();
            const Output coeff = b.ScalarConst(p, "pow_coeff");
            return {b.Mul(b.Mul(g[0], coeff),
                          b.Pow(node.inputs[0], p - 1.0f))};
        });

    grads.Register(
        "Relu",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("relu_grad", "ReluGrad", {g[0], node.inputs[0]})};
        });

    grads.Register(
        "Sigmoid",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("sigmoid_grad", "SigmoidGrad",
                            {g[0], Output{node.id, 0}})};
        });

    grads.Register(
        "Tanh",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("tanh_grad", "TanhGrad",
                            {g[0], Output{node.id, 0}})};
        });

    grads.Register(
        "ClipByValue",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            return {b.AddOp("clip_grad", "ClipByValueGrad",
                            {g[0], node.inputs[0]},
                            {{"clip_min", node.attr("clip_min")},
                             {"clip_max", node.attr("clip_max")}})};
        });

    grads.Register(
        "ReluGrad",
        [](GraphBuilder& b, const Node& node, const std::vector<Output>& g)
            -> std::vector<std::optional<Output>> {
            // Second-order term for x is zero a.e.; propagate through
            // the grad operand only.
            return {b.AddOp("relu_grad", "ReluGrad", {g[0], node.inputs[1]}),
                    std::nullopt};
        });
}

}  // namespace fathom::ops
