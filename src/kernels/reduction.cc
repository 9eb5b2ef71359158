#include "kernels/reduction.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "kernels/elementwise.h"

namespace fathom::kernels {

Tensor
Reduce(const Tensor& input, ReduceOp op, const std::vector<int>& axes,
       bool keep_dims, parallel::ThreadPool& pool)
{
    const Shape& in_shape = input.shape();
    const int rank = in_shape.rank();

    std::set<int> reduce_axes;
    if (axes.empty()) {
        for (int i = 0; i < rank; ++i) {
            reduce_axes.insert(i);
        }
    } else {
        for (int a : axes) {
            const int norm = a < 0 ? a + rank : a;
            if (norm < 0 || norm >= rank) {
                throw std::invalid_argument("Reduce: axis out of range");
            }
            reduce_axes.insert(norm);
        }
    }

    // kept_dims is the output with reduced axes as extent 1: the operand
    // that broadcasts over them when the input is walked.
    std::vector<std::int64_t> out_dims;
    std::vector<std::int64_t> kept_dims;
    kept_dims.reserve(static_cast<std::size_t>(rank));
    for (int i = 0; i < rank; ++i) {
        const bool reduced = reduce_axes.count(i) > 0;
        kept_dims.push_back(reduced ? 1 : in_shape.dim(i));
        if (!reduced || keep_dims) {
            out_dims.push_back(kept_dims.back());
        }
    }
    const Shape out_shape(out_dims);
    const Shape kept_shape(kept_dims);

    Tensor out = Tensor::Full(
        out_shape, op == ReduceOp::kMax
                       ? -std::numeric_limits<float>::infinity()
                       : 0.0f);
    const float* in = input.data<float>();
    float* o = out.data<float>();
    const std::int64_t out_n = out.num_elements();

    // Sum/mean accumulate in double: a float accumulator loses low
    // bits once the running sum dwarfs the addends, which is routine
    // for the million-element activation reductions in vgg/residual.
    std::vector<double> acc;
    if (op == ReduceOp::kMax) {
        ReduceWalk(in_shape, kept_shape, in, o,
                   [](float m, float x) { return std::max(m, x); });
    } else {
        acc.assign(static_cast<std::size_t>(out_n), 0.0);
        ReduceWalk(in_shape, kept_shape, in, acc.data(),
                   [](double sum, float x) {
                       return sum + static_cast<double>(x);
                   });
    }

    if (op != ReduceOp::kMax) {
        std::int64_t count = 1;
        for (int a : reduce_axes) {
            count *= in_shape.dim(a);
        }
        const double scale =
            op == ReduceOp::kMean && count > 0 ? 1.0 / count : 1.0;
        for (std::int64_t i = 0; i < out_n; ++i) {
            o[i] = static_cast<float>(acc[static_cast<std::size_t>(i)] *
                                      scale);
        }
    }
    (void)pool;
    return out;
}

namespace {

/** @return (rows, cols) flattening all but the last dimension. */
std::pair<std::int64_t, std::int64_t>
RowsCols(const Shape& s)
{
    if (s.rank() < 1) {
        throw std::invalid_argument("softmax-family kernels need rank >= 1");
    }
    const std::int64_t cols = s.dim(-1);
    return {s.num_elements() / std::max<std::int64_t>(cols, 1), cols};
}

}  // namespace

Tensor
Softmax(const Tensor& logits, parallel::ThreadPool& pool)
{
    const auto [rows, cols] = RowsCols(logits.shape());
    Tensor out(DType::kFloat32, logits.shape());
    const float* in = logits.data<float>();
    float* o = out.data<float>();
    pool.ParallelFor(rows, /*grain=*/4, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const float* row = in + r * cols;
            float* orow = o + r * cols;
            float m = -std::numeric_limits<float>::infinity();
            for (std::int64_t c = 0; c < cols; ++c) {
                m = std::max(m, row[c]);
            }
            // Double accumulator: wide softmax rows (vocabulary-sized
            // logits) otherwise lose precision in the normalizer.
            double sum = 0.0;
            for (std::int64_t c = 0; c < cols; ++c) {
                orow[c] = std::exp(row[c] - m);
                sum += static_cast<double>(orow[c]);
            }
            const float inv = static_cast<float>(1.0 / sum);
            for (std::int64_t c = 0; c < cols; ++c) {
                orow[c] *= inv;
            }
        }
    });
    return out;
}

Tensor
LogSoftmax(const Tensor& logits, parallel::ThreadPool& pool)
{
    const auto [rows, cols] = RowsCols(logits.shape());
    Tensor out(DType::kFloat32, logits.shape());
    const float* in = logits.data<float>();
    float* o = out.data<float>();
    pool.ParallelFor(rows, /*grain=*/4, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const float* row = in + r * cols;
            float* orow = o + r * cols;
            float m = -std::numeric_limits<float>::infinity();
            for (std::int64_t c = 0; c < cols; ++c) {
                m = std::max(m, row[c]);
            }
            double sum = 0.0;
            for (std::int64_t c = 0; c < cols; ++c) {
                sum += static_cast<double>(std::exp(row[c] - m));
            }
            const float log_sum = static_cast<float>(std::log(sum)) + m;
            for (std::int64_t c = 0; c < cols; ++c) {
                orow[c] = row[c] - log_sum;
            }
        }
    });
    return out;
}

Tensor
ArgMaxLastDim(const Tensor& input, parallel::ThreadPool& pool)
{
    const auto [rows, cols] = RowsCols(input.shape());
    std::vector<std::int64_t> out_dims = input.shape().dims();
    out_dims.pop_back();
    Tensor out(DType::kInt32, Shape(out_dims));
    const float* in = input.data<float>();
    std::int32_t* o = out.data<std::int32_t>();
    pool.ParallelFor(rows, /*grain=*/16,
                     [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            const float* row = in + r * cols;
            std::int64_t best = 0;
            for (std::int64_t c = 1; c < cols; ++c) {
                if (row[c] > row[best]) {
                    best = c;
                }
            }
            o[r] = static_cast<std::int32_t>(best);
        }
    });
    return out;
}

namespace {

/**
 * Splits every dimension d of a tiling into (multiple, extent), which
 * makes Tile a broadcast and TileGrad a ReduceToShape: @return the
 * input's split shape [1,d0,1,d1,...] and the tiled split shape
 * [1,m0,d0,m1,d1,...]. Tiled flat index q*d + r of a dimension is
 * (q, r) in the split one. The tiled shape's extra leading 1 keeps the
 * two shapes apart when every multiple is 1, so TileGrad still sums
 * each cell from +0 (turning -0.0 into +0.0) instead of passing the
 * gradient through.
 */
std::pair<Shape, Shape>
SplitTiling(const Shape& in_shape, const std::vector<std::int64_t>& multiples,
            const std::string& op)
{
    if (static_cast<int>(multiples.size()) != in_shape.rank()) {
        throw std::invalid_argument(op + ": multiples rank mismatch");
    }
    std::vector<std::int64_t> source;
    std::vector<std::int64_t> tiled = {1};
    for (int i = 0; i < in_shape.rank(); ++i) {
        const std::int64_t m = multiples[static_cast<std::size_t>(i)];
        if (m < 1) {
            throw std::invalid_argument(op + ": multiples must be >= 1");
        }
        source.insert(source.end(), {1, in_shape.dim(i)});
        tiled.insert(tiled.end(), {m, in_shape.dim(i)});
    }
    return {Shape(source), Shape(tiled)};
}

}  // namespace

Tensor
Tile(const Tensor& input, const std::vector<std::int64_t>& multiples,
     parallel::ThreadPool& pool)
{
    const auto [source, tiled] = SplitTiling(input.shape(), multiples, "Tile");
    std::vector<std::int64_t> out_dims;
    out_dims.reserve(multiples.size());
    for (int i = 0; i < input.shape().rank(); ++i) {
        out_dims.push_back(input.shape().dim(i) *
                           multiples[static_cast<std::size_t>(i)]);
    }
    return BroadcastMap(input.Reshape(source), tiled,
                        [](float x) { return x; }, pool)
        .Reshape(Shape(out_dims));
}

Tensor
TileGrad(const Tensor& grad_out, const Shape& input_shape,
         const std::vector<std::int64_t>& multiples,
         parallel::ThreadPool& pool)
{
    const auto [source, tiled] =
        SplitTiling(input_shape, multiples, "TileGrad");
    return ReduceToShape(grad_out.Reshape(tiled), source, pool)
        .Reshape(input_shape);
}

}  // namespace fathom::kernels
