/**
 * @file
 * Elementwise unary/binary maps with NumPy-style broadcasting.
 *
 * The elementwise-arithmetic operation class covers activations and the
 * gate arithmetic inside LSTM cells — the paper singles these out as the
 * reason seq2seq's profile is heavy on elementwise multiplication.
 *
 * The maps are templates on the scalar callable, so an op kernel that
 * passes a lambda gets the scalar function inlined into a plain loop the
 * compiler can vectorise. Broadcast operands are walked with one
 * collapsed-dimension odometer (BroadcastWalk): shape and stride
 * planning is out of line, only the row loop is instantiated per
 * callable.
 */
#ifndef FATHOM_KERNELS_ELEMENTWISE_H
#define FATHOM_KERNELS_ELEMENTWISE_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "parallel/thread_pool.h"
#include "tensor/tensor.h"

namespace fathom::kernels {

/**
 * @return the NumPy broadcast of two shapes.
 * @throws std::invalid_argument if the shapes are incompatible.
 */
Shape BroadcastShape(const Shape& a, const Shape& b);

/** @return the row-major element strides of @p s. */
std::vector<std::int64_t> RowMajorStrides(const Shape& s);

/**
 * A row-major walk over a dense iteration space with up to two operands
 * that step through it by their own element strides (0 along a
 * broadcast dimension).
 *
 * Extent-1 dimensions are dropped and adjacent dimensions are merged
 * wherever every operand steps through them contiguously (outer stride
 * = inner stride x inner extent, which includes both strides being 0),
 * so a bias [C] against an NHWC output [N,H,W,C] walks as [N*H*W, C].
 * The last collapsed dimension is the inner loop; for broadcast
 * operands each operand's stride there is 1 (contiguous) or 0.
 */
struct BroadcastWalk {
    std::vector<std::int64_t> dims;  ///< collapsed extents; never empty.
    std::vector<std::int64_t> stride_a;  ///< operand a's element strides.
    std::vector<std::int64_t> stride_b;  ///< operand b's element strides.

    /**
     * Plans the walk of @p space for operands shaped @p a and @p b
     * (trailing-aligned; pass Shape{} for an unused operand).
     * @throws std::invalid_argument if an operand does not broadcast
     *         to @p space.
     */
    BroadcastWalk(const Shape& space, const Shape& a, const Shape& b);

    /** Plans the walk of @p space for operand a with strides @p sa. */
    BroadcastWalk(const Shape& space, const std::vector<std::int64_t>& sa);

    /**
     * Calls row(flat, n, off_a, off_b) for each run of @p n consecutive
     * flat indices of [begin, end) that lie in one inner row, in
     * ascending order; off_a and off_b are the operands' element
     * offsets at @p flat.
     */
    template <typename Row>
    void
    Run(std::int64_t begin, std::int64_t end, Row&& row) const
    {
        if (begin >= end) {
            return;
        }
        const std::size_t last = dims.size() - 1;
        // Decompose begin once; after that the odometer only carries.
        std::vector<std::int64_t> idx(dims.size());
        std::int64_t base_a = 0;
        std::int64_t base_b = 0;
        std::int64_t rem = begin;
        for (std::size_t d = dims.size(); d-- > 0;) {
            idx[d] = rem % dims[d];
            rem /= dims[d];
            if (d != last) {
                base_a += idx[d] * stride_a[d];
                base_b += idx[d] * stride_b[d];
            }
        }
        std::int64_t col = idx[last];
        std::int64_t flat = begin;
        for (;;) {
            const std::int64_t n = std::min(dims[last] - col, end - flat);
            row(flat, n, base_a + col * stride_a[last],
                base_b + col * stride_b[last]);
            flat += n;
            if (flat >= end) {
                return;
            }
            col = 0;
            for (std::size_t d = last; d-- > 0;) {
                base_a += stride_a[d];
                base_b += stride_b[d];
                if (++idx[d] < dims[d]) {
                    break;
                }
                base_a -= stride_a[d] * dims[d];
                base_b -= stride_b[d] * dims[d];
                idx[d] = 0;
            }
        }
    }
};

/**
 * Applies @p fn elementwise to a float32 tensor.
 *
 * With @p may_alias the output reuses @p input's buffer instead of
 * allocating (caller must have proven the input value dies here). The
 * aliased and non-aliased paths run the identical loop — each element
 * is read before its slot is written — so results are bit-identical.
 */
template <typename Fn>
Tensor
UnaryMap(const Tensor& input, Fn fn, parallel::ThreadPool& pool,
         bool may_alias = false)
{
    Tensor out = (may_alias && input.dtype() == DType::kFloat32)
                     ? input
                     : Tensor(DType::kFloat32, input.shape());
    const float* in = input.data<float>();
    float* o = out.data<float>();
    pool.ParallelFor(input.num_elements(), /*grain=*/4096,
                     [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
            o[i] = fn(in[i]);
        }
    });
    return out;
}

namespace detail {

/**
 * Runs o[flat] = fn(pa[off_a], pb[off_b]) over all @p n elements of
 * @p walk, split over @p pool. Each inner row is a plain loop with any
 * broadcast operand hoisted to a scalar.
 */
template <typename Fn>
void
MapWalk(const BroadcastWalk& walk, std::int64_t n, const float* pa,
        const float* pb, float* o, Fn fn, parallel::ThreadPool& pool)
{
    const bool a_rows = walk.stride_a.back() == 1;
    const bool b_rows = walk.stride_b.back() == 1;
    pool.ParallelFor(n, /*grain=*/2048,
                     [&](std::int64_t i0, std::int64_t i1) {
        walk.Run(i0, i1, [&](std::int64_t flat, std::int64_t len,
                             std::int64_t off_a, std::int64_t off_b) {
            float* dst = o + flat;
            const float* x = pa + off_a;
            const float* y = pb + off_b;
            if (a_rows && b_rows) {
                for (std::int64_t i = 0; i < len; ++i) {
                    dst[i] = fn(x[i], y[i]);
                }
            } else if (a_rows) {
                const float yv = *y;
                for (std::int64_t i = 0; i < len; ++i) {
                    dst[i] = fn(x[i], yv);
                }
            } else if (b_rows) {
                const float xv = *x;
                for (std::int64_t i = 0; i < len; ++i) {
                    dst[i] = fn(xv, y[i]);
                }
            } else {
                std::fill(dst, dst + len, fn(*x, *y));
            }
        });
    });
}

}  // namespace detail

/**
 * Applies @p fn to each element of @p input broadcast to shape @p to:
 * out[i] = fn(input[broadcast offset of i]). One pass, no intermediate.
 * @throws std::invalid_argument if @p input does not broadcast to @p to.
 */
template <typename Fn>
Tensor
BroadcastMap(const Tensor& input, const Shape& to, Fn fn,
             parallel::ThreadPool& pool)
{
    const BroadcastWalk walk(to, input.shape(), Shape{});
    Tensor out(DType::kFloat32, to);
    const float* in = input.data<float>();
    detail::MapWalk(walk, to.num_elements(), in, in, out.data<float>(),
                    [&fn](float x, float) { return fn(x); }, pool);
    return out;
}

/**
 * Applies @p fn elementwise to two float32 tensors with broadcasting.
 * Equal shapes run one flat loop; otherwise the operands are walked
 * by a BroadcastWalk whose inner rows are unit-stride or stride-0
 * loops.
 *
 * With @p may_alias the output reuses @p a's buffer when shapes permit
 * (output shape == a's shape, so every element reads a[i] before
 * writing slot i); otherwise the flag is ignored.
 */
template <typename Fn>
Tensor
BinaryMap(const Tensor& a, const Tensor& b, Fn fn,
          parallel::ThreadPool& pool, bool may_alias = false)
{
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    const bool alias_ok = may_alias && a.dtype() == DType::kFloat32 &&
                          b.dtype() == DType::kFloat32;

    if (a.shape() == b.shape()) {
        Tensor out = alias_ok ? a : Tensor(DType::kFloat32, a.shape());
        float* o = out.data<float>();
        pool.ParallelFor(a.num_elements(), /*grain=*/4096,
                         [&](std::int64_t i0, std::int64_t i1) {
            for (std::int64_t i = i0; i < i1; ++i) {
                o[i] = fn(pa[i], pb[i]);
            }
        });
        return out;
    }

    const Shape out_shape = BroadcastShape(a.shape(), b.shape());
    // Aliasing needs out slot i to correspond to a's element i (true
    // exactly when a already has the output shape, so off_a == flat
    // and each slot is read before written).
    Tensor out = (alias_ok && out_shape == a.shape())
                     ? a
                     : Tensor(DType::kFloat32, out_shape);
    detail::MapWalk(BroadcastWalk(out_shape, a.shape(), b.shape()),
                    out_shape.num_elements(), pa, pb, out.data<float>(), fn,
                    pool);
    return out;
}

/**
 * Folds each element of @p in (shaped @p space) into its cell of @p out
 * (shaped @p to, which broadcasts to @p space): cell = fold(cell, x).
 * Serial, visiting @p in in ascending flat order, so every cell folds
 * its inputs in the same order as a scatter loop over @p in would.
 */
template <typename T, typename Fold>
void
ReduceWalk(const Shape& space, const Shape& to, const float* in, T* out,
           Fold fold)
{
    const BroadcastWalk walk(space, to, Shape{});
    const bool rows = walk.stride_a.back() == 1;
    walk.Run(0, space.num_elements(), [&](std::int64_t flat, std::int64_t n,
                                          std::int64_t off, std::int64_t) {
        const float* src = in + flat;
        T* dst = out + off;
        if (rows) {
            for (std::int64_t i = 0; i < n; ++i) {
                dst[i] = fold(dst[i], src[i]);
            }
        } else {
            T acc = *dst;
            for (std::int64_t i = 0; i < n; ++i) {
                acc = fold(acc, src[i]);
            }
            *dst = acc;
        }
    });
}

/**
 * Sums a float32 tensor of @p from shape down to @p to shape by
 * reducing over broadcast dimensions — the adjoint of broadcasting,
 * used by gradients of broadcasting binary ops. Each output cell adds
 * its sources in ascending source order into a float accumulator that
 * starts at +0, so the result does not depend on the walk's blocking.
 */
Tensor ReduceToShape(const Tensor& from, const Shape& to,
                     parallel::ThreadPool& pool);

}  // namespace fathom::kernels

#endif  // FATHOM_KERNELS_ELEMENTWISE_H
