#include "kernels/elementwise.h"

#include <stdexcept>

namespace fathom::kernels {

Shape
BroadcastShape(const Shape& a, const Shape& b)
{
    const int rank = std::max(a.rank(), b.rank());
    std::vector<std::int64_t> dims(static_cast<std::size_t>(rank));
    for (int i = 0; i < rank; ++i) {
        // Align trailing dimensions.
        const std::int64_t da =
            (i >= rank - a.rank()) ? a.dim(i - (rank - a.rank())) : 1;
        const std::int64_t db =
            (i >= rank - b.rank()) ? b.dim(i - (rank - b.rank())) : 1;
        if (da != db && da != 1 && db != 1) {
            throw std::invalid_argument("Cannot broadcast " + a.ToString() +
                                        " with " + b.ToString());
        }
        // A 1 stretches to the other extent — including extent 0, so
        // broadcasting against an empty tensor yields an empty result
        // (max() would wrongly produce 1 there).
        dims[static_cast<std::size_t>(i)] = da == 1 ? db : da;
    }
    return Shape(dims);
}

std::vector<std::int64_t>
RowMajorStrides(const Shape& s)
{
    std::vector<std::int64_t> strides(static_cast<std::size_t>(s.rank()), 1);
    for (int i = s.rank() - 2; i >= 0; --i) {
        strides[static_cast<std::size_t>(i)] =
            strides[static_cast<std::size_t>(i + 1)] * s.dim(i + 1);
    }
    return strides;
}

namespace {

/**
 * Row-major element strides of @p s aligned to @p space's rank: 0
 * wherever @p s has extent 1 or no dimension (broadcast).
 */
std::vector<std::int64_t>
AlignedStrides(const Shape& s, const Shape& space)
{
    const int offset = space.rank() - s.rank();
    if (offset < 0) {
        throw std::invalid_argument("Cannot broadcast " + s.ToString() +
                                    " to " + space.ToString());
    }
    const std::vector<std::int64_t> own = RowMajorStrides(s);
    std::vector<std::int64_t> strides(static_cast<std::size_t>(space.rank()),
                                      0);
    for (int i = 0; i < s.rank(); ++i) {
        if (s.dim(i) != 1) {
            if (s.dim(i) != space.dim(i + offset)) {
                throw std::invalid_argument("Cannot broadcast " +
                                            s.ToString() + " to " +
                                            space.ToString());
            }
            strides[static_cast<std::size_t>(i + offset)] =
                own[static_cast<std::size_t>(i)];
        }
    }
    return strides;
}

/** Drops extent-1 dimensions and merges contiguous neighbours. */
void
Collapse(const Shape& space, const std::vector<std::int64_t>& sa,
         const std::vector<std::int64_t>& sb, BroadcastWalk& walk)
{
    for (int d = 0; d < space.rank(); ++d) {
        const std::int64_t extent = space.dim(d);
        const std::size_t i = static_cast<std::size_t>(d);
        if (extent == 1) {
            continue;
        }
        if (!walk.dims.empty() && walk.stride_a.back() == sa[i] * extent &&
            walk.stride_b.back() == sb[i] * extent) {
            walk.dims.back() *= extent;
            walk.stride_a.back() = sa[i];
            walk.stride_b.back() = sb[i];
        } else {
            walk.dims.push_back(extent);
            walk.stride_a.push_back(sa[i]);
            walk.stride_b.push_back(sb[i]);
        }
    }
    if (walk.dims.empty()) {
        walk.dims.push_back(1);
        walk.stride_a.push_back(0);
        walk.stride_b.push_back(0);
    }
}

}  // namespace

BroadcastWalk::BroadcastWalk(const Shape& space, const Shape& a,
                             const Shape& b)
{
    Collapse(space, AlignedStrides(a, space), AlignedStrides(b, space),
             *this);
}

BroadcastWalk::BroadcastWalk(const Shape& space,
                             const std::vector<std::int64_t>& sa)
{
    Collapse(space, sa,
             std::vector<std::int64_t>(static_cast<std::size_t>(space.rank()),
                                       0),
             *this);
}

Tensor
ReduceToShape(const Tensor& from, const Shape& to, parallel::ThreadPool& pool)
{
    if (from.shape() == to) {
        return from;
    }
    // Serial: a parallel split would need a fixed per-cell order across
    // chunks to stay bit-identical.
    Tensor out = Tensor::Zeros(to);
    ReduceWalk(from.shape(), to, from.data<float>(), out.data<float>(),
               [](float sum, float x) { return sum + x; });
    (void)pool;
    return out;
}

}  // namespace fathom::kernels
