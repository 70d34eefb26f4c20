#include "dnn/tensor.hh"

#include <cstring>

#include "common/log.hh"

namespace zcomp {

std::string
TensorShape::str() const
{
    return format("%dx%dx%dx%d", n, c, h, w);
}

Tensor::Tensor(VSpace &vs, const std::string &name, TensorShape shape,
               AllocClass cls)
    : shape_(shape)
{
    // Each dimension must be positive: a negative pair would slip
    // past an elems()-only test with a positive product.
    ZCOMP_CHECK(shape.n > 0 && shape.c > 0 && shape.h > 0 && shape.w > 0,
                "tensor %s has invalid shape %s", name.c_str(),
                shape.str().c_str());
    fatal_if(shape.elems() == 0, "tensor %s has zero elements",
             name.c_str());
    buf_ = &vs.alloc(name, shape.bytes(), cls);
}

void
Tensor::zero()
{
    std::memset(data(), 0, bytes());
}

double
Tensor::sparsity() const
{
    const float *d = data();
    size_t zeros = 0;
    for (size_t i = 0; i < elems(); i++) {
        if (d[i] == 0.0f)
            zeros++;
    }
    return static_cast<double>(zeros) / static_cast<double>(elems());
}

} // namespace zcomp
