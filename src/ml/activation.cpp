#include "ml/activation.h"

#include <cmath>

#include "simd/simd.h"
#include "util/error.h"

namespace dtrank::ml
{

double
activate(Activation a, double x)
{
    switch (a) {
      case Activation::Sigmoid:
        simd::sigmoid(1, &x);
        return x;
      case Activation::Tanh:
        return std::tanh(x);
      case Activation::Relu:
        return x > 0.0 ? x : 0.0;
      case Activation::Linear:
        return x;
    }
    DTRANK_ASSERT_MSG(false, "unknown activation");
}

double
activateDerivativeFromOutput(Activation a, double y)
{
    switch (a) {
      case Activation::Sigmoid:
        return y * (1.0 - y);
      case Activation::Tanh:
        return 1.0 - y * y;
      case Activation::Relu:
        return y > 0.0 ? 1.0 : 0.0;
      case Activation::Linear:
        return 1.0;
    }
    DTRANK_ASSERT_MSG(false, "unknown activation");
}

} // namespace dtrank::ml
