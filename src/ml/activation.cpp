#include "ml/activation.h"

#include <cmath>

#include "simd/simd.h"
#include "util/error.h"
#include "util/string_utils.h"

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

std::string
activationName(Activation a)
{
    switch (a) {
      case Activation::Sigmoid:
        return "sigmoid";
      case Activation::Tanh:
        return "tanh";
      case Activation::Relu:
        return "relu";
      case Activation::Linear:
        return "linear";
    }
    DTRANK_ASSERT_MSG(false, "unknown activation");
}

Activation
activationFromName(const std::string &name)
{
    const std::string n = util::toLower(util::trim(name));
    if (n == "sigmoid")
        return Activation::Sigmoid;
    if (n == "tanh")
        return Activation::Tanh;
    if (n == "relu")
        return Activation::Relu;
    if (n == "linear")
        return Activation::Linear;
    throw util::InvalidArgument("activationFromName: unknown activation '" +
                                name + "'");
}

} // namespace dtrank::ml
