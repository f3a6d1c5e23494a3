/**
 * @file
 * Activation functions for the multilayer perceptron.
 */

#pragma once


namespace dtrank::ml
{

/** Supported neuron activation functions. */
enum class Activation
{
    Sigmoid, ///< Logistic 1/(1+e^-x); WEKA's hidden-unit default.
    Tanh,    ///< Hyperbolic tangent.
    Relu,    ///< Rectified linear.
    Linear   ///< Identity; WEKA's output unit for numeric targets.
};

/** Applies the activation function to a pre-activation value. */
double activate(Activation a, double x);

/**
 * Derivative of the activation with respect to its input, expressed in
 * terms of the *output* y = activate(a, x). This is the form backprop
 * wants (e.g. sigmoid' = y * (1 - y)).
 */
double activateDerivativeFromOutput(Activation a, double y);

} // namespace dtrank::ml

