#include "ml/distance.h"

#include <cmath>

#include "linalg/vector_ops.h"

namespace dtrank::ml
{

double
euclideanDistance(const std::vector<double> &a, const std::vector<double> &b)
{
    return std::sqrt(linalg::squaredDistance(a, b));
}

std::vector<std::vector<double>>
pairwiseDistances(const std::vector<std::vector<double>> &points)
{
    const std::size_t n = points.size();
    std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const double dist = euclideanDistance(points[i], points[j]);
            d[i][j] = dist;
            d[j][i] = dist;
        }
    }
    return d;
}

} // namespace dtrank::ml
