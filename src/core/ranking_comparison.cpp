#include "core/ranking_comparison.h"

#include <algorithm>
#include <set>

#include "stats/ranking.h"
#include "util/error.h"

namespace dtrank::core
{

double
topNOverlap(const std::vector<double> &actual,
            const std::vector<double> &predicted, std::size_t n)
{
    util::require(actual.size() == predicted.size(),
                  "topNOverlap: size mismatch");
    util::require(n >= 1 && n <= actual.size(),
                  "topNOverlap: n out of range");
    const auto actual_order = stats::orderDescending(actual);
    const auto predicted_order = stats::orderDescending(predicted);
    std::set<std::size_t> actual_top(actual_order.begin(),
                                     actual_order.begin() +
                                         static_cast<std::ptrdiff_t>(n));
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (actual_top.count(predicted_order[i]))
            ++hits;
    return static_cast<double>(hits) / static_cast<double>(n);
}

std::vector<std::size_t>
rankDisplacement(const std::vector<double> &actual,
                 const std::vector<double> &predicted)
{
    util::require(actual.size() == predicted.size(),
                  "rankDisplacement: size mismatch");
    util::require(!actual.empty(), "rankDisplacement: empty input");
    const std::size_t n = actual.size();
    const auto actual_order = stats::orderDescending(actual);
    const auto predicted_order = stats::orderDescending(predicted);

    std::vector<std::size_t> actual_rank(n);
    std::vector<std::size_t> predicted_rank(n);
    for (std::size_t pos = 0; pos < n; ++pos) {
        actual_rank[actual_order[pos]] = pos + 1;
        predicted_rank[predicted_order[pos]] = pos + 1;
    }

    std::vector<std::size_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = actual_rank[i] > predicted_rank[i]
                     ? actual_rank[i] - predicted_rank[i]
                     : predicted_rank[i] - actual_rank[i];
    }
    return out;
}

std::size_t
maxRankDisplacement(const std::vector<double> &actual,
                    const std::vector<double> &predicted)
{
    const auto d = rankDisplacement(actual, predicted);
    return *std::max_element(d.begin(), d.end());
}

} // namespace dtrank::core
