#include "stats/ranking.h"

#include <algorithm>
#include <numeric>


namespace dtrank::stats
{

std::vector<double>
rankData(const std::vector<double> &values)
{
    const std::size_t n = values.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return values[a] < values[b];
                     });

    std::vector<double> ranks(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        // Find the run of tied values [i, j).
        std::size_t j = i + 1;
        while (j < n && values[order[j]] == values[order[i]])
            ++j;
        const double r =
            0.5 * (static_cast<double>(i + 1) + static_cast<double>(j));
        for (std::size_t k = i; k < j; ++k)
            ranks[order[k]] = r;
        i = j;
    }
    return ranks;
}

std::vector<std::size_t>
orderDescending(const std::vector<double> &values)
{
    std::vector<std::size_t> order(values.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return values[a] > values[b];
                     });
    return order;
}

} // namespace dtrank::stats
