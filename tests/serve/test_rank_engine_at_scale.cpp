/**
 * @file
 * RankEngine memory at scale: cold sessions on a 20,000-machine
 * database must not each hold a copy of the database. 160 cold NN^T /
 * MLP^T requests with 128 cached sessions would retain ~1.3 GB if a
 * session copied the ~10 MB of target scores and machine records; the
 * ctest that runs this case caps the address space at 1 GiB.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>

#include "dataset/scaled_spec.h"
#include "serve/rank_engine.h"
#include "util/rng.h"

namespace dtrank::serve
{
namespace
{

TEST(RankEngineAtScale, ColdSessionsShareTheDatabase)
{
    dataset::ScaledSpecConfig spec;
    spec.machines = 20000;
    const dataset::PerfDatabase db =
        dataset::ScaledSpecGenerator(spec).generate();
    RankEngineConfig config;
    config.sessionCapacity = 128;
    RankEngine engine(db, std::nullopt, config);

    util::Rng rng(53);
    for (std::size_t i = 0; i < 160; ++i) {
        RankRequest request;
        request.method = i % 2 == 0 ? experiments::Method::NnT
                                    : experiments::Method::MlpT;
        request.app = static_cast<std::uint32_t>(i % db.benchmarkCount());
        request.topK = 10;
        for (std::size_t m :
             rng.sampleWithoutReplacement(db.machineCount(), 8))
            request.predictive.emplace_back(
                static_cast<std::uint32_t>(m),
                db.scores()(request.app, m));
        const RankOutcome outcome = engine.execute(request);
        ASSERT_EQ(outcome.status, Status::Ok)
            << "request " << i << ": " << outcome.error;
        ASSERT_EQ(outcome.ranking.size(), 10u) << "request " << i;
    }
}

} // namespace
} // namespace dtrank::serve
