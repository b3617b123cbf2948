#include "campaign/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "campaign/report.hpp"
#include "trees/generators.hpp"

namespace treesched {
namespace {

std::vector<DatasetEntry> tiny_dataset() {
  std::vector<DatasetEntry> ds;
  Rng rng(5);
  ds.push_back({"pebble-60", random_pebble_tree(60, rng, 1.0)});
  ds.push_back({"pebble-100", random_pebble_tree(100, rng, 0.0)});
  ds.push_back({"grid", grid2d_assembly_tree(8, 8, 2)});
  return ds;
}

const std::vector<std::string> kPaperHeuristics{
    "ParSubtrees", "ParSubtreesOptim", "ParInnerFirst", "ParDeepestFirst"};

TEST(Campaign, RunsAndValidatesAllScenarios) {
  CampaignParams params;
  params.processor_counts = {2, 4};
  auto records = run_campaign(tiny_dataset(), params);
  ASSERT_EQ(records.size(), 6u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.algos, default_campaign_algorithms());
    EXPECT_EQ(rec.makespan.size(), rec.algos.size());
    EXPECT_EQ(rec.memory.size(), rec.algos.size());
    for (std::size_t k = 0; k < rec.makespan.size(); ++k) {
      EXPECT_GE(rec.makespan[k], rec.lb_makespan - 1e-9) << rec.algos[k];
      EXPECT_GE(rec.memory[k], 1u) << rec.algos[k];
    }
  }
}

TEST(Campaign, DefaultRosterCoversPaperAndExtensions) {
  // Acceptance bar: the default campaign runs at least 7 algorithms — the
  // four §5 heuristics plus memory-bounded plus the sequential baselines.
  const auto algos = default_campaign_algorithms();
  EXPECT_GE(algos.size(), 7u);
  auto has = [&](const std::string& n) {
    return std::find(algos.begin(), algos.end(), n) != algos.end();
  };
  for (const auto& name : kPaperHeuristics) EXPECT_TRUE(has(name)) << name;
  EXPECT_TRUE(has("MemoryBounded"));
  EXPECT_TRUE(has("Liu"));
  EXPECT_TRUE(has("BestPostorder"));
  EXPECT_FALSE(has("BruteForceSeq")) << "oracles are not campaign material";
}

TEST(Campaign, ExplicitAlgorithmSelection) {
  CampaignParams params;
  params.processor_counts = {4};
  params.algorithms = {"ParDeepestFirst", "Liu"};
  auto records = run_campaign(tiny_dataset(), params);
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    ASSERT_EQ(rec.algos, params.algorithms);
    EXPECT_EQ(rec.index_of("Liu"), 1u);
    EXPECT_TRUE(rec.has("ParDeepestFirst"));
    EXPECT_FALSE(rec.has("ParSubtrees"));
    EXPECT_THROW((void)rec.index_of("ParSubtrees"), std::invalid_argument);
    // Liu is the sequential memory optimum: no algorithm beats it.
    EXPECT_LE(rec.memory[1], rec.memory[0]);
  }
}

TEST(Campaign, UnknownAlgorithmFailsFast) {
  CampaignParams params;
  params.algorithms = {"ParSubtrees", "NoSuchAlgorithm"};
  EXPECT_THROW(run_campaign(tiny_dataset(), params), std::invalid_argument);
}

TEST(Report, Table1SharesAreConsistent) {
  CampaignParams params;
  params.processor_counts = {2, 4, 8};
  auto records = run_campaign(tiny_dataset(), params);
  auto rows = table1(records);
  ASSERT_EQ(rows.size(), default_campaign_algorithms().size());
  double best_mem_total = 0, best_ms_total = 0;
  for (const auto& r : rows) {
    EXPECT_GE(r.best_memory_share, 0.0);
    EXPECT_LE(r.best_memory_share, 1.0);
    EXPECT_LE(r.best_memory_share, r.within5_memory_share + 1e-12);
    EXPECT_LE(r.best_makespan_share, r.within5_makespan_share + 1e-12);
    // Memory deviation is vs the postorder bound: only Liu (the true
    // optimum) may dip below it, and never below -1.
    if (r.algorithm != "Liu") {
      EXPECT_GE(r.avg_memory_deviation, 0.0) << r.algorithm;
    }
    EXPECT_GT(r.avg_memory_deviation, -1.0) << r.algorithm;
    EXPECT_GE(r.avg_makespan_deviation, 0.0) << r.algorithm;
    best_mem_total += r.best_memory_share;
    best_ms_total += r.best_makespan_share;
  }
  // At least one algorithm is best per scenario (ties can exceed 1).
  EXPECT_GE(best_mem_total, 1.0 - 1e-12);
  EXPECT_GE(best_ms_total, 1.0 - 1e-12);
}

TEST(Report, FigureSeriesNormalizations) {
  CampaignParams params;
  params.processor_counts = {4};
  auto records = run_campaign(tiny_dataset(), params);
  const std::size_t roster = default_campaign_algorithms().size();
  for (auto norm : {Normalization::kLowerBound, Normalization::kParSubtrees,
                    Normalization::kParInnerFirst}) {
    auto series = figure_series(records, norm);
    ASSERT_EQ(series.size(), roster);
    for (const auto& s : series) {
      EXPECT_EQ(s.rel_makespan.size(), records.size());
      for (double v : s.rel_makespan) EXPECT_GT(v, 0.0);
    }
  }
  // Self-normalization: ParSubtrees against itself is exactly 1.
  auto series = figure_series(records, Normalization::kParSubtrees);
  const std::size_t ps = records.front().index_of("ParSubtrees");
  for (double v : series[ps].rel_makespan) EXPECT_DOUBLE_EQ(v, 1.0);
  for (double v : series[ps].rel_memory) EXPECT_DOUBLE_EQ(v, 1.0);
  // Lower-bound normalization: every makespan ratio >= 1; memory ratios
  // compare against the postorder bound, which the true optimum may
  // undercut slightly, so only require them to be near or above 1.
  auto lbseries = figure_series(records, Normalization::kLowerBound);
  for (const auto& s : lbseries) {
    for (double v : s.rel_makespan) EXPECT_GE(v, 1.0 - 1e-9);
    for (double v : s.rel_memory) EXPECT_GE(v, 0.9);
  }
}

TEST(Report, MixedRosterRecordSetsAreRejected) {
  CampaignParams a;
  a.processor_counts = {2};
  CampaignParams b = a;
  b.algorithms = {"ParDeepestFirst", "Liu"};
  auto records = run_campaign(tiny_dataset(), a);
  auto other = run_campaign(tiny_dataset(), b);
  records.insert(records.end(), other.begin(), other.end());
  EXPECT_THROW(table1(records), std::invalid_argument);
  EXPECT_THROW(figure_series(records, Normalization::kLowerBound),
               std::invalid_argument);
  std::ostringstream csv;
  EXPECT_THROW(write_scatter_csv(csv, records, Normalization::kLowerBound),
               std::invalid_argument);
}

TEST(Report, FigureNormalizationRequiresReferenceAlgorithm) {
  CampaignParams params;
  params.processor_counts = {2};
  params.algorithms = {"ParDeepestFirst", "Liu"};
  auto records = run_campaign(tiny_dataset(), params);
  EXPECT_THROW(figure_series(records, Normalization::kParSubtrees),
               std::invalid_argument);
  EXPECT_NO_THROW(figure_series(records, Normalization::kLowerBound));
}

TEST(Report, PrintersProduceOutput) {
  CampaignParams params;
  params.processor_counts = {2};
  auto records = run_campaign(tiny_dataset(), params);
  std::ostringstream os;
  print_table1(os, table1(records));
  EXPECT_NE(os.str().find("ParSubtrees"), std::string::npos);
  EXPECT_NE(os.str().find("MemoryBounded"), std::string::npos);
  EXPECT_NE(os.str().find("Liu"), std::string::npos);
  std::ostringstream fig;
  print_figure(fig, figure_series(records, Normalization::kLowerBound),
               "Figure 6");
  EXPECT_NE(fig.str().find("Figure 6"), std::string::npos);
  std::ostringstream csv;
  write_scatter_csv(csv, records, Normalization::kLowerBound);
  EXPECT_NE(csv.str().find("tree,n,p,algorithm"), std::string::npos);
}

}  // namespace
}  // namespace treesched
