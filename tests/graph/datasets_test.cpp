#include "graph/datasets.hpp"

#include <gtest/gtest.h>

namespace gnnbridge::graph {
namespace {

// Datasets are generated at a reduced scale in tests to keep runtime low;
// shape checks are scale-invariant (ratios, not absolutes).
constexpr double kScale = 0.25;

class AllDatasets : public ::testing::TestWithParam<DatasetId> {};

TEST_P(AllDatasets, StructurallyValid) {
  const Dataset d = make_dataset(GetParam(), kScale);
  EXPECT_TRUE(valid(d.coo));
  EXPECT_TRUE(valid(d.csr));
  EXPECT_TRUE(valid(d.csc));
  EXPECT_EQ(d.csr.num_edges(), d.coo.num_edges());
  EXPECT_GT(d.stats.num_edges, 0);
}

TEST_P(AllDatasets, SymmetricGraph) {
  const Dataset d = make_dataset(GetParam(), kScale);
  EXPECT_EQ(d.csr.row_ptr, d.csc.row_ptr);
  EXPECT_EQ(d.csr.col_idx, d.csc.col_idx);
}

TEST_P(AllDatasets, DeterministicAcrossCalls) {
  const Dataset a = make_dataset(GetParam(), kScale);
  const Dataset b = make_dataset(GetParam(), kScale);
  EXPECT_EQ(a.csr.col_idx, b.csr.col_idx);
  EXPECT_EQ(a.csr.row_ptr, b.csr.row_ptr);
}

TEST_P(AllDatasets, NameMatchesId) {
  const Dataset d = make_dataset(GetParam(), kScale);
  EXPECT_EQ(d.name, dataset_name(GetParam()));
}

TEST_P(AllDatasets, MaxOverAvgRatioRoughlyPreserved) {
  const Dataset d = make_dataset(GetParam(), kScale);
  const DegreeStats paper = paper_stats(GetParam());
  const double ours = static_cast<double>(d.stats.max_degree) / d.stats.avg_degree;
  const double theirs = static_cast<double>(paper.max_degree) / paper.avg_degree;
  // Within roughly an order of magnitude in both directions — the number driving
  // the imbalance experiments.
  EXPECT_GT(ours, theirs / 16.0) << d.name;
  EXPECT_LT(ours, theirs * 16.0) << d.name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AllDatasets, ::testing::ValuesIn(kAllDatasets),
    [](const ::testing::TestParamInfo<DatasetId>& dataset) {
      return std::string(dataset_name(dataset.param));
    });

TEST(Datasets, DensityOrderingPreserved) {
  // ddi is by far the densest graph in Table 3; citation/products the
  // sparsest. The generated analogues must keep that ordering.
  const auto ddi = make_dataset(DatasetId::kDdi, kScale);
  const auto citation = make_dataset(DatasetId::kCitation, kScale);
  const auto protein = make_dataset(DatasetId::kProtein, kScale);
  EXPECT_GT(ddi.stats.density, 5.0 * protein.stats.density);
  EXPECT_GT(protein.stats.density, 10.0 * citation.stats.density);
}

TEST(Datasets, ClusteredGraphsHaveHigherNeighborOverlap) {
  const auto protein = make_dataset(DatasetId::kProtein, kScale);
  const auto collab = make_dataset(DatasetId::kCollab, kScale);
  tensor::Rng r1(5), r2(5);
  const double sim_protein = sampled_neighbor_jaccard(protein.csr, 400, r1);
  const double sim_collab = sampled_neighbor_jaccard(collab.csr, 400, r2);
  // The paper singles out protein/ddi as inherently clustered.
  EXPECT_GT(sim_protein, 3.0 * sim_collab + 1e-6);
}

TEST(Datasets, ArxivHasExtremeHubs) {
  const auto arxiv = make_dataset(DatasetId::kArxiv, kScale);
  const auto collab = make_dataset(DatasetId::kCollab, kScale);
  const double arxiv_ratio = static_cast<double>(arxiv.stats.max_degree) / arxiv.stats.avg_degree;
  const double collab_ratio =
      static_cast<double>(collab.stats.max_degree) / collab.stats.avg_degree;
  EXPECT_GT(arxiv_ratio, 3.0 * collab_ratio);
}

TEST(Datasets, AverageDegreeTracksRecipe) {
  const auto citation = make_dataset(DatasetId::kCitation, kScale);
  EXPECT_NEAR(citation.stats.avg_degree, 10.0, 4.0);
  const auto ddi = make_dataset(DatasetId::kDdi, kScale);
  EXPECT_GT(ddi.stats.avg_degree, 30.0);
}

TEST(Datasets, PaperStatsTranscribedFromTable3) {
  const DegreeStats reddit = paper_stats(DatasetId::kReddit);
  EXPECT_EQ(reddit.num_nodes, 232965);
  EXPECT_EQ(reddit.max_degree, 21657);
  const DegreeStats ddi = paper_stats(DatasetId::kDdi);
  EXPECT_NEAR(ddi.density, 0.12, 0.01);
}

TEST(Datasets, ScaleShrinksNodeCount) {
  const auto full = make_dataset(DatasetId::kCollab, 0.5);
  const auto half = make_dataset(DatasetId::kCollab, 0.25);
  EXPECT_GT(full.stats.num_nodes, half.stats.num_nodes);
}

}  // namespace
}  // namespace gnnbridge::graph
