#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/geqo_system.h"
#include "test_util.h"
#include "workload/schemas.h"

namespace geqo {
namespace {

using testing::MustParse;

/// One small trained system for the suite.
class GeqoSystemTest : public ::testing::Test {
 protected:
  static GeqoSystem& System() {
    static GeqoSystem* system = [] {
      static Catalog catalog = MakeTpchCatalog();
      GeqoSystemOptions options;
      options.model.conv1_size = 32;
      options.model.conv2_size = 32;
      options.model.fc1_size = 32;
      options.model.fc2_size = 16;
      options.model.dropout = 0.2f;
      options.training.epochs = 8;
      options.synthetic_data.num_base_queries = 40;
      auto* out = new GeqoSystem(&catalog, options);
      GEQO_CHECK_OK(out->TrainOnSyntheticWorkload(0xC0DE).status());
      return out;
    }();
    return *system;
  }
};

TEST_F(GeqoSystemTest, LayoutsDerivedFromCatalog) {
  EXPECT_EQ(System().instance_layout().num_tables(), 8u);
  EXPECT_EQ(System().agnostic_layout().num_tables(), 6u);
  EXPECT_EQ(System().model().options().input_dim,
            System().agnostic_layout().node_vector_size());
}

TEST_F(GeqoSystemTest, CheckPairOnKnownRewrites) {
  const Catalog& catalog = System().catalog();
  const PlanPtr q1 = MustParse(
      "SELECT l_orderkey FROM lineitem WHERE l_quantity + 5 > 25", catalog);
  const PlanPtr q2 = MustParse(
      "SELECT l_orderkey FROM lineitem WHERE 20 < l_quantity", catalog);
  const PlanPtr q3 = MustParse(
      "SELECT l_orderkey FROM lineitem WHERE l_quantity > 21", catalog);
  EXPECT_EQ(*System().CheckPair(q1, q2), EquivalenceVerdict::kEquivalent);
  EXPECT_EQ(*System().CheckPair(q1, q3), EquivalenceVerdict::kNotEquivalent);
}

TEST_F(GeqoSystemTest, DetectEquivalencesEndToEnd) {
  const Catalog& catalog = System().catalog();
  Rng rng(0xD1);
  QueryGenerator generator(&catalog, GeneratorOptions());
  Rewriter rewriter(&catalog);
  std::vector<PlanPtr> workload = generator.GenerateMany(15, &rng);
  const size_t base_count = workload.size();
  for (size_t i = 0; i < 4; ++i) {
    workload.push_back(*rewriter.RewriteOnce(workload[i], &rng));
  }
  auto result = System().DetectEquivalences(workload);
  ASSERT_TRUE(result.ok());
  size_t recovered = 0;
  for (size_t i = 0; i < 4; ++i) {
    const std::pair<size_t, size_t> planted{i, base_count + i};
    recovered += std::find(result->equivalences.begin(),
                           result->equivalences.end(),
                           planted) != result->equivalences.end();
  }
  EXPECT_GE(recovered, 3u);
  EXPECT_EQ(result->total_pairs,
            workload.size() * (workload.size() - 1) / 2);
}

TEST_F(GeqoSystemTest, SsflRunsThroughFacade) {
  const Catalog& catalog = System().catalog();
  Rng rng(0xD2);
  QueryGenerator generator(&catalog, GeneratorOptions());
  const std::vector<PlanPtr> workload = generator.GenerateMany(12, &rng);
  SsflOptions options;
  options.max_iterations = 1;
  options.sample_batch = 16;
  options.confidence_sample = 50;
  options.confidence_threshold = 1.01f;
  options.finetune_epochs = 1;
  options.vmf.radius = System().pipeline().options().vmf.radius;
  auto reports = System().RunSsfl(workload, options);
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_EQ(reports->size(), 1u);
}

TEST_F(GeqoSystemTest, SaveAndLoadSnapshotPreservesBehaviour) {
  const Catalog& catalog = System().catalog();
  const PlanPtr q1 = MustParse(
      "SELECT s_suppkey FROM supplier WHERE s_acctbal > 40", catalog);
  const PlanPtr q2 = MustParse(
      "SELECT s_suppkey FROM supplier WHERE 40 < s_acctbal", catalog);
  const EquivalenceVerdict before = *System().CheckPair(q1, q2);
  const float radius_before = System().options().pipeline.vmf.radius;
  const float threshold_before = System().options().pipeline.emf.threshold;

  const std::string path =
      testing::ProcessTempDir() + "/geqo_core_snapshot.bin";
  ASSERT_TRUE(System().SaveSnapshot(path).ok());
  ASSERT_TRUE(System().LoadSnapshot(path).ok());
  EXPECT_EQ(*System().CheckPair(q1, q2), before);
  // The calibration travels with the snapshot.
  EXPECT_EQ(System().options().pipeline.vmf.radius, radius_before);
  EXPECT_EQ(System().options().pipeline.emf.threshold, threshold_before);
  std::remove(path.c_str());
}

TEST_F(GeqoSystemTest, LoadSnapshotRejectsForeignAndCorruptFiles) {
  const std::string pristine =
      testing::ProcessTempDir() + "/geqo_core_snapshot_pristine.bin";
  const std::string path =
      testing::ProcessTempDir() + "/geqo_core_snapshot2.bin";
  ASSERT_TRUE(System().SaveSnapshot(pristine).ok());
  ASSERT_TRUE(System().SaveSnapshot(path).ok());

  // A system over a different database schema must refuse the snapshot.
  Catalog other = MakeTpchCatalog();
  GEQO_CHECK_OK(other.AddTable(
      TableDef("extra_table", {{"x", ValueType::kInt}})));
  GeqoSystemOptions options;
  options.model.conv1_size = 32;
  options.model.conv2_size = 32;
  options.model.fc1_size = 32;
  options.model.fc2_size = 16;
  GeqoSystem foreign(&other, options);
  const Status mismatch = foreign.LoadSnapshot(path);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.message().find("fingerprint mismatch"),
            std::string::npos);

  // A different agnostic layout shape is also refused.
  Catalog same = MakeTpchCatalog();
  GeqoSystemOptions wide = options;
  wide.agnostic_tables = 7;
  GeqoSystem reshaped(&same, wide);
  const Status shape = reshaped.LoadSnapshot(path);
  EXPECT_FALSE(shape.ok());
  EXPECT_NE(shape.message().find("layout mismatch"), std::string::npos);

  // A truncated file fails loudly rather than loading garbage weights.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(System().LoadSnapshot(path).ok());

  // A non-snapshot file fails the v2 whole-payload checksum before any
  // field is decoded.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "definitely not a snapshot";
  }
  const Status magic = System().LoadSnapshot(path);
  EXPECT_FALSE(magic.ok());
  EXPECT_NE(magic.message().find("checksum mismatch"), std::string::npos);

  // The failed loads must not have left the shared system half-mutated for
  // the rest of the suite.
  ASSERT_TRUE(System().LoadSnapshot(pristine).ok());
  std::remove(path.c_str());
  std::remove(pristine.c_str());
}

TEST_F(GeqoSystemTest, TrainOnEmptyPairsFails) {
  Catalog catalog = MakeTpchCatalog();
  GeqoSystemOptions options;
  options.model.conv1_size = 16;
  options.model.conv2_size = 16;
  options.model.fc1_size = 16;
  options.model.fc2_size = 8;
  GeqoSystem fresh(&catalog, options);
  EXPECT_FALSE(fresh.TrainOnPairs({}).ok());
}

}  // namespace
}  // namespace geqo
