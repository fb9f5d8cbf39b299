// Scoring oracle for every factorized model: ScoreInto (and Score) must be,
// item by item, bitwise the plain ascending-index FMA chain
// (tensor/int8_dot.h) of the model's own query vector against the item's
// head vector, plus the item bias.  This pins the one scoring path of
// models/recommender.h — EncodeQueryInto, then the head GEMM — to the
// decomposition FactorizedHead documents, for both head layouts (embedding
// rows and strided Linear columns) and with and without a bias.

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/vsan.h"
#include "data/synthetic.h"
#include "models/caser.h"
#include "models/embedding_mips.h"
#include "models/gru4rec.h"
#include "models/recommender.h"
#include "models/sasrec.h"
#include "models/svae.h"
#include "tensor/int8_dot.h"

namespace vsan {
namespace {

data::SequenceDataset MakeDataset() {
  data::SyntheticConfig config;
  config.num_users = 50;
  config.num_items = 70;
  config.seed = 11;
  return data::GenerateSynthetic(config);
}

TrainOptions OneEpoch() {
  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 16;
  return options;
}

// Mixed lengths, including histories longer than every max_len below.
std::vector<std::vector<int32_t>> Histories() {
  return {{1},
          {5, 17, 3},
          {2, 9, 2, 9, 2, 9, 2, 9, 2, 9, 2, 9, 2, 9},
          {70, 1, 35},
          {4, 9, 16, 25, 36, 49, 64}};
}

void ExpectScoreIntoMatchesOracle(const SequentialRecommender& model) {
  FactorizedHead head;
  ASSERT_TRUE(model.GetFactorizedHead(&head));
  for (const std::vector<int32_t>& history : Histories()) {
    std::vector<float> query;
    ASSERT_TRUE(model.EncodeQueryInto(history, &query));
    ASSERT_EQ(static_cast<int64_t>(query.size()), head.dim);
    std::vector<float> scores;
    model.ScoreInto(history, &scores);
    ASSERT_EQ(static_cast<int64_t>(scores.size()), head.num_rows);
    for (int64_t i = 1; i < head.num_rows; ++i) {
      float want =
          head.items_are_rows
              ? internal::DotFma(query.data(), head.weights + i * head.dim,
                                 head.dim)
              : internal::DotFmaStrided(query.data(), head.weights + i,
                                        head.dim, head.num_rows);
      if (head.bias != nullptr) want += head.bias[i];
      ASSERT_EQ(std::bit_cast<uint32_t>(scores[i]),
                std::bit_cast<uint32_t>(want))
          << model.name() << " item " << i << ": " << scores[i] << " vs "
          << want;
    }
    EXPECT_EQ(model.Score(history), scores) << model.name();
  }
}

TEST(ScoringOracleTest, VsanTiedHead) {
  core::VsanConfig config;
  config.max_len = 8;
  config.d = 12;
  core::Vsan model(config);
  model.Fit(MakeDataset(), OneEpoch());
  ExpectScoreIntoMatchesOracle(model);
}

TEST(ScoringOracleTest, VsanUntiedHead) {
  core::VsanConfig config;
  config.max_len = 8;
  config.d = 12;
  config.tie_output = false;
  core::Vsan model(config);
  model.Fit(MakeDataset(), OneEpoch());
  ExpectScoreIntoMatchesOracle(model);
}

TEST(ScoringOracleTest, SasRec) {
  models::SasRec::Config config;
  config.max_len = 8;
  config.d = 12;
  config.num_blocks = 1;
  models::SasRec model(config);
  model.Fit(MakeDataset(), OneEpoch());
  ExpectScoreIntoMatchesOracle(model);
}

TEST(ScoringOracleTest, Gru4Rec) {
  models::Gru4Rec::Config config;
  config.max_len = 8;
  config.d = 12;
  config.hidden = 10;
  models::Gru4Rec model(config);
  model.Fit(MakeDataset(), OneEpoch());
  ExpectScoreIntoMatchesOracle(model);
}

TEST(ScoringOracleTest, Caser) {
  models::Caser::Config config;
  config.window = 4;
  config.d = 12;
  config.h_filters = 4;
  config.v_filters = 2;
  models::Caser model(config);
  model.Fit(MakeDataset(), OneEpoch());
  ExpectScoreIntoMatchesOracle(model);
}

TEST(ScoringOracleTest, Svae) {
  models::Svae::Config config;
  config.max_len = 8;
  config.d = 12;
  config.hidden = 10;
  config.latent = 6;
  config.next_k = 2;
  models::Svae model(config);
  model.Fit(MakeDataset(), OneEpoch());
  ExpectScoreIntoMatchesOracle(model);
}

TEST(ScoringOracleTest, EmbeddingMips) {
  for (const bool with_bias : {true, false}) {
    models::EmbeddingMips::Config config;
    config.d = 12;
    config.with_bias = with_bias;
    models::EmbeddingMips model(config);
    model.FitCatalog(70);
    ExpectScoreIntoMatchesOracle(model);
  }
}

}  // namespace
}  // namespace vsan
