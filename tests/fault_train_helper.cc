// Subprocess driver for the crash-and-resume fault tests: trains a small
// model on a deterministic synthetic dataset with checkpointing enabled and
// writes the final parameters to a file.  The test harness runs it three
// ways — clean, with VSAN_FAULT=abort_at_step=N (hard _Exit mid-run), and
// again with --resume — then compares the parameter files byte for byte.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/vsan.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "models/caser.h"
#include "models/recommender.h"
#include "models/sasrec.h"
#include "models/svae.h"
#include "nn/module.h"
#include "nn/serialize.h"
#include "util/status.h"

namespace {

vsan::data::SequenceDataset MakeDataset() {
  vsan::data::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 40;
  config.seed = 13;
  return vsan::data::GenerateSynthetic(config);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <vsan|sasrec|caser|svae> <checkpoint_dir> "
                 "<params_out> [--resume]\n",
                 argv[0]);
    return 2;
  }
  const std::string which = argv[1];
  vsan::TrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 16;
  opts.checkpoint_dir = argv[2];
  opts.checkpoint_every_n_epochs = 1;
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--resume") == 0) opts.resume = true;
  }

  const vsan::data::SequenceDataset dataset = MakeDataset();
  const vsan::nn::Module* module = nullptr;
  std::unique_ptr<vsan::SequentialRecommender> keep_alive;
  if (which == "vsan") {
    vsan::core::VsanConfig config;
    config.max_len = 8;
    config.d = 8;
    config.anneal_steps = 8;  // short anneal so beta varies across epochs
    auto model = std::make_unique<vsan::core::Vsan>(config);
    model->Fit(dataset, opts);
    module = model->module();
    keep_alive = std::move(model);
  } else if (which == "sasrec") {
    vsan::models::SasRec::Config config;
    config.max_len = 8;
    config.d = 8;
    config.num_blocks = 1;
    auto model = std::make_unique<vsan::models::SasRec>(config);
    model->Fit(dataset, opts);
    module = model->module();
    keep_alive = std::move(model);
  } else if (which == "caser") {
    vsan::models::Caser::Config config;
    config.window = 3;
    config.d = 8;
    config.heights = {2, 3};
    config.h_filters = 2;
    config.v_filters = 1;
    auto model = std::make_unique<vsan::models::Caser>(config);
    model->Fit(dataset, opts);
    module = model->module();
    keep_alive = std::move(model);
  } else if (which == "svae") {
    vsan::models::Svae::Config config;
    config.max_len = 8;
    config.d = 8;
    config.hidden = 8;
    config.latent = 4;
    config.anneal_steps = 8;  // short anneal so beta varies across epochs
    auto model = std::make_unique<vsan::models::Svae>(config);
    model->Fit(dataset, opts);
    module = model->module();
    keep_alive = std::move(model);
  } else {
    std::fprintf(stderr, "unknown model: %s\n", which.c_str());
    return 2;
  }

  const vsan::Status status = vsan::nn::SaveParametersToFile(*module, argv[3]);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", argv[3],
                 status.ToString().c_str());
    return 3;
  }
  return 0;
}
