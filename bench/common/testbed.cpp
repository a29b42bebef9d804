#include "common/testbed.hpp"

#include <cstdio>
#include <memory>

#include "train/loss.hpp"
#include "train/metrics.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

namespace dpv::bench {

namespace {

constexpr std::size_t kTrainCount = 1400;
constexpr std::size_t kValCount = 600;
constexpr std::uint64_t kTrainSeed = 101;
constexpr std::uint64_t kValSeed = 202;

data::PerceptionConfig perception_config() {
  data::PerceptionConfig config;  // 32x16 grayscale, 16 feature neurons
  return config;
}

Testbed build_testbed() {
  Testbed tb;
  const data::PerceptionConfig pconfig = perception_config();

  data::RoadDatasetConfig train_cfg{kTrainCount, kTrainSeed, pconfig.render};
  data::RoadDatasetConfig val_cfg{kValCount, kValSeed, pconfig.render};
  tb.train_samples = data::generate_road_samples(train_cfg);
  tb.val_samples = data::generate_road_samples(val_cfg);
  tb.regression_train = data::to_regression_dataset(tb.train_samples);

  Rng rng(7);
  data::PerceptionModel model = data::make_perception_network(pconfig, rng);

  std::printf("[testbed] training direct perception network (%zu samples)...\n",
              tb.regression_train.size());
  train::MseLoss loss;
  train::Adam optimizer(0.005);
  train::Trainer trainer({.epochs = 18, .batch_size = 32, .shuffle_seed = 3});
  const train::LossHistory history =
      trainer.fit(model.network, tb.regression_train, loss, optimizer);
  std::printf("[testbed] final training loss %.5f, val MSE %.5f\n", history.back(),
              train::regression_mse(model.network, data::to_regression_dataset(tb.val_samples)));
  tb.model = std::move(model);
  return tb;
}

}  // namespace

train::Dataset Testbed::property_train(data::InputProperty property) const {
  return data::to_property_dataset(train_samples, property);
}

train::Dataset Testbed::property_val(data::InputProperty property) const {
  return data::to_property_dataset(val_samples, property);
}

const Testbed& testbed() {
  static const Testbed instance = build_testbed();
  return instance;
}

}  // namespace dpv::bench
