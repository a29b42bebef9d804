#include "core/characterizer.hpp"

#include "common/check.hpp"
#include "data/perception_model.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"

namespace dpv::core {

train::Dataset to_feature_dataset(const nn::Network& perception, std::size_t attach_layer,
                                  const train::Dataset& labelled_images) {
  check(attach_layer <= perception.layer_count(),
        "to_feature_dataset: attach layer out of range");
  train::Dataset features;
  for (const train::Sample& s : labelled_images.samples())
    features.add(perception.forward_prefix(s.input, attach_layer), s.target);
  return features;
}

TrainedCharacterizer train_characterizer(const nn::Network& perception,
                                         std::size_t attach_layer,
                                         const train::Dataset& labelled_images,
                                         const train::Dataset& validation_images,
                                         const CharacterizerConfig& config) {
  return train_characterizer_on_features(
      to_feature_dataset(perception, attach_layer, labelled_images),
      to_feature_dataset(perception, attach_layer, validation_images), config);
}

TrainedCharacterizer train_characterizer_on_features(const train::Dataset& train_features,
                                                     const train::Dataset& val_features,
                                                     const CharacterizerConfig& config) {
  check(!train_features.empty(), "train_characterizer: empty training set");

  const std::size_t feature_n = train_features[0].input.numel();
  Rng init_rng(config.init_seed);
  TrainedCharacterizer result{
      data::make_characterizer_network(feature_n, config.hidden, init_rng), {}, {}};

  train::BceWithLogitsLoss loss;
  train::Adam optimizer(config.learning_rate);
  train::Trainer trainer(config.trainer);
  trainer.fit(result.network, train_features, loss, optimizer);

  result.train_confusion = train::binary_confusion(result.network, train_features);
  if (!val_features.empty())
    result.validation_confusion = train::binary_confusion(result.network, val_features);
  return result;
}

}  // namespace dpv::core
