// Input property characterizer h_l^phi (Sec. II-A of the paper).
//
// The specification problem: properties like "the road strongly bends to
// the right" cannot be written over pixels. Instead, a small binary
// classifier is trained on the layer-l features f^(l)(in) with oracle
// labels; the paper's Assumption 1 (perfect generalization) then lets the
// verifier use "characterizer logit >= threshold" as the formal stand-in
// for "in ∈ In_phi".
//
// The paper's Sec. V caveat is surfaced through `separability`: for
// properties the network's output does not depend on, the information
// bottleneck erases the evidence from close-to-output layers and the
// trained classifier degenerates toward coin flipping.
#pragma once

#include <cstdint>

#include "nn/network.hpp"
#include "train/dataset.hpp"
#include "train/metrics.hpp"
#include "train/trainer.hpp"

namespace dpv::core {

struct CharacterizerConfig {
  /// Hidden width of the dense->relu->dense characterizer.
  std::size_t hidden = 8;
  double learning_rate = 0.01;
  train::TrainerConfig trainer = {.epochs = 80, .batch_size = 16, .shuffle_seed = 11,
                                  .verbose = false};
  std::uint64_t init_seed = 123;
};

struct TrainedCharacterizer {
  /// features (layer-l width) -> single logit; h = 1 iff logit >= 0.
  nn::Network network;
  train::ConfusionCounts train_confusion;
  train::ConfusionCounts validation_confusion;

  /// The paper requires "100% success rate on the training data" for the
  /// exact (non-statistical) reading of the workflow.
  bool perfect_on_training() const {
    return train_confusion.fp == 0 && train_confusion.fn == 0;
  }

  /// Validation accuracy; ~0.5 signals an uncharacterizable property.
  double separability() const { return validation_confusion.accuracy(); }
};

/// Extracts layer-l features for every image and trains the binary
/// classifier. `labelled_images` / `validation_images` hold image ->
/// {0,1} samples (see data::to_property_dataset).
TrainedCharacterizer train_characterizer(const nn::Network& perception,
                                         std::size_t attach_layer,
                                         const train::Dataset& labelled_images,
                                         const train::Dataset& validation_images,
                                         const CharacterizerConfig& config);

/// Feature-level core of train_characterizer: fits on layer-l feature
/// datasets (feature -> {0,1}) that were already forwarded through the
/// perception prefix, so several risks (or a whole campaign) can share
/// one forward pass. `val_features` may be empty. Same result as
/// train_characterizer on the images those features came from.
TrainedCharacterizer train_characterizer_on_features(const train::Dataset& train_features,
                                                     const train::Dataset& val_features,
                                                     const CharacterizerConfig& config);

/// The feature-space dataset used internally (exposed for tests/benches).
train::Dataset to_feature_dataset(const nn::Network& perception, std::size_t attach_layer,
                                  const train::Dataset& labelled_images);

}  // namespace dpv::core
