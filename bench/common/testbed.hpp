// Shared experiment testbed.
//
// Every bench binary needs the same substrate the paper's evaluation
// used: a trained direct perception network plus labelled road data. The
// testbed trains it deterministically, in process, once per process (a
// few seconds). Nothing is read from or written to disk, so a bench's
// wall time and results never depend on files left by earlier runs.
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset_gen.hpp"
#include "data/perception_model.hpp"
#include "train/dataset.hpp"

namespace dpv::bench {

struct Testbed {
  data::PerceptionModel model;
  std::vector<data::RoadSample> train_samples;
  std::vector<data::RoadSample> val_samples;
  train::Dataset regression_train;

  /// image -> {0,1} datasets for one property oracle.
  train::Dataset property_train(data::InputProperty property) const;
  train::Dataset property_val(data::InputProperty property) const;

  /// All training images (S̃ construction input).
  std::vector<Tensor> odd_inputs() const { return regression_train.inputs(); }
};

/// Returns the process-wide testbed, training it on first use. Prints
/// progress to stdout.
const Testbed& testbed();

}  // namespace dpv::bench
