// Statistical reasoning when the characterizer is imperfect (Sec. III).
//
// Table I of the paper decomposes the joint behaviour of the ground truth
// (in ∈ In_phi?) and the characterizer decision (h = 1?) into four cell
// probabilities alpha, beta, gamma, 1-alpha-beta-gamma. A safety proof
// over {h = 1} misses inputs with in ∈ In_phi but h = 0 — probability
// gamma — so the proof only supports a (1 - gamma) statistical guarantee.
// This module estimates the cells from held-out data and attaches a
// Wilson score interval to gamma, turning the paper's point estimate into
// a confidence-bounded claim.
#pragma once

#include <cstddef>
#include <string>

#include "nn/network.hpp"
#include "train/dataset.hpp"
#include "train/metrics.hpp"

namespace dpv::core {

/// A two-sided confidence interval on a probability.
struct ProbabilityInterval {
  double lo = 0.0;
  double hi = 1.0;
};

/// Estimated Table I plus the derived guarantee.
struct TableOneEstimate {
  train::ConfusionCounts counts;

  double alpha() const { return counts.alpha(); }
  double beta() const { return counts.beta(); }
  double gamma() const { return counts.gamma(); }
  double delta() const { return counts.delta(); }
  std::size_t samples() const { return counts.total(); }

  /// The paper's claim: correctness holds with probability (1 - gamma).
  double guarantee() const { return 1.0 - gamma(); }

  /// Wilson score interval for gamma at normal quantile `z`
  /// (z = 1.96 for 95%).
  ProbabilityInterval gamma_interval(double z = 1.96) const;

  /// Conservative guarantee: 1 - upper Wilson bound on gamma.
  double guarantee_lower_bound(double z = 1.96) const { return 1.0 - gamma_interval(z).hi; }

  /// Paper-style rendering of Table I with the estimated frequencies.
  std::string format() const;
};

/// Runs the characterizer over labelled images (targets in {0,1}, oracle
/// truth for phi) through the perception network's layer-l features and
/// tallies Table I.
TableOneEstimate estimate_table_one(const nn::Network& perception, std::size_t attach_layer,
                                    const nn::Network& characterizer,
                                    const train::Dataset& labelled_images);

/// Feature-level core of estimate_table_one: tallies Table I over
/// layer-l features already forwarded from the labelled images
/// (feature -> {0,1} oracle truth). Same counts as estimate_table_one on
/// those images.
TableOneEstimate estimate_table_one_on_features(const nn::Network& characterizer,
                                                const train::Dataset& labelled_features);

}  // namespace dpv::core
