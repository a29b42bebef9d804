#include "core/statistical.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/check.hpp"
#include "core/characterizer.hpp"

namespace dpv::core {

ProbabilityInterval TableOneEstimate::gamma_interval(double z) const {
  check(z > 0.0, "gamma_interval: z must be positive");
  const double n = static_cast<double>(samples());
  if (n == 0.0) return {0.0, 1.0};
  const double p = gamma();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half = (z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

std::string TableOneEstimate::format() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4);
  out << "                          | in ∈ In_phi | in ∉ In_phi |\n";
  out << "  h(f^l(in)) = 1          |   " << std::setw(8) << alpha() << "  |   "
      << std::setw(8) << beta() << "  |\n";
  out << "  h(f^l(in)) = 0          |   " << std::setw(8) << gamma() << "  |   "
      << std::setw(8) << delta() << "  |\n";
  const ProbabilityInterval ci = gamma_interval();
  out << "  samples = " << samples() << ", gamma = " << gamma() << " (95% CI ["
      << ci.lo << ", " << ci.hi << "])\n";
  out << "  statistical guarantee: 1 - gamma = " << guarantee()
      << " (conservative: " << guarantee_lower_bound() << ")";
  return out.str();
}

TableOneEstimate estimate_table_one(const nn::Network& perception, std::size_t attach_layer,
                                    const nn::Network& characterizer,
                                    const train::Dataset& labelled_images) {
  return estimate_table_one_on_features(
      characterizer, to_feature_dataset(perception, attach_layer, labelled_images));
}

TableOneEstimate estimate_table_one_on_features(const nn::Network& characterizer,
                                                const train::Dataset& labelled_features) {
  check(!labelled_features.empty(), "estimate_table_one: empty dataset");
  TableOneEstimate estimate;
  for (const train::Sample& s : labelled_features.samples()) {
    const Tensor logit = characterizer.forward(s.input);
    const bool predicted = logit[0] >= 0.0;
    const bool actual = s.target[0] >= 0.5;
    if (predicted && actual)
      ++estimate.counts.tp;  // alpha
    else if (predicted && !actual)
      ++estimate.counts.fp;  // beta
    else if (!predicted && actual)
      ++estimate.counts.fn;  // gamma
    else
      ++estimate.counts.tn;  // 1 - alpha - beta - gamma
  }
  return estimate;
}

}  // namespace dpv::core
