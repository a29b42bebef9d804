#include "data/dataset_gen.hpp"

#include "common/check.hpp"
#include "common/worker_pool.hpp"

namespace dpv::data {

std::vector<RoadSample> generate_road_samples(const RoadDatasetConfig& config) {
  check(config.count > 0, "generate_road_samples: count must be positive");
  // Scenarios come serially off the one seeded stream; each image's noise
  // comes from its scenario's own noise_seed, so rendering in parallel
  // gives the same bytes as rendering in order.
  Rng rng(config.seed);
  std::vector<RoadSample> samples(config.count);
  for (RoadSample& sample : samples) sample.scenario = sample_scenario(rng);
  parallel_for(samples.size(), pool_width(), [&](std::size_t i) {
    samples[i].image = render_road_image(samples[i].scenario, config.render);
    samples[i].affordances = ground_truth_affordances(samples[i].scenario);
  });
  return samples;
}

train::Dataset to_regression_dataset(const std::vector<RoadSample>& samples) {
  train::Dataset data;
  for (const RoadSample& s : samples) {
    Tensor target(Shape{2});
    target[0] = s.affordances.waypoint_offset;
    target[1] = s.affordances.heading;
    data.add(s.image, std::move(target));
  }
  return data;
}

train::Dataset to_property_dataset(const std::vector<RoadSample>& samples,
                                   InputProperty property) {
  train::Dataset data;
  for (const RoadSample& s : samples) {
    Tensor target(Shape{1});
    target[0] = property_holds(s.scenario, property) ? 1.0 : 0.0;
    data.add(s.image, std::move(target));
  }
  return data;
}

}  // namespace dpv::data
