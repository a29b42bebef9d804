#include "core/workflow.hpp"

#include <iomanip>
#include <sstream>

#include "common/check.hpp"
#include "common/worker_pool.hpp"
#include "train/adversarial.hpp"

namespace dpv::core {

std::string WorkflowReport::to_string() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4);
  out << "=== dpv safety verification report ===\n";
  out << "property phi : " << property_name << "\n";
  out << "risk psi     : " << risk_name << "\n";
  out << "characterizer: train-acc " << characterizer.train_confusion.accuracy()
      << " (perfect-on-train: " << (characterizer.perfect_on_training() ? "yes" : "no")
      << "), val-acc " << characterizer.separability()
      << (characterizer_usable ? "" : "  [UNUSABLE: property not separable at layer l]")
      << "\n";
  out << "verdict      : " << safety_verdict_name(safety.verdict) << "\n";
  out << "verification : " << safety.verification.summary() << "\n";
  if (safety.verdict == SafetyVerdict::kUnsafe) {
    out << "counterexample output:";
    for (std::size_t i = 0; i < safety.verification.counterexample_output.numel(); ++i)
      out << ' ' << safety.verification.counterexample_output[i];
    out << " (validated: " << (safety.verification.counterexample_validated ? "yes" : "no")
        << ")\n";
    if (have_input_witness)
      out << "input witness: concretized to feature distance " << input_witness_distance
          << "\n";
  }
  out << "--- Table I (held-out estimate) ---\n" << table_one.format();
  return out.str();
}

SafetyWorkflow::SafetyWorkflow(const nn::Network& perception, std::size_t attach_layer)
    : perception_(perception), attach_layer_(attach_layer) {
  check(attach_layer < perception.layer_count(),
        "SafetyWorkflow: attach layer out of range");
  check(perception.layer(attach_layer).input_shape().rank() == 1,
        "SafetyWorkflow: layer-l features must be a rank-1 vector");
}

std::shared_ptr<const PropertyFeatures> SafetyWorkflow::extract_features(
    const train::Dataset& property_train, const train::Dataset& property_val,
    const WorkflowConfig& config) const {
  check(!property_train.empty(), "SafetyWorkflow: empty property training set");
  check(!property_val.empty(), "SafetyWorkflow: empty property validation set");
  auto features = std::make_shared<PropertyFeatures>();
  const std::size_t n_train = property_train.size();
  features->train.resize(n_train);
  features->val.resize(property_val.size());
  parallel_for(n_train + property_val.size(), pool_width(), [&](std::size_t i) {
    if (i < n_train)
      features->train[i] = perception_.forward_prefix(property_train[i].input, attach_layer_);
    else
      features->val[i - n_train] =
          perception_.forward_prefix(property_val[i - n_train].input, attach_layer_);
  });
  // S̃ from the ODD training features (the paper's footnote-1 static
  // analysis over [0,1]^d0 needs none).
  if (config.assume_guarantee.bounds != BoundsSource::kStaticAnalysis) {
    features->monitor_margin = config.assume_guarantee.monitor_margin;
    features->monitor =
        monitor::DiffMonitor::from_activations(features->train, features->monitor_margin);
  }
  features->witness_start = property_train[0].input;
  return features;
}

namespace {

/// Pairs cached layer-l features with one property's phi labels.
train::Dataset label_features(const std::vector<Tensor>& features,
                              const train::Dataset& labelled_images) {
  check(features.size() == labelled_images.size(),
        "SafetyWorkflow::prepare: features do not match the image set");
  train::Dataset labelled;
  for (std::size_t i = 0; i < features.size(); ++i)
    labelled.add(features[i], labelled_images[i].target);
  return labelled;
}

}  // namespace

PreparedProperty SafetyWorkflow::prepare(const train::Dataset& property_train,
                                         const train::Dataset& property_val,
                                         std::shared_ptr<const PropertyFeatures> features,
                                         const WorkflowConfig& config) const {
  check(features != nullptr, "SafetyWorkflow::prepare: null features");
  PreparedProperty prepared;
  prepared.val_features = label_features(features->val, property_val);
  // 1. Specification: learn h_l^phi.
  prepared.characterizer = train_characterizer_on_features(
      label_features(features->train, property_train), prepared.val_features,
      config.characterizer);
  prepared.characterizer_usable =
      prepared.characterizer.separability() >= config.min_separability;
  prepared.features = std::move(features);
  return prepared;
}

PreparedProperty SafetyWorkflow::prepare(const train::Dataset& property_train,
                                         const train::Dataset& property_val,
                                         const WorkflowConfig& config) const {
  return prepare(property_train, property_val,
                 extract_features(property_train, property_val, config), config);
}

WorkflowReport SafetyWorkflow::run(const std::string& property_name,
                                   const PreparedProperty& property,
                                   const verify::RiskSpec& risk,
                                   const WorkflowConfig& config) const {
  check(property.features != nullptr, "SafetyWorkflow::run: property was not prepared");
  const PropertyFeatures& features = *property.features;

  WorkflowReport report;
  report.property_name = property_name;
  report.risk_name = risk.name().empty() ? "(unnamed risk)" : risk.name();
  report.characterizer = {property.characterizer.network.clone(),
                          property.characterizer.train_confusion,
                          property.characterizer.validation_confusion};
  report.characterizer_usable = property.characterizer_usable;

  // 2. Scalability: assume-guarantee verification over S̃ (or, when
  // configured for static analysis, over the normalized pixel box [0,1]^d0
  // of the paper's footnote 1).
  const AssumeGuaranteeVerifier verifier(config.assume_guarantee);
  if (config.assume_guarantee.bounds == BoundsSource::kStaticAnalysis) {
    report.safety = verifier.verify(
        perception_, attach_layer_, &report.characterizer.network, risk,
        absint::uniform_box(perception_.input_shape().numel(), 0.0, 1.0));
  } else {
    check(features.monitor.has_value() &&
              features.monitor_margin == config.assume_guarantee.monitor_margin,
          "SafetyWorkflow::run: property was prepared for another bounds source or margin");
    report.safety = verifier.verify_with_monitor(perception_, attach_layer_,
                                                 &report.characterizer.network, risk,
                                                 *features.monitor);
  }

  // Optional: pull the activation-space witness back into input space by
  // gradient search from an ODD image (best-effort; never changes the
  // verdict, which stands on the layer-l witness).
  if (config.concretize_witnesses && report.safety.verdict == SafetyVerdict::kUnsafe &&
      report.safety.verification.counterexample_activation.numel() > 0) {
    const train::ConcretizationResult conc = train::concretize_activation(
        perception_, attach_layer_, report.safety.verification.counterexample_activation,
        features.witness_start);
    report.have_input_witness = true;
    report.input_witness = conc.input;
    report.input_witness_distance = conc.distance;
  }

  // 3. Statistics: Table I on held-out data.
  report.table_one =
      estimate_table_one_on_features(report.characterizer.network, property.val_features);
  return report;
}

WorkflowReport SafetyWorkflow::run(const std::string& property_name,
                                   const train::Dataset& property_train,
                                   const train::Dataset& property_val,
                                   const verify::RiskSpec& risk,
                                   const WorkflowConfig& config) const {
  return run(property_name, prepare(property_train, property_val, config), risk, config);
}

}  // namespace dpv::core
