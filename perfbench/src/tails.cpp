// The two synthetic-tail workloads.
//
// recertify   — certify a battery of ReLU tails cold with LP-tightened
//               bounds and root cuts, harvesting delta artifacts, then
//               re-certify three retrained variants (bit-identical, 1e-4
//               and 1e-3 weight deltas) through plan_delta_reuse.
// deep-proof  — proof-forcing SAFE queries and near-boundary UNSAFE ones
//               on wider and deeper tails, with interval bounds and the
//               verifier's default search, so branch & bound and the LP
//               engine do almost all of the work.
//
// Set-up generates the tails and probes each one's thresholds (a
// sampled lower bound on the output maximum and the root LP-relaxation
// upper bound). The battery is fixed per input set so every verdict has
// a committed known answer; the run seed permutes the order in which the
// operations are issued.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "absint/box_domain.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "lp/simplex.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "verify/delta.hpp"
#include "verify/verifier.hpp"
#include "replay.hpp"

namespace perfbench {
namespace {

using namespace dpv;

// ------------------------------------------------------------- the inputs

struct TailShape {
  std::size_t width;
  std::size_t depth;
};

struct BatterySpec {
  std::vector<TailShape> shapes;
  /// SAFE thresholds: sampled max + alpha * (root bound - sampled max).
  std::vector<double> safe_alphas;
  /// UNSAFE thresholds: sampled max - delta * (root bound - sampled max);
  /// the sampled arg-max itself witnesses the risk.
  std::vector<double> unsafe_deltas;
  verify::BoundMethod probe_bounds = verify::BoundMethod::kInterval;
  std::uint64_t input_seed = 0;
};

struct Tail {
  nn::Network net;
  std::size_t width = 0;
  std::size_t depth = 0;
};

struct Query {
  std::size_t id = 0;  ///< 1-based, also the delta-artifact key
  std::size_t tail = 0;
  double threshold = 0.0;
};

struct Battery {
  std::vector<Tail> tails;
  std::vector<Query> queries;
};

nn::Network make_tail(std::size_t width, std::size_t depth, Rng& rng) {
  nn::Network net;
  for (std::size_t d = 0; d < depth; ++d) {
    auto dense = std::make_unique<nn::Dense>(width, width);
    dense->init_he(rng);
    net.add(std::move(dense));
    net.add(std::make_unique<nn::ReLU>(dpv::Shape{width}));
  }
  auto out = std::make_unique<nn::Dense>(width, 2);
  out->init_he(rng);
  net.add(std::move(out));
  return net;
}

/// A retrained variant: the last hidden Dense layer shifted by `eps`.
nn::Network perturb_last_hidden(const nn::Network& net, std::size_t depth, double eps) {
  nn::Network copy = net.clone();
  auto& dense = dynamic_cast<nn::Dense&>(copy.layer(2 * depth - 2));
  Tensor w = dense.weight();
  Tensor b = dense.bias();
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] += eps * (static_cast<double>(i % 3) - 1.0);
  dense.set_parameters(std::move(w), std::move(b));
  return copy;
}

verify::VerificationQuery make_query(const nn::Network& net, std::size_t width,
                                     double threshold) {
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(width, -1.0, 1.0);
  q.risk.output_at_least(0, 2, threshold);
  return q;
}

Battery make_battery(const BatterySpec& spec) {
  Battery battery;
  std::size_t id = 1;
  for (std::size_t t = 0; t < spec.shapes.size(); ++t) {
    Rng rng(spec.input_seed * 1000 + t);
    Tail tail;
    tail.width = spec.shapes[t].width;
    tail.depth = spec.shapes[t].depth;
    tail.net = make_tail(tail.width, tail.depth, rng);

    double sampled_max = -1e100;
    for (int i = 0; i < 400; ++i) {
      Tensor x(dpv::Shape{tail.width});
      for (std::size_t j = 0; j < tail.width; ++j) x[j] = rng.uniform(-1.0, 1.0);
      sampled_max = std::max(sampled_max, tail.net.forward(x)[0]);
    }
    // Root relaxation bound of the output over the exact encoding.
    verify::VerificationQuery probe = make_query(tail.net, tail.width, -1e9);  // vacuous risk
    verify::EncodeOptions encode;
    encode.bounds = spec.probe_bounds;
    verify::TailEncoding enc = verify::encode_tail_query(probe, encode);
    enc.problem.relaxation().set_objective({{enc.output_vars[0], 1.0}},
                                           lp::Objective::kMaximize);
    const lp::LpSolution root = lp::SimplexSolver().solve(enc.problem.relaxation());
    const double root_max =
        root.status == lp::SolveStatus::kOptimal ? root.objective : sampled_max + 1.0;
    const double gap = std::max(root_max - sampled_max, 0.1);

    for (const double alpha : spec.safe_alphas)
      battery.queries.push_back({id++, t, sampled_max + alpha * gap});
    for (const double delta : spec.unsafe_deltas)
      battery.queries.push_back({id++, t, sampled_max - delta * gap});
    battery.tails.push_back(std::move(tail));
  }
  return battery;
}

/// Set-up repeated `repeats` times (the median is reported); the last
/// battery is kept.
Battery timed_setup(const BatterySpec& spec, std::size_t repeats, RunResult& result,
                    Tracer& tracer) {
  Battery battery;
  for (std::size_t i = 0; i < repeats; ++i) {
    result.setup_probe_seconds.push_back(speed_probe_seconds());
    const Scope span(tracer, "setup");
    const auto start = Clock::now();
    battery = make_battery(spec);
    result.setup_seconds.push_back(seconds_since(start));
  }
  return battery;
}

// ---------------------------------------------------------- verdict text

std::string verdict_word(const verify::VerificationResult& r) {
  if (r.verdict == verify::Verdict::kUnsafe && !r.counterexample_validated)
    return "UNSAFE-UNVALIDATED";
  return verify::verdict_name(r.verdict);
}

/// One operation's answer-line key: phase, query id and tail shape.
std::string answer_key(const std::string& phase, const Query& q, const Tail& tail) {
  char key[96];
  std::snprintf(key, sizeof key, "%s q%02zu w%zud%zu", phase.c_str(), q.id, tail.width,
                tail.depth);
  return key;
}

/// Verdicts of one pass keyed by answer_key; the ordered map keeps the
/// answer text independent of the seeded issue order.
using Answers = std::map<std::string, std::string>;

std::string answer_text(const Answers& answers) {
  std::string text;
  for (const auto& [key, verdict] : answers) text += key + " " + verdict + "\n";
  return text;
}

PassOutcome outcome_of(const Answers& answers, std::vector<double> latencies) {
  PassOutcome outcome;
  outcome.answers = answer_text(answers);
  outcome.latencies_ms = std::move(latencies);
  outcome.operations = answers.size();
  for (const auto& entry : answers) outcome.undecided += entry.second == "UNKNOWN";
  return outcome;
}

double safe_share(const Answers& answers) {
  std::size_t safe = 0;
  for (const auto& entry : answers) safe += entry.second == "SAFE";
  return answers.empty() ? 0.0 : static_cast<double>(safe) / static_cast<double>(answers.size());
}

/// Runs one verify() call inside a span and records its latency.
verify::VerificationResult timed_verify(const verify::TailVerifierOptions& options,
                                        const verify::VerificationQuery& query, long op,
                                        Tracer& tracer, std::vector<double>& latencies) {
  const Scope span(tracer, "verify.query", op);
  const auto start = Clock::now();
  verify::VerificationResult r = verify::TailVerifier(options).verify(query);
  latencies.push_back(seconds_since(start) * 1e3);
  return r;
}

/// Layers these workloads never reach: reported as zero so every traced
/// run carries the same metric set.
void put_unreached_layers(RunResult& result) {
  for (const char* name :
       {"data.generate_s", "train.fit_s", "train.fit_samples_per_s", "train.characterizer_s",
        "nn.forward_per_s", "monitor.record_s", "monitor.build_s",
        "verify.encode_cache_hit_frac", "core.entry_s", "core.table_one_s", "core.round_s",
        "core.campaign_s", "core.coverage_s"})
    result.layer[name] = 0.0;
}

/// One named phase of a battery: how to build each query's verification.
using Phase = std::pair<std::string, std::function<verify::VerificationQuery(const Query&)>>;

/// Known answers from scratch: every query of every phase verified cold
/// with the dense-tableau LP engine and a generous node budget.
std::string derive_answers(const Battery& battery, verify::TailVerifierOptions oracle,
                           const std::vector<Phase>& phases) {
  oracle.milp.backend = solver::LpBackendKind::kDenseTableau;
  oracle.milp.max_nodes = 200000;
  Answers answers;
  for (const Query& q : battery.queries)
    for (const auto& [phase, query_of] : phases)
      answers[answer_key(phase, q, battery.tails[q.tail])] =
          verdict_word(verify::TailVerifier(oracle).verify(query_of(q)));
  return answer_text(answers);
}

// ---------------------------------------------------------- deep-proof

BatterySpec deep_proof_spec(const Options& options) {
  BatterySpec spec;
  spec.shapes = {{24, 3}, {40, 2}, {28, 3}, {20, 3}, {32, 2}};
  spec.safe_alphas = {0.6, 0.7, 0.8, 0.9};
  spec.unsafe_deltas = {0.02, 0.05};
  spec.probe_bounds = verify::BoundMethod::kInterval;
  spec.input_seed = options.inputs == "heldout" ? 77 : 5;
  return spec;
}

/// Interval bounds and the verifier's default hybrid + pseudocost search.
/// The PGD attack settles the near-boundary UNSAFE queries with a
/// validated witness: under this search the MILP alone does not find an
/// integral point on these tails within the node budget, even for a
/// threshold far below the sampled maximum. The zonotope stage is off so
/// every SAFE query is proved by branch & bound.
verify::TailVerifierOptions deep_proof_options() {
  verify::TailVerifierOptions options;
  options.milp.max_nodes = 20000;
  options.falsify.enabled = true;
  options.falsify.zonotope_prove = false;
  return options;
}

// ------------------------------------------------------------ recertify

BatterySpec recertify_spec(const Options& options) {
  BatterySpec spec;
  spec.shapes = {{16, 3}, {16, 3}, {16, 3}, {16, 3}};
  spec.safe_alphas = {0.7, 0.9, 1.2};
  spec.probe_bounds = verify::BoundMethod::kLpTightening;
  spec.input_seed = options.inputs == "heldout" ? 31 : 2020;
  return spec;
}

/// bench_delta's regime: per-neuron LP tightening and one root-cut round.
verify::TailVerifierOptions recertify_options() {
  verify::TailVerifierOptions options;
  options.encode.bounds = verify::BoundMethod::kLpTightening;
  options.milp.cuts.root_rounds = 1;
  options.milp.max_nodes = 20000;
  return options;
}

struct Variant {
  std::string name;
  std::vector<nn::Network> nets;  ///< one per battery tail
};

std::vector<Variant> make_variants(const Battery& battery) {
  std::vector<Variant> variants;
  for (const auto& [name, eps] : {std::pair<const char*, double>{"identical", 0.0},
                                  {"eps-1e-4", 1e-4}, {"eps-1e-3", 1e-3}}) {
    Variant v;
    v.name = name;
    for (const Tail& tail : battery.tails)
      v.nets.push_back(eps == 0.0 ? tail.net.clone()
                                  : perturb_last_hidden(tail.net, tail.depth, eps));
    variants.push_back(std::move(v));
  }
  return variants;
}

/// Plans artifact reuse for one re-certification query (no plan when the
/// base run harvested nothing for it).
verify::DeltaPlan plan_reuse(const verify::DeltaArtifacts& bundle, std::size_t key,
                             const nn::Network& base, const nn::Network& updated,
                             const verify::VerificationQuery& q) {
  const verify::QueryArtifacts* entry = bundle.find(key);
  return entry == nullptr ? verify::DeltaPlan{}
                          : verify::plan_delta_reuse(bundle, *entry, base, updated, q, {});
}

/// Applies a usable plan the way the campaign wiring does. `options`
/// then points into `plan`, which must outlive its use.
void apply_reuse(const verify::DeltaPlan& plan, verify::TailVerifierOptions& options) {
  if (!plan.usable) return;
  plan.apply(options);
  if (plan.trace == verify::TraceReuse::kWidened && plan.abstraction_changed)
    options.refresh_query_bounds = true;
}

}  // namespace

RunResult run_deep_proof(const Options& options, Tracer& tracer) {
  RunResult result;
  const Battery battery =
      timed_setup(deep_proof_spec(options), options.derive_answers ? 1 : 3, result, tracer);
  const auto query_of = [&](const Query& q) {
    const Tail& tail = battery.tails[q.tail];
    return make_query(tail.net, tail.width, q.threshold);
  };
  const verify::TailVerifierOptions verifier = deep_proof_options();
  if (options.derive_answers) {
    result.answers = derive_answers(battery, verifier, {{"proof", query_of}});
    return result;
  }

  const std::vector<std::size_t> order = seeded_order(battery.queries.size(), options.seed);
  Answers last;
  run_passes(options, tracer, result, [&] {
    Answers answers;
    std::vector<double> latencies;
    for (const std::size_t i : order) {
      const Query& q = battery.queries[i];
      answers[answer_key("proof", q, battery.tails[q.tail])] = verdict_word(
          timed_verify(verifier, query_of(q), static_cast<long>(q.id), tracer, latencies));
    }
    last = answers;
    return outcome_of(answers, std::move(latencies));
  });
  result.certified_frac = safe_share(last);
  if (!options.trace) return result;

  LayerTotals totals;
  const Scope replay_span(tracer, "replay");
  for (const std::size_t i : order) {
    const Query& q = battery.queries[i];
    const long op = static_cast<long>(q.id);
    const Scope span(tracer, "replay.query", op);
    const verify::Verdict v = replay_query(query_of(q), verifier, nullptr, op, tracer, totals);
    ++result.replays;
    if (last[answer_key("proof", q, battery.tails[q.tail])] != verify::verdict_name(v))
      ++result.replay_mismatches;
  }
  put_layer_totals(totals, result);
  put_unreached_layers(result);
  result.layer["verify.cert_s"] = median(result.pass_seconds);
  result.layer["verify.recert_s"] = 0.0;
  return result;
}

RunResult run_recertify(const Options& options, Tracer& tracer) {
  RunResult result;
  const Battery battery =
      timed_setup(recertify_spec(options), options.derive_answers ? 1 : 3, result, tracer);
  const std::vector<Variant> variants = make_variants(battery);
  const auto query_on = [&](const nn::Network& net, const Query& q) {
    return make_query(net, battery.tails[q.tail].width, q.threshold);
  };
  const verify::TailVerifierOptions verifier = recertify_options();
  if (options.derive_answers) {
    // The base battery and every retrained variant, each certified cold.
    std::vector<Phase> phases;
    phases.emplace_back("cold", [&](const Query& q) {
      return query_on(battery.tails[q.tail].net, q);
    });
    for (const Variant& v : variants)
      phases.emplace_back(v.name, [&](const Query& q) { return query_on(v.nets[q.tail], q); });
    result.answers = derive_answers(battery, verifier, phases);
    return result;
  }

  const std::vector<std::size_t> order = seeded_order(battery.queries.size(), options.seed);
  const std::vector<std::size_t> variant_order = seeded_order(variants.size(), options.seed + 1);
  std::vector<double> cert_walls, recert_walls;
  std::vector<verify::DeltaArtifacts> bundles;
  Answers last;
  double refresh_s = 0.0;
  std::size_t cuts_recycled = 0;
  run_passes(options, tracer, result, [&] {
    Answers answers;
    std::vector<double> latencies;
    // Cold certification, harvesting every query's artifacts.
    bundles.clear();
    for (const Tail& tail : battery.tails)
      bundles.push_back(verify::make_base_artifacts(tail.net, 0));
    auto start = Clock::now();
    {
      const Scope span(tracer, "verify.cert");
      for (const std::size_t i : order) {
        const Query& q = battery.queries[i];
        const Tail& tail = battery.tails[q.tail];
        const verify::VerificationQuery vq = query_on(tail.net, q);
        verify::TailVerifierOptions harvesting = verifier;
        verify::DeltaHarvest harvest;
        harvesting.harvest = &harvest;
        const verify::VerificationResult r =
            timed_verify(harvesting, vq, static_cast<long>(q.id), tracer, latencies);
        answers[answer_key("cold", q, tail)] = verdict_word(r);
        if (harvest.captured)
          bundles[q.tail].upsert(verify::harvest_to_artifacts(q.id, vq, r, std::move(harvest)));
      }
    }
    cert_walls.push_back(seconds_since(start));

    // Delta re-certification of every retrained variant.
    start = Clock::now();
    refresh_s = 0.0;
    cuts_recycled = 0;
    {
      const Scope span(tracer, "verify.recert");
      for (const std::size_t vi : variant_order) {
        const Variant& v = variants[vi];
        for (const std::size_t i : order) {
          const Query& q = battery.queries[i];
          const Tail& tail = battery.tails[q.tail];
          const verify::VerificationQuery vq = query_on(v.nets[q.tail], q);
          verify::DeltaPlan plan;
          {
            const Scope plan_span(tracer, "verify.plan", static_cast<long>(q.id));
            plan = plan_reuse(bundles[q.tail], q.id, tail.net, v.nets[q.tail], vq);
          }
          verify::TailVerifierOptions reuse = verifier;
          apply_reuse(plan, reuse);
          const verify::VerificationResult r =
              timed_verify(reuse, vq, static_cast<long>(q.id), tracer, latencies);
          answers[answer_key(v.name, q, tail)] = verdict_word(r);
          refresh_s += r.refresh_seconds;
          cuts_recycled += r.cuts_recycled;
        }
      }
    }
    recert_walls.push_back(seconds_since(start));
    last = answers;
    return outcome_of(answers, std::move(latencies));
  });
  result.certified_frac = safe_share(last);
  if (!options.trace) return result;

  // Replay every operation of the last pass through the public layers,
  // reusing that pass's harvested bundles for the delta path.
  LayerTotals totals;
  const Scope replay_span(tracer, "replay");
  const auto check = [&](const std::string& key, verify::Verdict v) {
    ++result.replays;
    if (last[key] != verify::verdict_name(v)) ++result.replay_mismatches;
  };
  for (const std::size_t i : order) {
    const Query& q = battery.queries[i];
    const Tail& tail = battery.tails[q.tail];
    const long op = static_cast<long>(q.id);
    const Scope span(tracer, "replay.query", op);
    check(answer_key("cold", q, tail),
          replay_query(query_on(tail.net, q), verifier, nullptr, op, tracer, totals));
  }
  for (const std::size_t vi : variant_order) {
    const Variant& v = variants[vi];
    for (const std::size_t i : order) {
      const Query& q = battery.queries[i];
      const Tail& tail = battery.tails[q.tail];
      const long op = static_cast<long>(q.id);
      const verify::VerificationQuery vq = query_on(v.nets[q.tail], q);
      const Scope span(tracer, "replay.query", op);
      verify::DeltaPlan plan;
      {
        const Scope plan_span(tracer, "verify.plan", op);
        const auto start = Clock::now();
        plan = plan_reuse(bundles[q.tail], q.id, tail.net, v.nets[q.tail], vq);
        totals.plan_s += seconds_since(start);
      }
      verify::TailVerifierOptions reuse = verifier;
      apply_reuse(plan, reuse);
      ++totals.plans;
      totals.plans_usable += plan.usable;
      check(answer_key(v.name, q, tail),
            replay_query(vq, reuse, plan.usable ? &plan.pseudocosts : nullptr, op, tracer,
                         totals));
    }
  }
  totals.refresh_s = refresh_s;
  totals.cuts_recycled = cuts_recycled;
  put_layer_totals(totals, result);
  put_unreached_layers(result);
  result.layer["verify.cert_s"] = median(cert_walls);
  result.layer["verify.recert_s"] = median(recert_walls);
  return result;
}

}  // namespace perfbench
