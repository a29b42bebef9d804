#include "replay.hpp"

#include <algorithm>
#include <unordered_map>

#include "milp/branch_and_bound.hpp"
#include "verify/falsifier.hpp"

namespace perfbench {

using namespace dpv;

namespace {

double ratio(std::size_t part, std::size_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

verify::Verdict replay_milp(const verify::VerificationQuery& q,
                            const verify::TailVerifierOptions& options,
                            const std::vector<verify::NamedPseudocost>* priors, long op,
                            Tracer& tracer, LayerTotals& totals) {
  verify::TailEncoding enc;
  {
    const Scope span(tracer, "verify.encode", op);
    const auto start = Clock::now();
    enc = verify::encode_tail_query(q, options.encode);
    totals.encode_s += seconds_since(start);
  }
  totals.tightening_lps += enc.stats.tightening_lps;
  totals.binaries += enc.stats.binaries;
  totals.rows += enc.stats.rows;

  // The verifier's risk-margin objective on the leading risk inequality.
  milp::BranchAndBoundOptions milp = options.milp;
  const verify::OutputInequality& lead = q.risk.inequalities().front();
  if (options.risk_margin_objective && lead.sense != lp::RowSense::kEqual) {
    std::vector<lp::LinearTerm> terms;
    for (std::size_t i = 0; i < std::min(lead.coeffs.size(), enc.output_vars.size()); ++i)
      if (lead.coeffs[i] != 0.0) terms.push_back({enc.output_vars[i], lead.coeffs[i]});
    if (!terms.empty()) {
      enc.problem.set_objective(std::move(terms), lead.sense == lp::RowSense::kGreaterEqual
                                                      ? lp::Objective::kMaximize
                                                      : lp::Objective::kMinimize);
      milp.bound_target = lead.rhs;
    }
  }
  std::vector<std::pair<milp::search::PseudocostTable::DirectionStats,
                        milp::search::PseudocostTable::DirectionStats>>
      prior_table;
  if (priors != nullptr && !priors->empty()) {
    const lp::LpProblem& relaxation = enc.problem.relaxation();
    std::unordered_map<std::string, std::size_t> index;
    for (std::size_t var = 0; var < relaxation.variable_count(); ++var)
      index.emplace(relaxation.variable_name(var), var);
    prior_table.assign(relaxation.variable_count(), {});
    for (const verify::NamedPseudocost& prior : *priors) {
      const auto it = index.find(prior.var);
      if (it != index.end()) prior_table[it->second] = {prior.down, prior.up};
    }
    milp.pseudocost_priors = &prior_table;
  }
  milp::MilpResult result;
  {
    const Scope span(tracer, "milp.solve", op);
    const auto start = Clock::now();
    result = milp::BranchAndBoundSolver(milp).solve(enc.problem);
    totals.solve_s += seconds_since(start);
  }
  totals.nodes += result.nodes_explored;
  totals.cuts_added += result.solver_stats.cuts_added;
  totals.peak_open = std::max(totals.peak_open, result.solver_stats.peak_open_nodes);
  totals.lp.merge(result.solver_stats);
  switch (result.status) {
    case milp::MilpStatus::kInfeasible:
      return verify::Verdict::kSafe;
    case milp::MilpStatus::kOptimal:
    case milp::MilpStatus::kFeasible:
      return verify::Verdict::kUnsafe;
    case milp::MilpStatus::kNodeLimit:
      break;
  }
  return verify::Verdict::kUnknown;
}

}  // namespace

verify::Verdict replay_query(const verify::VerificationQuery& q,
                             const verify::TailVerifierOptions& options,
                             const std::vector<verify::NamedPseudocost>* priors, long op,
                             Tracer& tracer, LayerTotals& totals) {
  if (options.falsify.enabled) {
    verify::FalsifyReport attack;
    {
      const Scope span(tracer, "verify.attack", op);
      const auto start = Clock::now();
      attack = verify::falsify_query(q, options.falsify);
      totals.attack_s += seconds_since(start);
    }
    ++totals.attacks;
    totals.attack_starts += attack.starts;
    if (attack.falsified) {
      ++totals.attack_hits;
      return verify::Verdict::kUnsafe;
    }
    if (options.falsify.zonotope_prove) {
      verify::BoundProofReport proof;
      {
        const Scope span(tracer, "absint.prove", op);
        const auto start = Clock::now();
        proof = verify::prove_by_bounds(q, options.falsify);
        totals.prove_s += seconds_since(start);
      }
      ++totals.proofs;
      if (proof.proved_safe) {
        ++totals.proof_hits;
        return verify::Verdict::kSafe;
      }
    }
  }
  return replay_milp(q, options, priors, op, tracer, totals);
}

void put_layer_totals(const LayerTotals& t, RunResult& result) {
  auto& m = result.layer;
  m["verify.attack_s"] = t.attack_s;
  m["verify.attack_starts"] = static_cast<double>(t.attack_starts);
  m["verify.attack_hit_frac"] = ratio(t.attack_hits, t.attacks);
  m["absint.prove_s"] = t.prove_s;
  m["absint.prove_hit_frac"] = ratio(t.proof_hits, t.proofs);
  m["verify.encode_s"] = t.encode_s;
  m["verify.tightening_lps"] = static_cast<double>(t.tightening_lps);
  m["verify.binaries"] = static_cast<double>(t.binaries);
  m["verify.rows"] = static_cast<double>(t.rows);
  m["verify.plan_s"] = t.plan_s;
  m["verify.reuse_frac"] = ratio(t.plans_usable, t.plans);
  m["verify.cuts_recycled"] = static_cast<double>(t.cuts_recycled);
  m["verify.refresh_s"] = t.refresh_s;
  m["milp.solve_s"] = t.solve_s;
  m["milp.nodes"] = static_cast<double>(t.nodes);
  m["milp.nodes_per_s"] = t.solve_s > 0.0 ? static_cast<double>(t.nodes) / t.solve_s : 0.0;
  m["milp.cuts_added"] = static_cast<double>(t.cuts_added);
  m["milp.peak_open_nodes"] = static_cast<double>(t.peak_open);
  m["lp.iterations"] = static_cast<double>(t.lp.lp_iterations);
  m["lp.iters_per_node"] = ratio(t.lp.lp_iterations, t.nodes);
  m["lp.factorizations"] = static_cast<double>(t.lp.basis_factorizations);
  m["lp.factor_s"] = t.lp.factor_seconds;
  m["lp.pivot_s"] = t.lp.pivot_seconds;
  m["lp.warm_hit_frac"] = t.lp.warm_hit_rate();
}

}  // namespace perfbench
