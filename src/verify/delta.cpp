#include "verify/delta.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "absint/perturbation.hpp"
#include "common/check.hpp"
#include "common/record_io.hpp"
#include "verify/encoding_cache.hpp"

namespace dpv::verify {

namespace {

using common::RecordReader;
using common::RecordWriter;

constexpr const char* kMagic = "dpv-delta-artifacts";
constexpr std::size_t kVersion = 1;

/// Bitwise double equality: the reuse contracts promise *bit-identical*
/// reproduction, and operator== would call -0.0 == +0.0 equal even
/// though encodings built from them can differ in sign-sensitive spots.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_box_bits(const absint::Box& a, const absint::Box& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].lo, b[i].lo) || !same_bits(a[i].hi, b[i].hi)) return false;
  return true;
}

/// FNV-1a over raw bytes; used for the query-content fingerprint.
struct Fnv1a {
  std::size_t state = 1469598103934665603ull;
  void bytes(const void* data, std::size_t count) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < count; ++i) {
      state ^= p[i];
      state *= 1099511628211ull;
    }
  }
  void u64(std::size_t value) {
    for (int i = 0; i < 8; ++i) {
      const unsigned char byte = static_cast<unsigned char>(value >> (8 * i));
      bytes(&byte, 1);
    }
  }
  void dbl(double value) { bytes(&value, sizeof(double)); }
};

/// Cut sources are `const char*` with static storage when they come
/// from a generator; loaded artifacts intern their source strings here
/// so the pointers stay valid for the process lifetime (unordered_set
/// node pointers are stable across rehash).
const char* intern_source(const std::string& source) {
  if (source.empty()) return "";
  static std::mutex mutex;
  static std::unordered_set<std::string> pool;
  const std::lock_guard<std::mutex> lock(mutex);
  return pool.insert(source).first->c_str();
}

void write_box(RecordWriter& writer, const absint::Box& box) {
  writer.size_value(box.size());
  for (const absint::Interval& iv : box) {
    writer.dbl(iv.lo);
    writer.dbl(iv.hi);
  }
}

absint::Box read_box(RecordReader& reader) {
  absint::Box box(reader.size_value());
  for (absint::Interval& iv : box) {
    iv.lo = reader.dbl();
    iv.hi = reader.dbl();
  }
  return box;
}

void write_stats(RecordWriter& writer,
                 const milp::search::PseudocostTable::DirectionStats& stats) {
  writer.dbl(stats.gain_sum);
  writer.size_value(stats.solved);
  writer.size_value(stats.infeasible);
}

milp::search::PseudocostTable::DirectionStats read_stats(RecordReader& reader) {
  milp::search::PseudocostTable::DirectionStats stats;
  stats.gain_sum = reader.dbl();
  stats.solved = reader.size_value();
  stats.infeasible = reader.size_value();
  return stats;
}

Verdict verdict_from_index(std::size_t index, RecordReader& reader) {
  switch (index) {
    case 0:
      return Verdict::kSafe;
    case 1:
      return Verdict::kUnsafe;
    case 2:
      return Verdict::kUnknown;
    default:
      reader.fail("unknown verdict index " + std::to_string(index));
  }
}

std::size_t verdict_index(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSafe:
      return 0;
    case Verdict::kUnsafe:
      return 1;
    case Verdict::kUnknown:
      return 2;
  }
  return 2;
}

}  // namespace

std::size_t DeltaArtifacts::versioned_key() const {
  return versioned_cache_key(base_fingerprint, delta_chain);
}

const QueryArtifacts* DeltaArtifacts::find(std::size_t query_key) const {
  for (const QueryArtifacts& entry : queries)
    if (entry.query_key == query_key) return &entry;
  return nullptr;
}

void DeltaArtifacts::upsert(QueryArtifacts artifacts) {
  for (QueryArtifacts& entry : queries) {
    if (entry.query_key == artifacts.query_key) {
      entry = std::move(artifacts);
      return;
    }
  }
  queries.push_back(std::move(artifacts));
}

DeltaArtifacts make_base_artifacts(const nn::Network& network, std::size_t attach_layer) {
  DeltaArtifacts artifacts;
  artifacts.base_fingerprint = tail_fingerprint(network, 0);
  artifacts.attach_layer = attach_layer;
  return artifacts;
}

DeltaArtifacts advance_artifacts(const DeltaArtifacts& previous, const nn::Network& updated) {
  DeltaArtifacts next;
  next.base_fingerprint = previous.base_fingerprint;
  next.delta_chain = previous.delta_chain;
  next.delta_chain.push_back(tail_fingerprint(updated, 0));
  next.attach_layer = previous.attach_layer;
  return next;
}

std::size_t delta_query_fingerprint(const VerificationQuery& query) {
  Fnv1a hash;
  hash.u64(query.characterizer != nullptr ? tail_fingerprint(*query.characterizer, 0) : 0);
  hash.dbl(query.characterizer_threshold);
  hash.u64(query.diff_bounds.size());
  for (const absint::Interval& iv : query.diff_bounds) {
    hash.dbl(iv.lo);
    hash.dbl(iv.hi);
  }
  hash.u64(query.pair_bounds.size());
  for (const PairConstraint& pair : query.pair_bounds) {
    hash.u64(pair.first);
    hash.u64(pair.second);
    hash.dbl(pair.bounds.lo);
    hash.dbl(pair.bounds.hi);
  }
  hash.u64(query.risk.inequalities().size());
  for (const OutputInequality& inequality : query.risk.inequalities()) {
    hash.u64(static_cast<std::size_t>(inequality.sense));
    hash.dbl(inequality.rhs);
    hash.u64(inequality.coeffs.size());
    for (const double coeff : inequality.coeffs) hash.dbl(coeff);
  }
  // Zero is the "no fingerprint" sentinel in QueryArtifacts.
  return hash.state != 0 ? hash.state : 1;
}

QueryArtifacts harvest_to_artifacts(std::size_t query_key, const VerificationQuery& query,
                                    const VerificationResult& result, DeltaHarvest harvest) {
  QueryArtifacts artifacts;
  artifacts.query_key = query_key;
  artifacts.verdict = result.verdict;
  artifacts.query_fingerprint = delta_query_fingerprint(query);
  artifacts.input_box = query.input_box;
  artifacts.tail_boxes = std::move(harvest.tail_boxes);
  artifacts.tail_vars = std::move(harvest.tail_vars);
  artifacts.root_cuts = std::move(harvest.root_cuts);
  artifacts.pseudocosts = std::move(harvest.pseudocosts);
  return artifacts;
}

void save_delta_artifacts(const std::string& path, const DeltaArtifacts& artifacts) {
  RecordWriter writer;
  writer.tag(kMagic);
  writer.size_value(kVersion);
  writer.newline();
  writer.tag("base");
  writer.size_value(artifacts.base_fingerprint);
  writer.tag("attach");
  writer.size_value(artifacts.attach_layer);
  writer.tag("chain");
  writer.size_value(artifacts.delta_chain.size());
  for (const std::size_t link : artifacts.delta_chain) writer.size_value(link);
  writer.tag("queries");
  writer.size_value(artifacts.queries.size());
  writer.newline();
  for (const QueryArtifacts& entry : artifacts.queries) {
    writer.tag("query");
    writer.size_value(entry.query_key);
    writer.tag("verdict");
    writer.size_value(verdict_index(entry.verdict));
    writer.tag("qfp");
    writer.size_value(entry.query_fingerprint);
    writer.newline();
    writer.tag("box");
    write_box(writer, entry.input_box);
    writer.newline();
    writer.tag("boxes");
    writer.size_value(entry.tail_boxes.size());
    for (const absint::Box& box : entry.tail_boxes) write_box(writer, box);
    writer.newline();
    writer.tag("vars");
    writer.size_value(entry.tail_vars.size());
    for (const std::vector<std::size_t>& layer : entry.tail_vars) {
      writer.size_value(layer.size());
      for (const std::size_t var : layer) writer.size_value(var);
    }
    writer.newline();
    writer.tag("cuts");
    writer.size_value(entry.root_cuts.size());
    writer.newline();
    for (const milp::cuts::Cut& cut : entry.root_cuts) {
      writer.str(cut.source);
      writer.size_value(static_cast<std::size_t>(cut.row.sense));
      writer.dbl(cut.row.rhs);
      writer.size_value(cut.row.terms.size());
      for (const lp::LinearTerm& term : cut.row.terms) {
        writer.size_value(term.var);
        writer.dbl(term.coeff);
      }
      writer.newline();
    }
    writer.tag("pcs");
    writer.size_value(entry.pseudocosts.size());
    writer.newline();
    for (const NamedPseudocost& prior : entry.pseudocosts) {
      writer.str(prior.var);
      write_stats(writer, prior.down);
      write_stats(writer, prior.up);
      writer.newline();
    }
  }
  common::write_file_atomic(path, writer.take(), "delta-artifact");
}

bool load_delta_artifacts(const std::string& path, DeltaArtifacts& out) {
  std::string text;
  if (!common::read_file(path, text)) return false;
  RecordReader reader(std::move(text), "delta-artifact " + path);
  reader.expect_tag(kMagic);
  const std::size_t version = reader.size_value();
  if (version != kVersion)
    reader.fail("unsupported version " + std::to_string(version));
  DeltaArtifacts artifacts;
  reader.expect_tag("base");
  artifacts.base_fingerprint = reader.size_value();
  reader.expect_tag("attach");
  artifacts.attach_layer = reader.size_value();
  reader.expect_tag("chain");
  artifacts.delta_chain.resize(reader.size_value());
  for (std::size_t& link : artifacts.delta_chain) link = reader.size_value();
  reader.expect_tag("queries");
  artifacts.queries.resize(reader.size_value());
  for (QueryArtifacts& entry : artifacts.queries) {
    reader.expect_tag("query");
    entry.query_key = reader.size_value();
    reader.expect_tag("verdict");
    entry.verdict = verdict_from_index(reader.size_value(), reader);
    reader.expect_tag("qfp");
    entry.query_fingerprint = reader.size_value();
    reader.expect_tag("box");
    entry.input_box = read_box(reader);
    reader.expect_tag("boxes");
    entry.tail_boxes.resize(reader.size_value());
    for (absint::Box& box : entry.tail_boxes) box = read_box(reader);
    reader.expect_tag("vars");
    entry.tail_vars.resize(reader.size_value());
    for (std::vector<std::size_t>& layer : entry.tail_vars) {
      layer.resize(reader.size_value());
      for (std::size_t& var : layer) var = reader.size_value();
    }
    reader.expect_tag("cuts");
    entry.root_cuts.resize(reader.size_value());
    for (milp::cuts::Cut& cut : entry.root_cuts) {
      cut.source = intern_source(reader.str());
      const std::size_t sense = reader.size_value();
      if (sense > 2) reader.fail("bad row sense " + std::to_string(sense));
      cut.row.sense = static_cast<lp::RowSense>(sense);
      cut.row.rhs = reader.dbl();
      cut.row.terms.resize(reader.size_value());
      for (lp::LinearTerm& term : cut.row.terms) {
        term.var = reader.size_value();
        term.coeff = reader.dbl();
      }
    }
    reader.expect_tag("pcs");
    entry.pseudocosts.resize(reader.size_value());
    for (NamedPseudocost& prior : entry.pseudocosts) {
      prior.var = reader.str();
      prior.down = read_stats(reader);
      prior.up = read_stats(reader);
    }
  }
  out = std::move(artifacts);
  return true;
}

const char* trace_reuse_name(TraceReuse reuse) {
  switch (reuse) {
    case TraceReuse::kNone:
      return "none";
    case TraceReuse::kExact:
      return "exact";
    case TraceReuse::kWidened:
      return "widened";
  }
  return "?";
}

void DeltaPlan::apply(TailVerifierOptions& options) const {
  if (trace != TraceReuse::kNone) {
    options.encode.tail_bound_trace = &bound_trace;
    options.encode.tail_bound_trace_key = trace_key;
  }
  if (!cuts.empty()) options.milp.cuts.initial_cuts = &cuts;
  if (!pseudocosts.empty()) options.pseudocost_priors = &pseudocosts;
  // A widened trace over a *drifted* abstraction leaves the query's
  // entry boxes loose; the selective refresh recovers per-query
  // tightness with a few LPs instead of a full bound pre-pass. With an
  // unchanged box the entry bounds cannot be stale and the refresh would
  // be pure overhead.
  if (trace == TraceReuse::kWidened && abstraction_changed) options.refresh_query_bounds = true;
}

DeltaPlan plan_delta_reuse(const DeltaArtifacts& artifacts, const QueryArtifacts& entry,
                           const nn::Network& base, const nn::Network& updated,
                           const VerificationQuery& query, const DeltaPlanOptions& options) {
  DeltaPlan plan;
  const nn::NetworkDiff diff = nn::diff_networks(base, updated);
  if (!diff.structurally_identical) return plan;
  if (artifacts.attach_layer != query.attach_layer) return plan;
  plan.usable = true;

  const std::size_t layer_count = updated.layer_count();
  const std::size_t attach = query.attach_layer;
  const std::size_t tail_length = layer_count - attach;

  // First changed layer *within the verified tail*: head-only retrains
  // (feature extractor fine-tuned below the cut, tail frozen) leave the
  // tail function identical even though the networks differ.
  std::size_t tail_first_changed = layer_count;
  for (const nn::LayerDelta& layer : diff.layers) {
    if (layer.changed && layer.layer >= attach) {
      tail_first_changed = layer.layer;
      break;
    }
  }
  plan.tail_identical = tail_first_changed == layer_count;
  const bool same_box = same_box_bits(entry.input_box, query.input_box);
  plan.abstraction_changed = !same_box;

  // The new certification's versioned identity: previous chain extended
  // by the updated model. Doubles as the encoder's trace key, so cache
  // bases built from different chains never alias.
  std::vector<std::size_t> chain = artifacts.delta_chain;
  chain.push_back(tail_fingerprint(updated, 0));
  plan.trace_key = versioned_cache_key(artifacts.base_fingerprint, chain);

  // ---- Reuse class 1: bound trace -----------------------------------
  if (options.reuse_bound_trace && entry.tail_boxes.size() == tail_length) {
    if (plan.tail_identical && same_box) {
      // Bit-identical tail + abstraction: the realized boxes ARE the
      // bounds a fresh encode would compute; injecting them reproduces
      // the encoding bit-identically (trace-override parity).
      plan.trace = TraceReuse::kExact;
      plan.bound_trace = entry.tail_boxes;
    } else {
      const absint::PerturbationTrace radii = absint::perturbation_radii(
          base, updated, entry.tail_boxes, entry.input_box, query.input_box, attach);
      if (radii.supported && radii.max_radius <= options.max_widening) {
        plan.trace = TraceReuse::kWidened;
        plan.widening = radii.max_radius;
        plan.bound_trace.reserve(tail_length);
        for (std::size_t k = 0; k < tail_length; ++k)
          plan.bound_trace.push_back(absint::widen_box(entry.tail_boxes[k], radii.radii[k]));
      }
    }
  }

  // ---- Reuse class 2: root-cut pool ---------------------------------
  // Gated on trace reuse + unchanged abstraction: those are exactly the
  // conditions under which the unchanged-prefix big-M blocks reproduce
  // bit-identically (prefix widening radii are zero when the input box
  // is unchanged), which is what the validity argument rests on.
  if (options.recycle_cuts && same_box && plan.trace != TraceReuse::kNone &&
      !entry.root_cuts.empty()) {
    const bool full_identity = plan.tail_identical && entry.query_fingerprint != 0 &&
                               entry.query_fingerprint == delta_query_fingerprint(query);
    if (full_identity) {
      // The whole per-query problem — tail encoding AND the per-query
      // characterizer/abstraction/risk rows (the fingerprint just
      // matched) — reproduces bit-identically, so every harvested cut,
      // including tableau-derived Gomory cuts, is valid verbatim.
      plan.cuts = entry.root_cuts;
    } else {
      // Partial reuse: ReLU-split cuts whose variables were all created
      // before the first changed tail layer. Variables are created in
      // encoding order and each layer's activation variable precedes its
      // phase binaries, so "every index below the changed layer's first
      // activation variable" is exactly "created in the unchanged
      // prefix", and a ReLU-split cut depends on nothing beyond its own
      // big-M block, which reproduces bit-identically there. With an
      // identical tail but a changed query, *every* block reproduces, so
      // every ReLU-split cut survives. Gomory cuts bake in the whole
      // root tableau — per-query rows included — and are dropped
      // whenever anything at all changed.
      std::size_t var_limit = 0;
      if (plan.tail_identical) {
        var_limit = static_cast<std::size_t>(-1);
      } else {
        const std::size_t prefix_index = tail_first_changed - attach;
        if (prefix_index < entry.tail_vars.size() && !entry.tail_vars[prefix_index].empty())
          var_limit = *std::min_element(entry.tail_vars[prefix_index].begin(),
                                        entry.tail_vars[prefix_index].end());
      }
      for (const milp::cuts::Cut& cut : entry.root_cuts) {
        const bool relu_split = std::strcmp(cut.source, "relu-split") == 0;
        const bool prefix_local =
            relu_split && std::all_of(cut.row.terms.begin(), cut.row.terms.end(),
                                      [&](const lp::LinearTerm& term) {
                                        return term.var < var_limit;
                                      });
        if (prefix_local)
          plan.cuts.push_back(cut);
        else
          ++plan.cuts_dropped;
      }
    }
  } else if (!entry.root_cuts.empty()) {
    plan.cuts_dropped = entry.root_cuts.size();
  }

  // ---- Reuse class 3: pseudocost priors -----------------------------
  // Name-keyed, demoted at seed time, order-only: safe whenever the
  // architecture matches.
  if (options.reuse_pseudocosts) plan.pseudocosts = entry.pseudocosts;

  return plan;
}

}  // namespace dpv::verify
