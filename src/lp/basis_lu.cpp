#include "lp/basis_lu.hpp"

#include <algorithm>
#include <cmath>

#include "common/simd.hpp"

namespace dpv::lp {

namespace {

/// Absolute floor under which a pivot element is never trusted.
constexpr double kAbsPivotTol = 1e-11;
/// Threshold (relative to the column max) for Markowitz pivot stability.
constexpr double kRelPivotTol = 0.01;
/// Update pivots (the FT spike diagonal) below this force a
/// refactorization instead of an update.
constexpr double kEtaPivotTol = 1e-10;
/// Entries below this are dropped from update columns/rows.
constexpr double kEtaDropTol = 1e-12;

/// Adaptive update cadence: small bases refactorize eagerly (the LU is
/// nearly free and short files keep solves tight); large bases amortize
/// the O(nnz) refactorization over proportionally more updates. The
/// historical fixed cap was 64 regardless of dimension. Forrest–Tomlin
/// keeps U genuinely triangular — its per-update solve tax is a short
/// row-eta, not a densifying eta column — so runs can be long (the
/// nonzero-growth trigger still guards pathological fill).
std::size_t cadence_for_dimension(std::size_t m) {
  return std::clamp<std::size_t>(m, 64, 512);
}

}  // namespace

bool BasisLu::factorize(const CscMatrix& A, std::size_t n,
                        const std::vector<std::int32_t>& basic) {
  m_ = basic.size();
  valid_ = false;
  lrow_.assign(m_, 0);
  // Keep inner-vector capacities alive across factorizations: the
  // engine refactorizes thousands of times per verification query and
  // the allocation churn of rebuilding these from scratch shows up
  // directly in the profile.
  lcols_.resize(m_);
  for (SparseVec& c : lcols_) c.clear();
  prow_.assign(m_, 0);
  pcol_.assign(m_, 0);
  urows_.resize(m_);
  for (SparseVec& r : urows_) r.clear();
  udiag_.assign(m_, 0.0);
  step_of_col_.assign(m_, 0);
  lu_nonzeros_ = 0;
  ft_etas_.clear();
  eta_file_nonzeros_ = 0;
  updates_since_factor_ = 0;
  u_fill_ = 0;
  spike_cache_valid_ = false;
  cadence_ = cadence_for_dimension(m_);
  if (m_ == 0) {
    valid_ = true;
    return true;
  }

  // Active submatrix: columns hold the live entries, rows keep a
  // (possibly stale, deduplicated on use) pattern of touching columns.
  // All persistent scratch, same churn argument as above.
  fac_colv_.resize(m_);
  for (auto& c : fac_colv_) c.clear();
  fac_rowpat_.resize(m_);
  for (auto& r : fac_rowpat_) r.clear();
  auto& colv = fac_colv_;
  auto& rowpat = fac_rowpat_;
  fac_rowcount_.assign(m_, 0);
  fac_colcount_.assign(m_, 0);
  fac_rowactive_.assign(m_, 1);
  fac_colactive_.assign(m_, 1);
  auto& rowcount = fac_rowcount_;
  auto& colcount = fac_colcount_;
  auto& rowactive = fac_rowactive_;
  auto& colactive = fac_colactive_;

  for (std::size_t k = 0; k < m_; ++k) {
    const std::size_t j = static_cast<std::size_t>(basic[k]);
    if (j >= n) {
      const std::size_t i = j - n;
      if (i >= m_) return false;
      colv[k].emplace_back(i, -1.0);
    } else {
      if (j >= A.cols) return false;
      for (std::size_t e = A.col_start[j]; e < A.col_start[j + 1]; ++e) {
        if (A.row_index[e] >= m_) return false;
        colv[k].emplace_back(A.row_index[e], A.value[e]);
      }
    }
    if (colv[k].empty()) return false;  // structurally singular column
    // Merge duplicate rows defensively (the simplex's CSC is already
    // merged; hand-built matrices may not be) — the elimination assumes
    // one entry per (row, column).
    std::sort(colv[k].begin(), colv[k].end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t out = 0;
    for (std::size_t e = 0; e < colv[k].size(); ++e) {
      if (out > 0 && colv[k][out - 1].first == colv[k][e].first)
        colv[k][out - 1].second += colv[k][e].second;
      else
        colv[k][out++] = colv[k][e];
    }
    colv[k].resize(out);
    colcount[k] = colv[k].size();
    for (const auto& [i, v] : colv[k]) {
      (void)v;
      rowpat[i].push_back(k);
      ++rowcount[i];
    }
  }
  for (std::size_t i = 0; i < m_; ++i)
    if (rowcount[i] == 0) return false;  // structurally singular row

  // Singleton queues: columns/rows that can be pivoted with zero fill.
  fac_colsing_.clear();
  fac_rowsing_.clear();
  auto& col_singletons = fac_colsing_;
  auto& row_singletons = fac_rowsing_;
  for (std::size_t k = 0; k < m_; ++k)
    if (colcount[k] == 1) col_singletons.push_back(k);
  for (std::size_t i = 0; i < m_; ++i)
    if (rowcount[i] == 1) row_singletons.push_back(i);

  // Scratch for scatter updates and per-step rowpat dedup.
  fac_pos_.assign(m_, 0);
  fac_stamp_.assign(m_, 0);
  auto& pos = fac_pos_;
  auto& stamp = fac_stamp_;
  std::size_t stamp_clock = 0;

  const auto note_col = [&](std::size_t c) {
    if (colactive[c] && colcount[c] == 1) col_singletons.push_back(c);
  };
  const auto note_row = [&](std::size_t i) {
    if (rowactive[i] && rowcount[i] == 1) row_singletons.push_back(i);
  };

  // One elimination step with pivot at (row ip, basis position jp).
  const auto do_pivot = [&](std::size_t t, std::size_t ip, std::size_t jp) {
    lrow_[t] = ip;
    prow_[t] = ip;
    pcol_[t] = jp;
    step_of_col_[jp] = static_cast<std::int32_t>(t);
    double pv = 0.0;
    for (const auto& [i, v] : colv[jp])
      if (i == ip) pv = v;
    udiag_[t] = pv;

    // L: the other rows of the pivot column, scaled. The column leaves
    // the active submatrix with them.
    auto& lcol = lcols_[t];
    for (const auto& [i, v] : colv[jp]) {
      if (i == ip) continue;
      lcol.push(i, v / pv);
      --rowcount[i];
      note_row(i);
    }
    colactive[jp] = 0;
    colv[jp].clear();

    // U: the pivot row's remaining entries — extracted, removed, and
    // (when L is non-trivial) eliminated into their columns.
    ++stamp_clock;
    auto& urow = urows_[t];
    for (const std::size_t c : rowpat[ip]) {
      if (!colactive[c] || stamp[c] == stamp_clock) continue;
      stamp[c] = stamp_clock;
      auto& col = colv[c];
      double u = 0.0;
      std::size_t at = col.size();
      for (std::size_t e = 0; e < col.size(); ++e) {
        if (col[e].first == ip) {
          u = col[e].second;
          at = e;
          break;
        }
      }
      if (at == col.size()) continue;  // stale pattern entry
      urow.push(c, u);
      col[at] = col.back();
      col.pop_back();
      --colcount[c];
      if (!lcol.empty() && u != 0.0) {
        for (std::size_t e = 0; e < col.size(); ++e) pos[col[e].first] = e + 1;
        for (std::size_t e = 0; e < lcol.size(); ++e) {
          const std::size_t i = static_cast<std::size_t>(lcol.idx[e]);
          const double delta = -lcol.val[e] * u;
          if (pos[i] != 0) {
            col[pos[i] - 1].second += delta;
          } else {
            col.emplace_back(i, delta);
            pos[i] = col.size();
            rowpat[i].push_back(c);
            ++rowcount[i];
            ++colcount[c];
          }
        }
        for (std::size_t e = 0; e < col.size(); ++e) pos[col[e].first] = 0;
      }
      note_col(c);
    }
    rowactive[ip] = 0;
    rowpat[ip].clear();
    lu_nonzeros_ += lcol.size() + urow.size() + 1;
  };

  for (std::size_t t = 0; t < m_; ++t) {
    std::size_t ip = m_, jp = m_;
    // Free pivots first: column singletons, then row singletons — the
    // triangularization that handles the (dominant) logical part of
    // verification bases in O(nnz).
    while (!col_singletons.empty() && jp == m_) {
      const std::size_t k = col_singletons.back();
      col_singletons.pop_back();
      if (!colactive[k] || colcount[k] != 1) continue;
      if (std::abs(colv[k].front().second) < kAbsPivotTol) continue;  // bump decides
      ip = colv[k].front().first;
      jp = k;
    }
    while (!row_singletons.empty() && jp == m_) {
      const std::size_t i = row_singletons.back();
      row_singletons.pop_back();
      if (!rowactive[i] || rowcount[i] != 1) continue;
      for (const std::size_t c : rowpat[i]) {
        if (!colactive[c]) continue;
        for (const auto& [r, v] : colv[c]) {
          if (r != i) continue;
          if (std::abs(v) >= kAbsPivotTol) {
            ip = i;
            jp = c;
          }
          break;
        }
        if (jp != m_) break;
      }
    }
    if (jp == m_) {
      // Markowitz bump search: minimize (r-1)(c-1) over stability-
      // acceptable entries of the remaining active submatrix.
      std::size_t best_cost = static_cast<std::size_t>(-1);
      double best_abs = 0.0;
      for (std::size_t k = 0; k < m_; ++k) {
        if (!colactive[k]) continue;
        double colmax = 0.0;
        for (const auto& [i, v] : colv[k]) colmax = std::max(colmax, std::abs(v));
        const double accept = std::max(kAbsPivotTol, kRelPivotTol * colmax);
        for (const auto& [i, v] : colv[k]) {
          const double a = std::abs(v);
          if (a < accept) continue;
          const std::size_t cost = (rowcount[i] - 1) * (colcount[k] - 1);
          if (cost < best_cost || (cost == best_cost && a > best_abs)) {
            best_cost = cost;
            best_abs = a;
            ip = i;
            jp = k;
          }
        }
        if (best_cost == 0) break;
      }
      if (jp == m_) return false;  // numerically singular
    }
    do_pivot(t, ip, jp);
  }

  valid_ = true;
  return true;
}

void BasisLu::ftran(std::vector<double>& x) const {
  // L row operations in factorization order (immutable under updates).
  for (std::size_t t = 0; t < m_; ++t) {
    const double xp = x[lrow_[t]];
    if (xp == 0.0) continue;
    const SparseVec& lcol = lcols_[t];
    simd::sparse_scatter_axpy(lcol.idx.data(), lcol.val.data(), xp, x.data(),
                              lcol.size());
  }
  // Forrest–Tomlin row-etas, oldest first, between L and U: each one
  // replays the row elimination that re-triangularized U after a spike.
  for (const FtEta& ft : ft_etas_) {
    x[ft.target] -= simd::sparse_gather_dot(ft.entries.idx.data(),
                                            ft.entries.val.data(), x.data(),
                                            ft.entries.size());
  }
  // Stash the pre-back-substitution vector: it equals U·(final result)
  // in row space, which is exactly the spike a Forrest–Tomlin update of
  // this column would otherwise recompute with a full pass over U.
  spike_cache_.assign(x.begin(), x.end());
  spike_cache_valid_ = true;
  // Back substitution through U into basis-position space.
  solve_scratch_.assign(m_, 0.0);
  std::vector<double>& out = solve_scratch_;
  for (std::size_t t = m_; t-- > 0;) {
    const SparseVec& urow = urows_[t];
    double v = x[prow_[t]];
    v -= simd::sparse_gather_dot(urow.idx.data(), urow.val.data(), out.data(),
                                 urow.size());
    out[pcol_[t]] = v / udiag_[t];
  }
  x.swap(solve_scratch_);
}

void BasisLu::btran(std::vector<double>& x) const {
  // Forward solve through Uᵀ (column-oriented scatter), result lands in
  // constraint-row space.
  solve_scratch_.assign(m_, 0.0);
  std::vector<double>& out = solve_scratch_;
  for (std::size_t t = 0; t < m_; ++t) {
    const double xv = x[pcol_[t]];
    if (xv == 0.0) continue;  // out is pre-zeroed; skip the division too
    const double v = xv / udiag_[t];
    out[prow_[t]] = v;
    const SparseVec& urow = urows_[t];
    simd::sparse_scatter_axpy(urow.idx.data(), urow.val.data(), v, x.data(),
                              urow.size());
  }
  // Forrest–Tomlin row-eta transposes, newest first.
  for (std::size_t e = ft_etas_.size(); e-- > 0;) {
    const FtEta& ft = ft_etas_[e];
    const double xt = out[ft.target];
    if (xt == 0.0) continue;
    simd::sparse_scatter_axpy(ft.entries.idx.data(), ft.entries.val.data(), xt,
                              out.data(), ft.entries.size());
  }
  // Lᵀ gathers in reverse factorization order.
  for (std::size_t t = m_; t-- > 0;) {
    const SparseVec& lcol = lcols_[t];
    if (lcol.empty()) continue;
    out[lrow_[t]] -= simd::sparse_gather_dot(lcol.idx.data(), lcol.val.data(),
                                             out.data(), lcol.size());
  }
  x.swap(solve_scratch_);
}

bool BasisLu::update(std::size_t r, const std::vector<double>& w) {
  if (!valid_ || r >= m_) return false;
  // Non-finite entries in the FTRAN'd column mean the factors (or the
  // input data) have degraded past repair-by-update: refuse before any
  // state is mutated so the caller refactorizes from clean data. NaN in
  // particular would sail through the magnitude tests below (every
  // comparison on it is false) and poison U permanently.
  for (const double v : w)
    if (!std::isfinite(v)) return false;

  // Forrest–Tomlin: replacing the column at basis position r turns U's
  // column r into the spike v = U w (w is already B^{-1} a_q, so v costs
  // one pass over U — no second L solve). The spiked row is moved to the
  // back of the pivot sequence and re-eliminated against the rows below
  // it; the multipliers become one FtEta. Everything here is
  // O(nnz(U) + m).
  const std::size_t tr = static_cast<std::size_t>(step_of_col_[r]);

  // Spike v in step space: v_t = udiag_[t]·w[pcol_[t]] + Σ u·w[col].
  // The spiked step's entry is computed directly either way — it doubles
  // as the validation probe for the FTRAN spike cache: when the cache
  // matches it (the dominant case — update() always follows the FTRAN
  // that produced w), the remaining entries are an O(m) copy instead of
  // a full gather pass over U.
  const SparseVec& urow_tr = urows_[tr];
  const double vtr =
      udiag_[tr] * w[pcol_[tr]] +
      simd::sparse_gather_dot(urow_tr.idx.data(), urow_tr.val.data(), w.data(),
                              urow_tr.size());
  vstep_.assign(m_, 0.0);
  const bool cache_hit =
      spike_cache_valid_ && spike_cache_.size() == m_ &&
      std::abs(spike_cache_[prow_[tr]] - vtr) <= 1e-9 + 1e-7 * std::abs(vtr);
  spike_cache_valid_ = false;  // consumed (or stale) either way
  if (cache_hit) {
    for (std::size_t t = 0; t < m_; ++t) {
      const double v = spike_cache_[prow_[t]];
      if (std::abs(v) > kEtaDropTol) vstep_[t] = v;
    }
  } else {
    for (std::size_t t = 0; t < m_; ++t) {
      const SparseVec& urow = urows_[t];
      double v = udiag_[t] * w[pcol_[t]];
      v += simd::sparse_gather_dot(urow.idx.data(), urow.val.data(), w.data(),
                                   urow.size());
      if (std::abs(v) > kEtaDropTol) vstep_[t] = v;
    }
  }
  vstep_[tr] = std::abs(vtr) > kEtaDropTol ? vtr : 0.0;

  // Row-spike elimination (scratch only; commit happens after the new
  // diagonal passes the stability check). The spike row is old row tr:
  // its surviving entries urows_[tr] plus the new column-r entry v_tr.
  // Eliminating its entry at column pcol_[t] (t > tr) folds in row t's
  // entries AND row t's column-r spike value v_t.
  spike_vals_.assign(m_, 0.0);
  const SparseVec& spike_row = urows_[tr];
  for (std::size_t k = 0; k < spike_row.size(); ++k)
    spike_vals_[static_cast<std::size_t>(spike_row.idx[k])] = spike_row.val[k];
  spike_vals_[r] = vstep_[tr];

  FtEta ft;
  ft.target = prow_[tr];
  for (std::size_t t = tr + 1; t < m_; ++t) {
    const double z = spike_vals_[pcol_[t]];
    if (z == 0.0) continue;
    spike_vals_[pcol_[t]] = 0.0;
    if (std::abs(z) <= kEtaDropTol) continue;
    const double mu = z / udiag_[t];
    const SparseVec& urow = urows_[t];
    simd::sparse_scatter_axpy(urow.idx.data(), urow.val.data(), mu,
                              spike_vals_.data(), urow.size());
    spike_vals_[r] -= mu * vstep_[t];
    ft.entries.push(prow_[t], mu);
  }
  // The new diagonal folds in existing U entries, so it can go non-finite
  // even when w itself was clean (NaN would sail through the magnitude
  // test — every comparison on it is false).
  const double d = spike_vals_[r];
  if (!std::isfinite(d) || std::abs(d) < kEtaPivotTol)
    return false;  // caller refactorizes

  // ---- commit ----
  // Old column-r entries live in rows with step < tr (U is triangular in
  // the current sequence); delete them, then write the spike column.
  for (std::size_t s = 0; s < tr; ++s) {
    SparseVec& urow = urows_[s];
    for (std::size_t k = 0; k < urow.size(); ++k) {
      if (static_cast<std::size_t>(urow.idx[k]) == r) {
        urow.idx[k] = urow.idx.back();
        urow.val[k] = urow.val.back();
        urow.idx.pop_back();
        urow.val.pop_back();
        break;
      }
    }
  }
  std::size_t added = 0;
  for (std::size_t t = 0; t < m_; ++t) {
    if (t == tr || std::abs(vstep_[t]) <= kEtaDropTol) continue;
    urows_[t].push(r, vstep_[t]);
    ++added;
  }
  u_fill_ += added;

  // Rotate step tr to the back of the sequence; its row keeps its
  // constraint row id but now pivots column r on the new diagonal d
  // with an empty tail (everything right of it was just eliminated).
  const std::size_t row_id = prow_[tr];
  prow_.erase(prow_.begin() + static_cast<std::ptrdiff_t>(tr));
  pcol_.erase(pcol_.begin() + static_cast<std::ptrdiff_t>(tr));
  udiag_.erase(udiag_.begin() + static_cast<std::ptrdiff_t>(tr));
  urows_.erase(urows_.begin() + static_cast<std::ptrdiff_t>(tr));
  prow_.push_back(row_id);
  pcol_.push_back(r);
  udiag_.push_back(d);
  urows_.emplace_back();
  for (std::size_t t = tr; t < m_; ++t)
    step_of_col_[pcol_[t]] = static_cast<std::int32_t>(t);

  eta_file_nonzeros_ += ft.entries.size() + added + 1;
  ft_etas_.push_back(std::move(ft));
  ++updates_since_factor_;
  return true;
}

bool BasisLu::should_refactorize() const {
  if (updates_since_factor_ >= cadence_) return true;
  // Every update taxes every later solve (spike fill plus row-etas);
  // once the accumulated update
  // nonzeros outweigh the LU factors several times over, refactorizing
  // is the cheaper steady state.
  return eta_file_nonzeros_ + u_fill_ > 4 * (lu_nonzeros_ + m_);
}

}  // namespace dpv::lp
