#include "lp/sparse_cholesky.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/thread_annotations.h"
#include "obs/registry.h"

namespace mecsched::lp {
namespace {

// Above this dimension the O(m²)-ish greedy minimum-degree pass stops
// paying for itself in setup time; fall back to the natural order (the
// factorization stays correct, just with more fill).
constexpr std::size_t kMinDegreeMaxDim = 4096;

// Deterministic greedy minimum-degree ordering over a symmetric adjacency
// structure (ties break on the lowest vertex index). Eliminating a vertex
// turns its neighborhood into a clique, exactly mirroring where Cholesky
// fill-in appears.
std::vector<std::size_t> min_degree_order(
    std::size_t m, const std::vector<std::size_t>& m_ptr,
    const std::vector<std::size_t>& m_col) {
  std::vector<std::size_t> perm(m);
  for (std::size_t i = 0; i < m; ++i) perm[i] = i;
  if (m > kMinDegreeMaxDim) return perm;  // natural order beyond the guard

  std::vector<std::vector<std::size_t>> adj(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = m_ptr[i]; p < m_ptr[i + 1]; ++p) {
      if (m_col[p] != i) adj[i].push_back(m_col[p]);
    }
  }
  std::vector<char> alive(m, 1);
  std::vector<std::size_t> scratch;
  for (std::size_t step = 0; step < m; ++step) {
    std::size_t best = m;
    for (std::size_t v = 0; v < m; ++v) {
      if (!alive[v]) continue;
      if (best == m || adj[v].size() < adj[best].size()) best = v;
    }
    perm[step] = best;
    alive[best] = 0;
    // Surviving neighborhood of `best` becomes a clique.
    std::vector<std::size_t> nb;
    nb.reserve(adj[best].size());
    for (const std::size_t u : adj[best]) {
      if (alive[u]) nb.push_back(u);
    }
    for (const std::size_t u : nb) {
      scratch.clear();
      std::set_union(adj[u].begin(), adj[u].end(), nb.begin(), nb.end(),
                     std::back_inserter(scratch));
      adj[u].clear();
      for (const std::size_t w : scratch) {
        if (w != u && alive[w]) adj[u].push_back(w);
      }
    }
    adj[best].clear();
    adj[best].shrink_to_fit();
  }
  return perm;
}

// Row pattern of L row k via the elimination tree: climbs from every entry
// of column k of C toward the root, collecting unvisited vertices. The
// resulting s[top..m) is in the topological order the up-looking numeric
// factorization consumes. `stamp` carries k+1 marks so no reset is needed.
std::size_t ereach(std::size_t k, const std::vector<std::size_t>& c_ptr,
                   const std::vector<std::size_t>& c_row,
                   const std::vector<std::size_t>& parent, std::size_t m,
                   std::vector<std::size_t>& stamp,
                   std::vector<std::size_t>& path,
                   std::vector<std::size_t>& s) {
  std::size_t top = m;
  stamp[k] = k + 1;
  for (std::size_t p = c_ptr[k]; p < c_ptr[k + 1]; ++p) {
    std::size_t i = c_row[p];
    if (i == k) continue;  // diagonal
    std::size_t len = 0;
    while (stamp[i] != k + 1) {
      path[len++] = i;
      stamp[i] = k + 1;
      if (parent[i] == m) break;
      i = parent[i];
      if (stamp[i] == k + 1) break;
    }
    while (len > 0) s[--top] = path[--len];
  }
  return top;
}

}  // namespace

NormalEquationsSymbolic::NormalEquationsSymbolic(const SparseMatrix& a) {
  const auto t0 = std::chrono::steady_clock::now();
  m_ = a.rows();
  fingerprint_ = a.pattern_fingerprint();
  const SparseMatrix at = a.transposed();

  // ---- Pattern of M = A·D·Aᵀ (full symmetric, diagonal always present).
  // Row i touches row j whenever they share a column of A.
  m_ptr_.assign(m_ + 1, 0);
  {
    std::vector<std::size_t> stamp(m_, 0);
    std::vector<std::size_t> cols;
    for (std::size_t i = 0; i < m_; ++i) {
      cols.clear();
      stamp[i] = i + 1;
      cols.push_back(i);
      for (std::size_t p = a.row_ptr()[i]; p < a.row_ptr()[i + 1]; ++p) {
        const std::size_t k = a.col_idx()[p];
        for (std::size_t q = at.row_ptr()[k]; q < at.row_ptr()[k + 1]; ++q) {
          const std::size_t j = at.col_idx()[q];
          if (stamp[j] != i + 1) {
            stamp[j] = i + 1;
            cols.push_back(j);
          }
        }
      }
      std::sort(cols.begin(), cols.end());
      m_ptr_[i + 1] = m_ptr_[i] + cols.size();
      m_col_.insert(m_col_.end(), cols.begin(), cols.end());
    }
  }

  // ---- Fill-reducing ordering and its inverse.
  perm_ = min_degree_order(m_, m_ptr_, m_col_);
  iperm_.assign(m_, 0);
  for (std::size_t k = 0; k < m_; ++k) iperm_[perm_[k]] = k;

  // ---- Upper triangle of the permuted M in CSC, with a map back to the
  // M CSR value positions so the numeric phase is a flat gather.
  c_ptr_.assign(m_ + 1, 0);
  {
    std::vector<std::pair<std::size_t, std::size_t>> column;  // (row, m pos)
    for (std::size_t k = 0; k < m_; ++k) {
      const std::size_t orig = perm_[k];
      column.clear();
      for (std::size_t p = m_ptr_[orig]; p < m_ptr_[orig + 1]; ++p) {
        const std::size_t pk = iperm_[m_col_[p]];
        if (pk <= k) column.emplace_back(pk, p);
      }
      std::sort(column.begin(), column.end());
      c_ptr_[k + 1] = c_ptr_[k] + column.size();
      for (const auto& [row, pos] : column) {
        c_row_.push_back(row);
        c_from_m_.push_back(pos);
      }
    }
  }

  // ---- Elimination tree of C (m_ == "no parent").
  parent_.assign(m_, m_);
  {
    std::vector<std::size_t> ancestor(m_, m_);
    for (std::size_t k = 0; k < m_; ++k) {
      for (std::size_t p = c_ptr_[k]; p < c_ptr_[k + 1]; ++p) {
        std::size_t i = c_row_[p];
        while (i != m_ && i < k) {
          const std::size_t next = ancestor[i];
          ancestor[i] = k;
          if (next == m_) parent_[i] = k;
          i = next;
        }
      }
    }
  }

  // ---- Column counts of L (symbolic ereach sweep), then l_ptr_.
  std::vector<std::size_t> counts(m_, 1);  // every column has its diagonal
  {
    std::vector<std::size_t> stamp(m_, 0), path(m_), s(m_);
    for (std::size_t k = 0; k < m_; ++k) {
      const std::size_t top = ereach(k, c_ptr_, c_row_, parent_, m_, stamp,
                                     path, s);
      for (std::size_t t = top; t < m_; ++t) ++counts[s[t]];
    }
  }
  l_ptr_.assign(m_ + 1, 0);
  for (std::size_t k = 0; k < m_; ++k) l_ptr_[k + 1] = l_ptr_[k] + counts[k];

  analysis_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

double NormalEquationsSymbolic::fill_ratio() const {
  // Upper(M) and L have the same shape class; compare their entry counts.
  const std::size_t upper = c_row_.size();
  if (upper == 0) return 1.0;
  return static_cast<double>(factor_nnz()) / static_cast<double>(upper);
}

// ---------------------------------------------------------------------------

struct SymbolicFactorCache::Impl {
  using Entry =
      std::pair<std::uint64_t, std::shared_ptr<const NormalEquationsSymbolic>>;
  mutable Mutex mu;
  std::size_t capacity MECSCHED_GUARDED_BY(mu);
  std::list<Entry> lru MECSCHED_GUARDED_BY(mu);  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index
      MECSCHED_GUARDED_BY(mu);
};

SymbolicFactorCache& SymbolicFactorCache::global() {
  static SymbolicFactorCache cache;
  return cache;
}

SymbolicFactorCache::SymbolicFactorCache(std::size_t capacity)
    : impl_(std::make_shared<Impl>()) {
  // The Impl was just created and is not shared yet, but taking the (free)
  // lock keeps the guarded write visible to the thread-safety analysis.
  const MutexLock lock(impl_->mu);
  impl_->capacity = capacity == 0 ? 1 : capacity;
}

std::shared_ptr<const NormalEquationsSymbolic> SymbolicFactorCache::analyze(
    const SparseMatrix& a) {
  const std::uint64_t key = a.pattern_fingerprint();
  obs::Registry& reg = obs::Registry::global();
  {
    const MutexLock lock(impl_->mu);
    const auto it = impl_->index.find(key);
    if (it != impl_->index.end()) {
      impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
      reg.counter("lp.sparse.pattern_cache_hits").add();
      return it->second->second;
    }
  }
  reg.counter("lp.sparse.pattern_cache_misses").add();
  // Analyze outside the lock: a concurrent duplicate analysis is rare and
  // harmless (both produce identical immutable objects), while holding the
  // lock would serialize every sweep worker behind one ordering pass.
  auto computed = std::make_shared<const NormalEquationsSymbolic>(a);
  reg.gauge("lp.sparse.last_ordering_seconds").set(computed->analysis_seconds());

  const MutexLock lock(impl_->mu);
  const auto it = impl_->index.find(key);
  if (it != impl_->index.end()) return it->second->second;  // lost the race
  impl_->lru.emplace_front(key, computed);
  impl_->index.emplace(key, impl_->lru.begin());
  while (impl_->lru.size() > impl_->capacity) {
    impl_->index.erase(impl_->lru.back().first);
    impl_->lru.pop_back();
    reg.counter("lp.sparse.pattern_cache_evictions").add();
  }
  return computed;
}

std::size_t SymbolicFactorCache::size() const {
  const MutexLock lock(impl_->mu);
  return impl_->lru.size();
}

void SymbolicFactorCache::clear() {
  const MutexLock lock(impl_->mu);
  impl_->lru.clear();
  impl_->index.clear();
}

// ---------------------------------------------------------------------------

NormalCholesky::NormalCholesky(
    const SparseMatrix& a, const SparseMatrix& at, const std::vector<double>& d,
    std::shared_ptr<const NormalEquationsSymbolic> symbolic)
    : sym_(std::move(symbolic)) {
  MECSCHED_REQUIRE(sym_ != nullptr && sym_->dim() == a.rows(),
                   "sparse Cholesky: symbolic analysis does not match A");
  MECSCHED_REQUIRE(at.rows() == a.cols() && at.cols() == a.rows(),
                   "sparse Cholesky: at must be a.transposed()");
  MECSCHED_REQUIRE(d.size() == a.cols(),
                   "sparse Cholesky: diagonal size mismatch");
  const std::size_t m = sym_->m_;

  // ---- Assemble the values of M = A·diag(d)·Aᵀ on the symbolic pattern.
  // Row-at-a-time scatter into a dense workspace; the gather visits only
  // the pattern positions, so the workspace reset is targeted.
  std::vector<double> mx(sym_->m_col_.size(), 0.0);
  double max_abs = 0.0;
  {
    std::vector<double> w(m, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t p = a.row_ptr()[i]; p < a.row_ptr()[i + 1]; ++p) {
        const std::size_t k = a.col_idx()[p];
        const double coef = a.values()[p] * d[k];
        for (std::size_t q = at.row_ptr()[k]; q < at.row_ptr()[k + 1]; ++q) {
          w[at.col_idx()[q]] += coef * at.values()[q];
        }
      }
      for (std::size_t p = sym_->m_ptr_[i]; p < sym_->m_ptr_[i + 1]; ++p) {
        const std::size_t j = sym_->m_col_[p];
        mx[p] = w[j];
        w[j] = 0.0;
        max_abs = std::max(max_abs, std::fabs(mx[p]));
      }
    }
  }
  const double scale = std::max(max_abs, 1.0);
  const double floor = 1e-12 * scale;

  // ---- Values of the permuted upper triangle (flat gather).
  std::vector<double> cx(sym_->c_row_.size());
  for (std::size_t p = 0; p < cx.size(); ++p) cx[p] = mx[sym_->c_from_m_[p]];

  // ---- Up-looking numeric factorization over the symbolic structure.
  // Each column of L stores its diagonal first (written when its own row
  // is processed), then rows in ascending elimination order.
  const std::vector<std::size_t>& l_ptr = sym_->l_ptr_;
  l_row_.assign(l_ptr[m], 0);
  l_val_.assign(l_ptr[m], 0.0);
  std::vector<std::size_t> next(l_ptr.begin(), l_ptr.end() - 1);
  std::vector<std::size_t> stamp(m, 0), path(m), s(m);
  std::vector<double> x(m, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t top =
        ereach(k, sym_->c_ptr_, sym_->c_row_, sym_->parent_, m, stamp, path, s);
    // Scatter column k of C (the permuted row k of M, upper part).
    double diag = 0.0;
    for (std::size_t p = sym_->c_ptr_[k]; p < sym_->c_ptr_[k + 1]; ++p) {
      if (sym_->c_row_[p] == k) {
        diag = cx[p];
      } else {
        x[sym_->c_row_[p]] = cx[p];
      }
    }
    for (std::size_t t = top; t < m; ++t) {
      const std::size_t i = s[t];
      const double lki = x[i] / l_val_[l_ptr[i]];
      x[i] = 0.0;
      for (std::size_t p = l_ptr[i] + 1; p < next[i]; ++p) {
        x[l_row_[p]] -= l_val_[p] * lki;
      }
      diag -= lki * lki;
      l_row_[next[i]] = k;
      l_val_[next[i]] = lki;
      ++next[i];
    }
    if (diag < floor) {
      // Same contract as the dense Cholesky: IPM systems drift to
      // semidefinite near the central-path boundary, never strongly
      // indefinite — a large negative pivot is a modelling bug.
      if (diag < -1e-6 * scale) {
        throw SolverError("sparse Cholesky: matrix is indefinite");
      }
      diag = floor;
    }
    l_row_[next[k]] = k;
    l_val_[next[k]] = std::sqrt(diag);
    ++next[k];
  }
}

std::vector<double> NormalCholesky::solve(const std::vector<double>& b) const {
  const std::size_t m = sym_->m_;
  MECSCHED_REQUIRE(b.size() == m, "sparse Cholesky solve size mismatch");
  const std::vector<std::size_t>& l_ptr = sym_->l_ptr_;

  // Permute, forward solve L y = Pb (CSC column sweep), back solve
  // Lᵀ z = y (CSC column dot), un-permute.
  std::vector<double> y(m);
  for (std::size_t k = 0; k < m; ++k) y[k] = b[sym_->perm_[k]];
  for (std::size_t k = 0; k < m; ++k) {
    const double yk = y[k] / l_val_[l_ptr[k]];
    y[k] = yk;
    for (std::size_t p = l_ptr[k] + 1; p < l_ptr[k + 1]; ++p) {
      y[l_row_[p]] -= l_val_[p] * yk;
    }
  }
  for (std::size_t kk = m; kk-- > 0;) {
    double acc = y[kk];
    for (std::size_t p = l_ptr[kk] + 1; p < l_ptr[kk + 1]; ++p) {
      acc -= l_val_[p] * y[l_row_[p]];
    }
    y[kk] = acc / l_val_[l_ptr[kk]];
  }
  std::vector<double> out(m);
  for (std::size_t k = 0; k < m; ++k) out[sym_->perm_[k]] = y[k];
  return out;
}

}  // namespace mecsched::lp
