// The batched probe kernel bodies, compiled once per instruction set.
//
// This header is included by exactly one translation unit per ISA —
// batch_probe.cpp (the build's baseline flags) and batch_probe_avx2.cpp
// (-mavx2) — each defining MCS_BATCH_PROBE_ISA to a distinct namespace
// name, so the instantiations never collide.  lane_ops.hpp picks the widest
// backend the including TU's flags allow; batch_probe.cpp's dispatcher
// chooses between the resulting KernelTables at runtime.
//
// Loop labeling convention (checked by tools/check_vectorization.sh):
//   * "lane loop: <name>"  — plain ternary-select loop the auto-vectorizer
//     must vectorize at -O3;
//   * "simd loop: <name>"  — explicitly vectorized via lane_ops.hpp packs
//     (with a ScalarOps remainder tail, bit-identical by the lane-ops
//     contract); the script verifies these by inspecting the generated
//     machine code, not the vectorizer report.
//
// Bit-identity: see the contract in batch_probe.hpp.  The scalar reference
// for every loop is the historical code in improved_test/core_utilization;
// each ScalarOps tail below is the lane-ops spelling of exactly that code.
#ifndef MCS_BATCH_PROBE_ISA
#error "batch_probe_impl.hpp requires MCS_BATCH_PROBE_ISA to be defined"
#endif

#include <algorithm>
#include <limits>

#include "mcs/analysis/batch_probe.hpp"
#include "mcs/analysis/lane_ops.hpp"

namespace mcs::analysis::batch_kernel::MCS_BATCH_PROBE_ISA {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Materializes one hypothetical task row into `hrow` (K x M, lane-major):
/// hrow(k) = plane(l_t, k) + u_t(k) for k = 1..l_t — the same single
/// addition UtilMatrix::add performs on the scalar scratch copy.
void materialize_task_row(const LevelUtilPlanes& planes, const McTask& task,
                          double* __restrict hrow) {
  const Level jt = task.level();
  const std::size_t M = planes.num_cores();
  for (Level k = 1; k <= jt; ++k) {
    const double tu = task.utilization(k);
    const double* __restrict src = planes.plane(jt, k);
    double* __restrict dst = hrow + static_cast<std::size_t>(k - 1) * M;
    for (std::size_t m = 0; m < M; ++m) {  // lane loop: hrow
      dst[m] = src[m] + tu;
    }
  }
}

/// Materializes the hypothetical rows of a whole tile, level-by-level: each
/// committed plane row plane(l, k) is loaded once per tile and feeds every
/// tile slot whose task lives at level l, instead of being re-walked per
/// task.  Slot i's rows land at hrow + i * K * M (lane-major K x M), and
/// each row is bitwise the one materialize_task_row would produce.
void materialize_tile(const LevelUtilPlanes& planes, const TaskSet& ts,
                      const std::size_t* tasks, std::size_t tile,
                      double* __restrict hrow) {
  const Level K = planes.num_levels();
  const std::size_t M = planes.num_cores();
  const std::size_t row_stride = static_cast<std::size_t>(K) * M;
  for (Level l = 1; l <= K; ++l) {
    for (Level k = 1; k <= l; ++k) {
      const double* __restrict src = planes.plane(l, k);
      for (std::size_t i = 0; i < tile; ++i) {
        const McTask& task = ts[tasks[i]];
        if (task.level() != l) continue;
        const double tu = task.utilization(k);
        double* __restrict dst =
            hrow + i * row_stride + static_cast<std::size_t>(k - 1) * M;
        for (std::size_t m = 0; m < M; ++m) {  // lane loop: hrow tile
          dst[m] = src[m] + tu;
        }
      }
    }
  }
}

/// Per-call tables over the *committed* planes, shared by every task of one
/// 2-D call.  Each table stores the running value of a per-task accumulation
/// loop after each step, computed with the identical operation order, so a
/// task at level l_t reuses the partial sums its hypothetical row does not
/// perturb and recomputes only the remainder:
///
///   * pre_j(x)   = sum_{y=j..x} plane(y, j-1), ascending (lambda numerator
///     partials; pre_j(j-1) is the zero row the per-task loop starts from);
///     a task with l_t < j never perturbs the sum, so num = pre_j(K) whole.
///   * suffix(k)  = sum_{x=k..K-1} plane(x, x), descending (theta partials;
///     suffix(K) is the zero seed), and theta(k) = suffix(k) + min_term for
///     the committed min term — rows k > l_t are reused as-is.
///   * min_term   — committed; reused whole by every task with l_t < K.
class BaseTables {
 public:
  BaseTables(const LevelUtilPlanes& planes, BatchProbeScratch& s)
      : s_(&s), K_(planes.num_levels()), M_(planes.num_cores()) {}

  [[nodiscard]] const double* pre(Level j, Level x) const {
    return s_->base_num.data() +
           (static_cast<std::size_t>(j) * (K_ + std::size_t{1}) + x) * M_;
  }
  [[nodiscard]] const double* suffix(Level k) const {
    return s_->base_suffix.data() + static_cast<std::size_t>(k) * M_;
  }
  [[nodiscard]] const double* theta(Level k) const {
    return s_->base_theta.data() + static_cast<std::size_t>(k - 1) * M_;
  }
  [[nodiscard]] const double* min_term() const {
    return s_->base_min_term.data();
  }

  /// Fills the lambda-numerator, min-term and theta tables (K >= 2).
  void build_improved(const LevelUtilPlanes& planes) {
    const Level K = static_cast<Level>(K_);
    for (Level j = 2; j + 1 <= K; ++j) {
      double* __restrict seed = s_->base_num.data() +
                                (static_cast<std::size_t>(j) * (K_ + 1) +
                                 (j - std::size_t{1})) *
                                    M_;
      std::fill(seed, seed + M_, 0.0);
      for (Level x = j; x <= K; ++x) {
        const double* __restrict r = planes.plane(x, j - 1);
        const double* __restrict prev =
            s_->base_num.data() +
            (static_cast<std::size_t>(j) * (K_ + 1) + (x - std::size_t{1})) *
                M_;
        double* __restrict cur =
            s_->base_num.data() +
            (static_cast<std::size_t>(j) * (K_ + 1) + x) * M_;
        for (std::size_t m = 0; m < M_; ++m) {  // lane loop: base numerator
          cur[m] = prev[m] + r[m];
        }
      }
    }

    const double* __restrict rkk = planes.plane(K, K);
    const double* __restrict rkprev = planes.plane(K, K - 1);
    double* __restrict mint = s_->base_min_term.data();
    for (std::size_t m = 0; m < M_; ++m) {  // lane loop: base min term
      const double ukk = rkk[m];
      const double div = rkprev[m] / (1.0 - ukk);
      const double second = ukk < 1.0 ? div : kInf;
      mint[m] = ukk <= second ? ukk : second;
    }

    double* __restrict sfx = s_->base_suffix.data();
    std::fill(sfx + (K_ * M_), sfx + (K_ + 1) * M_, 0.0);  // suffix(K) seed
    for (Level k = K - 1; k >= 1; --k) {
      const double* __restrict diag = planes.plane(k, k);
      const double* __restrict prev =
          sfx + (static_cast<std::size_t>(k) + 1) * M_;
      double* __restrict cur = sfx + static_cast<std::size_t>(k) * M_;
      double* __restrict th =
          s_->base_theta.data() + (k - std::size_t{1}) * M_;
      for (std::size_t m = 0; m < M_; ++m) {  // lane loop: base theta
        cur[m] = prev[m] + diag[m];
        th[m] = cur[m] + mint[m];
      }
      if (k == 1) break;  // Level is unsigned
    }
  }

 private:
  BatchProbeScratch* s_;
  std::size_t K_;
  std::size_t M_;
};

/// Minimum 2-D call width for which building the per-call BaseTables
/// (O(K^2 M), roughly one task's full pass) pays for itself.
constexpr std::size_t kShareMinTasks = 4;

/// Row selector with the task-row substitution hoisted out of the lane
/// loops: rows of the task's own level l_t read the hypothetical row block,
/// every other row reads the committed plane.
class RowView {
 public:
  RowView(const LevelUtilPlanes& planes, const double* hrow, Level jt)
      : planes_(&planes), hrow_(hrow), jt_(jt) {}

  [[nodiscard]] const double* operator()(Level j, Level k) const {
    if (j == jt_) {
      return hrow_ + static_cast<std::size_t>(k - 1) * planes_->num_cores();
    }
    return planes_->plane(j, k);
  }

 private:
  const LevelUtilPlanes* planes_;
  const double* hrow_;
  Level jt_;
};

/// One lane-ops pack of the lambda-validity update at lane offset m.
/// Scalar reference (per lane):
///   denom = prod[m] - diag[m]; lam = num[m] / denom;
///   ok = valid[m] == j-1 && denom > 0 && lam >= 0 && lam < 1;
///   lamj[m]  = ok ? lam : 0.0;
///   valid[m] = ok ? j : valid[m];
///   prod[m]  = ok ? prod[m] * (1 - lam) : prod[m];
/// Dead lanes (valid != j-1) may divide to IEEE inf/NaN; every select below
/// is an exact bitwise blend, so those bits are discarded unchanged.
template <class L>
inline void lambda_validity_pack(const double* __restrict num,
                                 const double* __restrict diag,
                                 double* __restrict lamj,
                                 double* __restrict valid,
                                 double* __restrict prod, double prev_j,
                                 double this_j, std::size_t m) {
  const auto zero = L::broadcast(0.0);
  const auto one = L::broadcast(1.0);
  const auto prodv = L::load(prod + m);
  const auto denom = L::sub(prodv, L::load(diag + m));
  const auto lam = L::div(L::load(num + m), denom);
  const auto validv = L::load(valid + m);
  const auto ok = L::bit_and(
      L::cmp_eq(validv, L::broadcast(prev_j)),
      L::bit_and(L::cmp_gt(denom, zero),
                 L::bit_and(L::cmp_ge(lam, zero), L::cmp_lt(lam, one))));
  L::store(lamj + m, L::blend(ok, lam, zero));
  L::store(valid + m, L::blend(ok, L::broadcast(this_j), validv));
  L::store(prod + m, L::blend(ok, L::mul(prodv, L::sub(one, lam)), prodv));
}

/// One lane-ops pack of the fused mu(k) / schedulability / Eq. (9) fold
/// step at lane offset m.  Scalar reference (per lane, uint8 flags written
/// as 0/1 doubles here):
///   usable = k <= valid[m];
///   mu_k   = usable ? mu[m] * (1 - lambda_k[m]) : mu[m];   mu[m] = mu_k;
///   a      = usable ? mu_k - theta_k[m] : -inf;
///   cond   = usable && sched[m] == 0 && theta_k[m] <= mu_k;
///   first_avail[m] = cond ? a : first_avail[m];
///   sched[m]       = sched[m] | cond;
///   (Fold) take = a >= 0; u = 1 - a;
///          best[m]  = take ? (found[m] ? min-or-max(best[m], u) : u)
///                          : best[m];
///          found[m] = found[m] | take;
template <class L, ProbePolicy P, bool Fold>
inline void mu_fold_pack(const double* __restrict th,
                         const double* __restrict lamk,
                         const double* __restrict valid, double* __restrict mu,
                         double* __restrict sched, double* __restrict best,
                         double* __restrict first_avail,
                         double* __restrict found, double this_k,
                         std::size_t m) {
  const auto zero = L::broadcast(0.0);
  const auto one = L::broadcast(1.0);
  const auto muv = L::load(mu + m);
  const auto thv = L::load(th + m);
  const auto usable = L::cmp_le(L::broadcast(this_k), L::load(valid + m));
  const auto mu_next = L::mul(muv, L::sub(one, L::load(lamk + m)));
  const auto mu_k = L::blend(usable, mu_next, muv);
  L::store(mu + m, mu_k);
  const auto a = L::blend(usable, L::sub(mu_k, thv), L::broadcast(-kInf));
  const auto schedv = L::load(sched + m);
  const auto cond = L::bit_and(
      usable, L::bit_and(L::cmp_eq(schedv, zero), L::cmp_le(thv, mu_k)));
  L::store(first_avail + m, L::blend(cond, a, L::load(first_avail + m)));
  L::store(sched + m, L::blend(cond, one, schedv));
  if constexpr (Fold) {
    // Scalar fold in core_utilization(): skip a < 0; the first feasible
    // condition seeds best, later ones fold via std::min / std::max.
    const auto take = L::cmp_ge(a, zero);
    const auto bestv = L::load(best + m);
    const auto u = L::sub(one, a);
    typename L::Pack folded;
    if constexpr (P == ProbePolicy::kMaxOverFeasible) {
      folded = L::blend(L::cmp_lt(bestv, u), u, bestv);  // std::max(best, u)
    } else {
      folded = L::blend(L::cmp_lt(u, bestv), u, bestv);  // std::min(best, u)
    }
    const auto foundv = L::load(found + m);
    const auto seeded = L::blend(L::cmp_eq(foundv, zero), u, folded);
    L::store(best + m, L::blend(take, seeded, bestv));
    L::store(found + m, L::blend(take, one, foundv));
  }
}

/// The Theorem-1 pass: fills s.valid, s.lambda, s.theta, s.min_term, s.sched
/// (and, when Fold, s.best / s.first_avail / s.found).  Requires K >= 2; the
/// task's hypothetical rows must be materialized behind `row`.
///
/// Scalar reference: improved_test(core, out) in edfvd.cpp.  The
/// data-dependent breaks there become monotone masks here:
///   * "break on invalid lambda_j"  ->  valid[m] stays at its last good j;
///     a lane is still active at step j exactly when valid[m] == j - 1;
///   * "break when k > valid"       ->  usable = k <= valid[m] (monotone
///     non-increasing over k, so frozen lanes never resume).
/// Live lanes execute the identical FP sequence; dead lanes may compute
/// IEEE inf/NaN that the selects discard.  The two loops with genuine
/// lane-wise select chains (lambda validity, mu + fold) run on explicit
/// lane-ops packs with a ScalarOps tail for the remainder lanes.
template <class Ops, ProbePolicy P, bool Fold>
void improved_pass(const LevelUtilPlanes& planes, const RowView& row, Level jt,
                   const BaseTables* base, BatchProbeScratch& s) {
  using lanes::ScalarOps;
  const Level K = planes.num_levels();
  const std::size_t M = planes.num_cores();
  const std::size_t W = Ops::kWidth;
  const std::size_t Mv = M - M % W;  // SIMD body extent; tail is scalar lanes

  double* __restrict prod = s.prod.data();
  double* __restrict valid = s.valid.data();
  for (std::size_t m = 0; m < M; ++m) {  // lane loop: lambda init
    prod[m] = 1.0;
    valid[m] = 1.0;  // lambda_1 = 0 is always valid
  }

  // lambda_j per Eq. (6), j = 2..K-1.  Row 0 of the lambda plane (lambda_1)
  // is zeroed by resize() and never written.
  for (Level j = 2; j + 1 <= K; ++j) {
    const double* num;
    if (base != nullptr && jt < j) {
      // The task's row is outside x = j..K: the committed sum is the whole
      // numerator.
      num = base->pre(j, K);
    } else if (base != nullptr) {
      // Resume the shared partial sum at x = jt (the one perturbed step),
      // then extend with the remaining committed rows in order.
      double* __restrict n = s.acc.data();
      const double* __restrict pre = base->pre(j, jt - 1);
      const double* __restrict h = row(jt, j - 1);
      for (std::size_t m = 0; m < M; ++m) {  // lane loop: numerator resume
        n[m] = pre[m] + h[m];
      }
      for (Level x = jt + 1; x <= K; ++x) {
        const double* __restrict r = planes.plane(x, j - 1);
        for (std::size_t m = 0; m < M; ++m) {  // lane loop: numerator extend
          n[m] += r[m];
        }
      }
      num = n;
    } else {
      double* __restrict n = s.acc.data();
      std::fill(n, n + M, 0.0);
      for (Level x = j; x <= K; ++x) {
        const double* __restrict r = row(x, j - 1);
        for (std::size_t m = 0; m < M; ++m) {  // lane loop: lambda numerator
          n[m] += r[m];
        }
      }
      num = n;
    }
    const double* __restrict diag = row(j - 1, j - 1);
    double* __restrict lamj =
        s.lambda.data() + static_cast<std::size_t>(j - 1) * M;
    const double prev_j = static_cast<double>(j - 1);
    const double this_j = static_cast<double>(j);
    // simd loop: lambda validity
    for (std::size_t m = 0; m < Mv; m += W) {
      lambda_validity_pack<Ops>(num, diag, lamj, valid, prod, prev_j, this_j,
                                m);
    }
    for (std::size_t m = Mv; m < M; ++m) {  // remainder lanes
      lambda_validity_pack<ScalarOps>(num, diag, lamj, valid, prod, prev_j,
                                      this_j, m);
    }
  }

  // The min term of theta, shared by every condition k.  With BaseTables it
  // is committed data unless the task lives at level K.
  const double* min_term;
  if (base != nullptr && jt < K) {
    min_term = base->min_term();
  } else {
    const double* __restrict rkk = row(K, K);
    const double* __restrict rkprev = row(K, K - 1);
    double* __restrict mint = s.min_term.data();
    for (std::size_t m = 0; m < M; ++m) {  // lane loop: min term
      const double ukk = rkk[m];
      const double div = rkprev[m] / (1.0 - ukk);  // ukk >= 1: discarded
      const double second = ukk < 1.0 ? div : kInf;
      mint[m] = ukk <= second ? ukk : second;
    }
    min_term = mint;
  }

  // theta(k) from the own-level suffix sums, built top-down.  th_rows[k-1]
  // points at row k: the per-task scratch row where the task's own-level
  // contribution lands, or the shared committed row where it cannot.
  const double** __restrict th_rows = s.th_rows.data();
  if (base == nullptr) {
    double* __restrict suffix = s.acc.data();
    std::fill(suffix, suffix + M, 0.0);
    for (Level k = K - 1; k >= 1; --k) {
      const double* __restrict diag = row(k, k);
      double* __restrict th =
          s.theta.data() + static_cast<std::size_t>(k - 1) * M;
      th_rows[k - 1] = th;
      for (std::size_t m = 0; m < M; ++m) {  // lane loop: theta
        suffix[m] += diag[m];
        th[m] = suffix[m] + min_term[m];
      }
      if (k == 1) break;  // Level is unsigned
    }
  } else if (jt == K) {
    // Every suffix is committed; only the min term is the task's own.
    for (Level k = K - 1; k >= 1; --k) {
      const double* __restrict sfx = base->suffix(k);
      double* __restrict th =
          s.theta.data() + static_cast<std::size_t>(k - 1) * M;
      th_rows[k - 1] = th;
      for (std::size_t m = 0; m < M; ++m) {  // lane loop: theta re-term
        th[m] = sfx[m] + min_term[m];
      }
      if (k == 1) break;  // Level is unsigned
    }
  } else {
    // Rows above the task's level are committed; resume the shared suffix
    // at k = jt (the perturbed step) and continue down with committed
    // diagonals.
    for (Level k = K - 1; k > jt; --k) th_rows[k - 1] = base->theta(k);
    double* __restrict suffix = s.acc.data();
    {
      const double* __restrict pre = base->suffix(jt + 1);
      const double* __restrict diag = row(jt, jt);
      double* __restrict th =
          s.theta.data() + static_cast<std::size_t>(jt - 1) * M;
      th_rows[jt - 1] = th;
      for (std::size_t m = 0; m < M; ++m) {  // lane loop: theta resume
        suffix[m] = pre[m] + diag[m];
        th[m] = suffix[m] + min_term[m];
      }
    }
    for (Level k = jt - 1; k >= 1; --k) {
      const double* __restrict diag = planes.plane(k, k);
      double* __restrict th =
          s.theta.data() + static_cast<std::size_t>(k - 1) * M;
      th_rows[k - 1] = th;
      for (std::size_t m = 0; m < M; ++m) {  // lane loop: theta extend
        suffix[m] += diag[m];
        th[m] = suffix[m] + min_term[m];
      }
      if (k == 1) break;  // Level is unsigned
    }
  }

  // mu(k) running product, the schedulability conditions, and (when Fold)
  // the Eq. (9) policy fold over feasible conditions — fused into one walk
  // over k so avail values never need a (K-1) x M store.
  double* __restrict mu = s.mu.data();
  double* __restrict sched = s.sched.data();
  double* __restrict best = s.best.data();
  double* __restrict first_avail = s.first_avail.data();
  double* __restrict found = s.found.data();
  for (std::size_t m = 0; m < M; ++m) {  // lane loop: mu/fold init
    mu[m] = 1.0;
    sched[m] = 0.0;
    best[m] = 0.0;
    first_avail[m] = 0.0;
    found[m] = 0.0;
  }
  for (Level k = 1; k + 1 <= K; ++k) {
    const double* __restrict th = th_rows[k - 1];
    const double* __restrict lamk =
        s.lambda.data() + static_cast<std::size_t>(k - 1) * M;
    const double this_k = static_cast<double>(k);
    // simd loop: mu + fold
    for (std::size_t m = 0; m < Mv; m += W) {
      mu_fold_pack<Ops, P, Fold>(th, lamk, valid, mu, sched, best, first_avail,
                                 found, this_k, m);
    }
    for (std::size_t m = Mv; m < M; ++m) {  // remainder lanes
      mu_fold_pack<ScalarOps, P, Fold>(th, lamk, valid, mu, sched, best,
                                       first_avail, found, this_k, m);
    }
  }
}

template <ProbePolicy P>
void fold_utilization(const BatchProbeScratch& s, std::size_t M,
                      double* __restrict out_util) {
  const double* __restrict sched = s.sched.data();
  const double* __restrict best = s.best.data();
  const double* __restrict first_avail = s.first_avail.data();
  const double* __restrict found = s.found.data();
  for (std::size_t m = 0; m < M; ++m) {  // lane loop: utilization writeback
    double u;
    if constexpr (P == ProbePolicy::kFirstFeasible) {
      u = 1.0 - first_avail[m];
    } else {
      u = found[m] != 0.0 ? best[m] : kInf;
    }
    out_util[m] = sched[m] != 0.0 ? u : kInf;
  }
}

template <class Ops>
void run_improved(const LevelUtilPlanes& planes, const RowView& row, Level jt,
                  const BaseTables* base, ProbePolicy policy, bool fold,
                  BatchProbeScratch& s) {
  switch (policy) {
    case ProbePolicy::kFirstFeasible:
      fold ? improved_pass<Ops, ProbePolicy::kFirstFeasible, true>(
                 planes, row, jt, base, s)
           : improved_pass<Ops, ProbePolicy::kFirstFeasible, false>(
                 planes, row, jt, base, s);
      break;
    case ProbePolicy::kMinOverFeasible:
      fold ? improved_pass<Ops, ProbePolicy::kMinOverFeasible, true>(
                 planes, row, jt, base, s)
           : improved_pass<Ops, ProbePolicy::kMinOverFeasible, false>(
                 planes, row, jt, base, s);
      break;
    case ProbePolicy::kMaxOverFeasible:
      fold ? improved_pass<Ops, ProbePolicy::kMaxOverFeasible, true>(
                 planes, row, jt, base, s)
           : improved_pass<Ops, ProbePolicy::kMaxOverFeasible, false>(
                 planes, row, jt, base, s);
      break;
  }
}

/// Eq. (4) left-hand side with the task added: sum_k row(k, k), ascending —
/// the same accumulation order as UtilMatrix::own_level_sum.  Returns true
/// when every lane passes.
bool basic_mask(const LevelUtilPlanes& planes, const RowView& row,
                BatchProbeScratch& s, std::uint8_t* __restrict out) {
  const Level K = planes.num_levels();
  const std::size_t M = planes.num_cores();
  double* __restrict total = s.acc.data();
  std::fill(total, total + M, 0.0);
  for (Level k = 1; k <= K; ++k) {
    const double* __restrict diag = row(k, k);
    for (std::size_t m = 0; m < M; ++m) {  // lane loop: Eq. (4) sum
      total[m] += diag[m];
    }
  }
  std::uint8_t all = 1;
  for (std::size_t m = 0; m < M; ++m) {  // lane loop: Eq. (4) mask
    const auto pass = static_cast<std::uint8_t>(total[m] <= 1.0 ? 1 : 0);
    out[m] = pass;
    all &= pass;
  }
  return all != 0;
}

/// The post-pass shared by the 1-D and 2-D utilization kernels: one task's
/// materialized rows -> one M-wide utilization row.
template <class Ops>
void utilization_row(const LevelUtilPlanes& planes, const RowView& row,
                     Level jt, const BaseTables* base, ProbePolicy policy,
                     BatchProbeScratch& s, double* __restrict out_util) {
  const Level K = planes.num_levels();
  const std::size_t M = planes.num_cores();
  if (K == 1) {
    // Same K == 1 fast path as core_utilization(): report U_1(1) exactly.
    const double* __restrict r11 = row(1, 1);
    for (std::size_t m = 0; m < M; ++m) {  // lane loop: K == 1 utilization
      out_util[m] = r11[m] <= 1.0 ? r11[m] : kInf;
    }
    return;
  }
  run_improved<Ops>(planes, row, jt, base, policy, /*fold=*/true, s);
  switch (policy) {
    case ProbePolicy::kFirstFeasible:
      fold_utilization<ProbePolicy::kFirstFeasible>(s, M, out_util);
      break;
    case ProbePolicy::kMinOverFeasible:
      fold_utilization<ProbePolicy::kMinOverFeasible>(s, M, out_util);
      break;
    case ProbePolicy::kMaxOverFeasible:
      fold_utilization<ProbePolicy::kMaxOverFeasible>(s, M, out_util);
      break;
  }
}

/// The fits post-pass: the basic mask, plus (K >= 2, some lane rejected by
/// Eq. (4)) the improved accept mask of one task.
template <class Ops>
void fits_row(const LevelUtilPlanes& planes, const RowView& row, Level jt,
              BatchProbeScratch& s, std::uint8_t* __restrict basic,
              std::uint8_t* __restrict fits) {
  const Level K = planes.num_levels();
  const std::size_t M = planes.num_cores();
  const bool all_basic = basic_mask(planes, row, s, basic);
  // Eq. (4) and the improved test coincide at K == 1 (plain EDF).  Where
  // Eq. (4) accepts every lane, the scalar rule (Theorem 1 only after an
  // Eq. (4) reject) applies to the whole call: an accepted lane ORs to 1
  // whatever Theorem 1 says, so the pass is skipped.
  if (K == 1 || all_basic) {
    std::copy(basic, basic + M, fits);
    return;
  }
  // The scalar path runs the improved test only where Eq. (4) failed; the
  // improved test is pure, so running it on every lane and OR-ing with the
  // basic mask yields the identical accept decision.
  run_improved<Ops>(planes, row, jt, nullptr, ProbePolicy::kMinOverFeasible,
                    /*fold=*/false, s);
  const double* __restrict sched = s.sched.data();
  for (std::size_t m = 0; m < M; ++m) {  // lane loop: accept mask
    fits[m] = static_cast<std::uint8_t>(basic[m] |
                                        (sched[m] != 0.0 ? 1u : 0u));
  }
}

void ensure_scratch(const LevelUtilPlanes& planes, BatchProbeScratch& s) {
  if (s.levels != planes.num_levels() || s.cores != planes.num_cores()) {
    s.resize(planes.num_levels(), planes.num_cores());
  }
}

// --- KernelTable entry points ------------------------------------------------

template <class Ops>
void util_1d(const LevelUtilPlanes& planes, const McTask& task,
             ProbePolicy policy, BatchProbeScratch& s, double* out_util) {
  ensure_scratch(planes, s);
  materialize_task_row(planes, task, s.hrow.data());
  const RowView row(planes, s.hrow.data(), task.level());
  utilization_row<Ops>(planes, row, task.level(), nullptr, policy, s,
                       out_util);
}

template <class Ops>
void fits_1d(const LevelUtilPlanes& planes, const McTask& task,
             BatchProbeScratch& s, std::uint8_t* basic, std::uint8_t* fits) {
  ensure_scratch(planes, s);
  materialize_task_row(planes, task, s.hrow.data());
  const RowView row(planes, s.hrow.data(), task.level());
  fits_row<Ops>(planes, row, task.level(), s, basic, fits);
}

void fits_basic_1d(const LevelUtilPlanes& planes, const McTask& task,
                   BatchProbeScratch& s, std::uint8_t* basic) {
  ensure_scratch(planes, s);
  materialize_task_row(planes, task, s.hrow.data());
  const RowView row(planes, s.hrow.data(), task.level());
  basic_mask(planes, row, s, basic);
}

template <class Ops>
void util_2d(const LevelUtilPlanes& planes, const TaskSet& ts,
             const std::size_t* tasks, std::size_t T, ProbePolicy policy,
             BatchProbeScratch& s, double* out_util) {
  ensure_scratch(planes, s);
  const Level K = planes.num_levels();
  const std::size_t M = planes.num_cores();
  const std::size_t row_stride = static_cast<std::size_t>(K) * M;
  BaseTables tables(planes, s);
  const BaseTables* base = nullptr;
  if (K >= 2 && T >= kShareMinTasks) {
    tables.build_improved(planes);
    base = &tables;
  }
  for (std::size_t t0 = 0; t0 < T; t0 += kBatchProbeTileTasks) {
    const std::size_t tile = std::min(kBatchProbeTileTasks, T - t0);
    materialize_tile(planes, ts, tasks + t0, tile, s.hrow.data());
    for (std::size_t i = 0; i < tile; ++i) {
      const Level jt = ts[tasks[t0 + i]].level();
      const RowView row(planes, s.hrow.data() + i * row_stride, jt);
      utilization_row<Ops>(planes, row, jt, base, policy, s,
                           out_util + (t0 + i) * M);
    }
  }
}

template <class Ops>
const KernelTable& table_for(const char* backend) {
  static const KernelTable t{util_1d<Ops>, fits_1d<Ops>, fits_basic_1d,
                             util_2d<Ops>, backend};
  return t;
}

}  // namespace

/// This ISA's kernel table, on the widest lane backend its flags allow.
const KernelTable& table() {
  return table_for<lanes::DefaultOps>(lanes::kDefaultBackend);
}

/// The same kernels pinned to the one-lane ScalarOps reference backend
/// (identical results by the lane-ops contract; used for differential
/// testing via set_batch_probe_backend("scalar")).
const KernelTable& scalar_table() {
  return table_for<lanes::ScalarOps>("scalar");
}

}  // namespace mcs::analysis::batch_kernel::MCS_BATCH_PROBE_ISA
