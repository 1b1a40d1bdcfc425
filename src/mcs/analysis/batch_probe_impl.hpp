// The batched probe kernel bodies, compiled once per instruction set.
//
// This header is included by exactly one translation unit per ISA —
// batch_probe.cpp (the build's baseline flags) and batch_probe_avx2.cpp
// (-mavx2) — each defining MCS_BATCH_PROBE_ISA to a distinct namespace
// name, so the instantiations never collide.  lane_ops.hpp picks the widest
// backend the including TU's flags allow; batch_probe.cpp's dispatcher
// chooses between the resulting KernelTables at runtime.
//
// Pack-major: a kernel walks the core lanes in steps, and one step runs the
// whole Eq. (4) / Theorem 1 / Eq. (9) computation with the levels as its
// inner loop, so a lane's state stays in registers from the first level to
// the writeback.  A step holds one or two Units, each one lane pack of the
// task's hypothetical core: two DefaultOps packs while two fit (their
// division chains are independent, so they overlap), then one pack, then
// ScalarOps lanes.  Only theta(k) goes through memory (BatchProbeScratch):
// it is built from the top level down and read from the bottom up.
//
// The two pack walks are labelled "simd loop: <name>";
// tools/check_vectorization.sh requires the labels and checks the packed
// machine code of both TUs.
//
// Bit-identity: see the contract in batch_probe.hpp.  The scalar reference
// is improved_test (edfvd.cpp) and core_utilization (core_util.cpp); the
// ScalarOps instantiation is the lane-ops spelling of exactly that code.
#ifndef MCS_BATCH_PROBE_ISA
#error "batch_probe_impl.hpp requires MCS_BATCH_PROBE_ISA to be defined"
#endif

#include <limits>

#include "mcs/analysis/batch_probe.hpp"
#include "mcs/analysis/lane_ops.hpp"

namespace mcs::analysis::batch_kernel::MCS_BATCH_PROBE_ISA {

namespace {

using lanes::ScalarOps;

constexpr double kInf = std::numeric_limits<double>::infinity();

static_assert(2 * lanes::DefaultOps::kWidth <= kStepLanes,
              "a step's theta rows must fit BatchProbeScratch::theta");

// Everything a step calls is forced inline into the lane walk, where the
// step's Units are locals: that is what keeps their state in registers.
#if defined(__GNUC__)
#define MCS_STEP_INLINE [[gnu::always_inline]] inline
#else
#define MCS_STEP_INLINE inline
#endif

/// The probed task: its u_t(k), read once per call.
struct TaskRef {
  const double* tu;  ///< u_t(1..l_t) at tu[0..l_t-1]
  Level level;       ///< l_t
};

TaskRef load_task(const McTask& task, double* tu) {
  for (Level k = 1; k <= task.level(); ++k) tu[k - 1] = task.utilization(k);
  return {tu, task.level()};
}

/// One lane pack of the task's hypothetical core, with its Theorem-1 state.
template <class L>
struct Unit {
  using Pack = typename L::Pack;

  Unit(const LevelUtilPlanes& p, const TaskRef& t, std::size_t lane,
       double* th)
      : planes(&p), task(t), m(lane), theta(th) {}

  /// H(j, k): the committed plane(j, k), plus u_t(k) on the task's own
  /// level — the single addition UtilMatrix::add makes on the scalar copy.
  [[nodiscard]] MCS_STEP_INLINE Pack h(Level j, Level k) const {
    const Pack v = L::load(planes->plane(j, k) + m);
    return j == task.level ? L::add(v, L::broadcast(task.tu[k - 1])) : v;
  }

  const LevelUtilPlanes* planes;
  TaskRef task;
  std::size_t m;  ///< first core lane
  double* theta;  ///< theta(k) at theta + (k - 1) * L::kWidth

  Pack prod{};   ///< prod_{x<=k} (1 - lambda_x): mu(k) while alive
  Pack alive{};  ///< mask: lambda_2..lambda_k valid (k <= the valid count)
  Pack sched{};  ///< mask: some condition held (fits: seeded with Eq. (4))
  Pack first{};  ///< A(k) of the first condition that held
  Pack best{};   ///< the Eq. (9) fold over the conditions with A(k) >= 0
  Pack found{};  ///< mask: the fold has taken a condition
};

template <class L>
MCS_STEP_INLINE bool all_set(typename L::Pack mask) {
  return L::bits(mask) == (1u << L::kWidth) - 1;
}

template <class L>
MCS_STEP_INLINE void store_mask(std::uint8_t* out, typename L::Pack mask) {
  const unsigned bits = L::bits(mask);
  for (std::size_t i = 0; i < L::kWidth; ++i) {
    out[i] = static_cast<std::uint8_t>((bits >> i) & 1u);
  }
}

/// Eq. (4) with the task added: sum_k H(k, k) <= 1, summed in ascending k
/// like UtilMatrix::own_level_sum.
template <class L>
MCS_STEP_INLINE typename L::Pack eq4(const Unit<L>& u, Level K) {
  typename L::Pack total = L::broadcast(0.0);
  for (Level k = 1; k <= K; ++k) total = L::add(total, u.h(k, k));
  return L::cmp_le(total, L::broadcast(1.0));
}

// --- Theorem 1 (improved_test in edfvd.cpp), K >= 2 --------------------------
//
// The scalar breaks become masks: an invalid lambda_k clears `alive`, which
// is then exactly "k > lambda_valid_count" and never set again.  The scalar
// mu(k) is `prod`: both start at 1 and take the same factors
// (1 - lambda_k), with 1 * (1 - 0) = 1 for lambda_1, so they agree bit for
// bit on every live lane.  Dead lanes may divide to IEEE inf/NaN; every
// select is an exact bitwise blend, so those bits never reach a live lane.

/// theta(k) into the unit's rows, and the state before condition 1.  Fits
/// expects `sched` seeded with Eq. (4).
template <class L, bool Fits>
MCS_STEP_INLINE void start(Unit<L>& s, Level K) {
  using Pack = typename L::Pack;
  const Pack zero = L::broadcast(0.0);
  const Pack one = L::broadcast(1.0);
  // The min term of theta, shared by every condition k.  Where ukk >= 1 the
  // division is discarded by the select.
  const Pack ukk = s.h(K, K);
  const Pack div = L::div(s.h(K, K - 1), L::sub(one, ukk));
  const Pack second = L::blend(L::cmp_lt(ukk, one), div, L::broadcast(kInf));
  const Pack min_term = L::blend(L::cmp_le(ukk, second), ukk, second);
  // theta(k) from the own-level suffix sums, built top-down.
  Pack suffix = zero;
  for (Level k = K - 1; k >= 1; --k) {
    suffix = L::add(suffix, s.h(k, k));
    L::store(s.theta + (k - 1) * L::kWidth, L::add(suffix, min_term));
    if (k == 1) break;  // Level is unsigned
  }
  s.prod = one;
  s.alive = L::cmp_eq(zero, zero);  // lambda_1 = 0 is always valid
  if constexpr (!Fits) s.sched = zero;
  s.first = zero;
  s.best = zero;
  s.found = zero;
}

/// lambda_k per Eq. (6), its numerator summed in ascending x.
template <class L>
MCS_STEP_INLINE void lambda(Unit<L>& s, Level K, Level k) {
  using Pack = typename L::Pack;
  const Pack zero = L::broadcast(0.0);
  const Pack one = L::broadcast(1.0);
  Pack num = zero;
  for (Level x = k; x <= K; ++x) num = L::add(num, s.h(x, k - 1));
  const Pack denom = L::sub(s.prod, s.h(k - 1, k - 1));
  const Pack lam = L::div(num, denom);
  s.alive = L::bit_and(
      s.alive,
      L::bit_and(L::cmp_gt(denom, zero),
                 L::bit_and(L::cmp_ge(lam, zero), L::cmp_lt(lam, one))));
  s.prod = L::blend(s.alive, L::mul(s.prod, L::sub(one, lam)), s.prod);
}

/// Condition k: A(k) = mu(k) - theta(k) (Eq. 8); the first k with
/// theta(k) <= mu(k) schedules the core.  Unless Fits, also folds A(k) into
/// the core utilization of policy P (Eq. 9, core_utilization).
template <class L, bool Fits, ProbePolicy P>
MCS_STEP_INLINE void condition(Unit<L>& s, Level k) {
  using Pack = typename L::Pack;
  const Pack th = L::load(s.theta + (k - 1) * L::kWidth);
  const Pack avail = L::sub(s.prod, th);
  const Pack cond =
      L::bit_andnot(L::bit_and(s.alive, L::cmp_le(th, s.prod)), s.sched);
  if constexpr (P == ProbePolicy::kFirstFeasible) {
    s.first = L::blend(cond, avail, s.first);
  }
  s.sched = L::bit_or(s.sched, cond);
  if constexpr (!Fits && P != ProbePolicy::kFirstFeasible) {
    // The scalar fold skips A(k) < 0; the first feasible condition seeds
    // best, later ones fold in via std::min / std::max.
    const Pack take = L::bit_and(s.alive, L::cmp_ge(avail, L::broadcast(0.0)));
    const Pack util = L::sub(L::broadcast(1.0), avail);
    const Pack folded = P == ProbePolicy::kMaxOverFeasible
                            ? L::blend(L::cmp_lt(s.best, util), util, s.best)
                            : L::blend(L::cmp_lt(util, s.best), util, s.best);
    s.best = L::blend(take, L::blend(s.found, folded, util), s.best);
    s.found = L::bit_or(s.found, take);
  }
}

/// Theorem 1 on every unit of a step, level by level.  Fits stops once
/// every lane is accepted.
template <class L, bool Fits, ProbePolicy P, class... U>
MCS_STEP_INLINE void theorem1(Level K, U&... u) {
  (start<L, Fits>(u, K), ...);
  (condition<L, Fits, P>(u, 1), ...);
  for (Level k = 2; k + 1 <= K; ++k) {
    if constexpr (Fits) {
      if ((all_set<L>(u.sched) && ...)) return;
    }
    (lambda<L>(u, K, k), ...);
    (condition<L, Fits, P>(u, k), ...);
  }
}

// --- Steps -------------------------------------------------------------------

/// batch_core_utilization: the units' lanes of out_util.
template <ProbePolicy P>
struct UtilStep {
  Level K;
  double* out;

  template <class L, class... U>
  MCS_STEP_INLINE void operator()(Unit<L>& a, U&... rest) const {
    using Pack = typename L::Pack;
    const Pack inf = L::broadcast(kInf);
    if (K == 1) {
      // Same K == 1 fast path as core_utilization(): report U_1(1) exactly.
      const auto plain_edf = [&](const Unit<L>& s) {
        const Pack u11 = s.h(1, 1);
        L::store(out + s.m,
                 L::blend(L::cmp_le(u11, L::broadcast(1.0)), u11, inf));
      };
      plain_edf(a);
      (plain_edf(rest), ...);
      return;
    }
    theorem1<L, false, P>(K, a, rest...);
    const auto store = [&](const Unit<L>& s) {
      Pack util;
      if constexpr (P == ProbePolicy::kFirstFeasible) {
        util = L::sub(L::broadcast(1.0), s.first);
      } else {
        util = L::blend(s.found, s.best, inf);
      }
      L::store(out + s.m, L::blend(s.sched, util, inf));
    };
    store(a);
    (store(rest), ...);
  }
};

/// batch_fits: basic = Eq. (4), fits = basic | Theorem 1.  A unit whose
/// lanes all pass Eq. (4) skips Theorem 1: the scalar rule (Theorem 1 only
/// after an Eq. (4) reject), as an accepted lane ORs to 1 whatever
/// Theorem 1 says.  Eq. (4) and Theorem 1 coincide at K == 1 (plain EDF).
struct FitsStep {
  Level K;
  std::uint8_t* basic;
  std::uint8_t* fits;

  template <class L>
  MCS_STEP_INLINE void operator()(Unit<L>& a) const {
    a.sched = eq4(a, K);
    settle(a);
  }

  template <class L>
  MCS_STEP_INLINE void operator()(Unit<L>& a, Unit<L>& b) const {
    a.sched = eq4(a, K);
    b.sched = eq4(b, K);
    if (K == 1 || all_set<L>(a.sched) || all_set<L>(b.sched)) {
      settle(a);
      settle(b);
      return;
    }
    store_mask<L>(basic + a.m, a.sched);
    store_mask<L>(basic + b.m, b.sched);
    theorem1<L, true, ProbePolicy::kMinOverFeasible>(K, a, b);
    store_mask<L>(fits + a.m, a.sched);
    store_mask<L>(fits + b.m, b.sched);
  }

 private:
  /// Stores one unit's masks, `sched` holding Eq. (4); Theorem 1 runs
  /// unless Eq. (4) accepted every lane.
  template <class L>
  MCS_STEP_INLINE void settle(Unit<L>& a) const {
    store_mask<L>(basic + a.m, a.sched);
    if (K >= 2 && !all_set<L>(a.sched)) {
      theorem1<L, true, ProbePolicy::kMinOverFeasible>(K, a);
    }
    store_mask<L>(fits + a.m, a.sched);
  }
};

/// batch_fits_basic: the Eq. (4) mask alone.
struct BasicStep {
  Level K;
  std::uint8_t* basic;

  template <class L, class... U>
  MCS_STEP_INLINE void operator()(Unit<L>& a, U&... rest) const {
    store_mask<L>(basic + a.m, eq4(a, K));
    (store_mask<L>(basic + rest.m, eq4(rest, K)), ...);
  }
};

// --- Lane walks --------------------------------------------------------------

/// The lane walk of one task.
template <class Ops, class Step>
void walk_task(const LevelUtilPlanes& planes, const TaskRef& task,
               double* theta, const Step& step) {
  constexpr std::size_t W = Ops::kWidth;
  const std::size_t M = planes.num_cores();
  double* const theta_b = theta + (planes.num_levels() - 1) * W;
  std::size_t m = 0;
  for (; m + 2 * W <= M; m += 2 * W) {  // simd loop: pack pairs
    Unit<Ops> a(planes, task, m, theta);
    Unit<Ops> b(planes, task, m + W, theta_b);
    step(a, b);
  }
  for (; m + W <= M; m += W) {  // simd loop: single packs
    Unit<Ops> a(planes, task, m, theta);
    step(a);
  }
  for (; m < M; ++m) {
    Unit<ScalarOps> a(planes, task, m, theta);
    step(a);
  }
}

template <class F>
void with_policy(ProbePolicy policy, F&& f) {
  switch (policy) {
    case ProbePolicy::kFirstFeasible:
      f.template operator()<ProbePolicy::kFirstFeasible>();
      break;
    case ProbePolicy::kMinOverFeasible:
      f.template operator()<ProbePolicy::kMinOverFeasible>();
      break;
    case ProbePolicy::kMaxOverFeasible:
      f.template operator()<ProbePolicy::kMaxOverFeasible>();
      break;
  }
}

void ensure_scratch(const LevelUtilPlanes& planes, BatchProbeScratch& s) {
  if (s.levels != planes.num_levels()) s.resize(planes.num_levels());
}

// --- KernelTable entry points ------------------------------------------------

template <class Ops>
void util_all(const LevelUtilPlanes& planes, const McTask& task,
              ProbePolicy policy, BatchProbeScratch& s, double* out_util) {
  ensure_scratch(planes, s);
  const TaskRef t = load_task(task, s.tu.data());
  with_policy(policy, [&]<ProbePolicy P>() {
    walk_task<Ops>(planes, t, s.theta.data(),
                   UtilStep<P>{planes.num_levels(), out_util});
  });
}

template <class Ops>
void fits_all(const LevelUtilPlanes& planes, const McTask& task,
              BatchProbeScratch& s, std::uint8_t* basic, std::uint8_t* fits) {
  ensure_scratch(planes, s);
  walk_task<Ops>(planes, load_task(task, s.tu.data()), s.theta.data(),
                 FitsStep{planes.num_levels(), basic, fits});
}

template <class Ops>
void fits_basic_all(const LevelUtilPlanes& planes, const McTask& task,
                    BatchProbeScratch& s, std::uint8_t* basic) {
  ensure_scratch(planes, s);
  walk_task<Ops>(planes, load_task(task, s.tu.data()), s.theta.data(),
                 BasicStep{planes.num_levels(), basic});
}

template <class Ops>
const KernelTable& table_for(const char* backend) {
  static const KernelTable t{util_all<Ops>, fits_all<Ops>,
                             fits_basic_all<Ops>, backend};
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

#undef MCS_STEP_INLINE
