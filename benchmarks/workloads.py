"""The benchmark's three workloads on criterion 10's pinned instance.

Every workload uses the synthetic set of acceptance criterion 10: two
unit-variance Gaussians, n=2000 train and 2000 test points, d=20, mean
separation 4.2, data seed 42; hinge loss, lambda=0.1, eps=3%, p=5%, and all
five defenses. The instance is pinned, rows in generated order, because
hinge-training time on it depends on the data: at other data seeds or row
orders a min-max battery that takes 6.5 s here can take 29 s, which makes
the figures bimodal across benchmark seeds. On this instance the two known
min-max defects (decoys whose feasible set is empty, and a battery whose
hinge training stalls) appear in every run. The benchmark seed draws the
poison sets of the ``battery`` workload; ``kkt`` and ``minmax`` take no
random input. The program sees only the generated inputs.

- ``battery``: one ``evaluate_against_defenses`` per op, cycling through
  four poison shapes the benchmark builds. Defenses and training do the
  work; the feasible set does almost none.
- ``kkt``: one full KKT attack per op (decoy generation, the class-split
  grid scored by retraining, one battery on the winner). Training does the
  work, in two shapes: clean data plus r-weighted flips, and clean data plus
  at most two heavy points.
- ``minmax``: decoys are generated in set-up; each op is one attack scored
  by a battery: ``run_minmax_basic`` and one decoy-constrained ``run_minmax``
  per Pareto decoy. Margin minimization over the feasible set does the
  work.
"""

from __future__ import annotations

import numpy as np

from poisonlab import defenses, feasible, kkt, minmax, models, results
from poisonlab.data import Dataset, synth_gaussians, union

from loop import CheckFailed, Op

N, DIM, SEPARATION, DATA_SEED = 2000, 20, 4.2, 42
LAM, EPSILON, P = 0.1, 0.03, 0.05
R_GRID = (1, 2, 3, 5, 8, 12)
Q_GRID = (0.05, 0.2, 0.35, 0.5)
T_SPLITS = 6
TAU_LOSS = 0.25
LOSS = models.LossSpec.hinge()
CONFIG = models.TrainConfig(lam=LAM)
DEFENSES = (defenses.DefenseKind.l2(), defenses.DefenseKind.slab(),
            defenses.DefenseKind.loss_defense(LAM), defenses.DefenseKind.svd(),
            defenses.DefenseKind.knn())

# exception type -> failure reason; any other exception ends the benchmark
FAILURE_REASONS = {
    feasible.InfeasibleSetError: "infeasible",
    models.TrainingError: "training",
    minmax.DivergenceError: "training",
    defenses.DefenseError: "defense",
}

# deadline per op: well above the slowest op that completes on each workload
# (battery 1.6 s, kkt 13 s, minmax 7 s in a slow phase of a shared 2-vCPU
# machine), and short enough that a run whose ops all stall ends in minutes
DEADLINE_S = {"battery": 20.0, "kkt": 45.0, "minmax": 12.0}

TRACED_MODULES = (results, defenses, models, feasible, kkt, minmax)


def pinned_data() -> tuple[Dataset, Dataset]:
    return synth_gaussians(DATA_SEED, N, DIM, SEPARATION)


# -- output checks ------------------------------------------------------------

def check_battery(D_c: Dataset, D_p: Dataset, errors: dict, reports) -> float:
    """Every error lies in [0,1]; no defense removes more than p of a class's
    weight. Returns the min-over-defense error."""
    if sorted(errors) != sorted(k.kind for k in DEFENSES):
        raise CheckFailed(f"battery scored {sorted(errors)}")
    D = union(D_c, D_p)
    for rep in reports:
        if not 0.0 <= rep["test_error"] <= 1.0:
            raise CheckFailed(f"{rep['defense']}: error {rep['test_error']}")
        for lab, removed in rep["removed_weight"].items():
            cap = P * D.class_weight(lab)
            if removed > cap + 1e-9 * (1.0 + cap):
                raise CheckFailed(f"{rep['defense']}: removed {removed} of "
                                  f"class {lab:+d}, cap {cap}")
    return min(errors.values())


def check_attack(D_c: Dataset, D_p: Dataset, F) -> None:
    """The poison weighs exactly eps*|D_c| and every point lies in the
    attack's own feasible set."""
    budget = EPSILON * D_c.total_weight
    if abs(D_p.total_weight - budget) > 1e-9 * budget:
        raise CheckFailed(f"poison weight {D_p.total_weight}, budget {budget}")
    # ClassConstraints.contains is FeasibleSet.contains without the traced
    # method around it, so a check adds no spans to a traced run
    outside = [i for i in range(D_p.n)
               if not F.cons[int(D_p.y[i])].contains(D_p.X[i])]
    if outside:
        raise CheckFailed(f"{len(outside)} of {D_p.n} poison points outside F")


def battery(D_c, D_p, D_test):
    return results.evaluate_against_defenses(
        D_c, D_p, D_test, list(DEFENSES), P, LOSS, CONFIG, return_reports=True)


def battery_op(name, D_c, D_p, D_test) -> Op:
    return Op(name, lambda: battery(D_c, D_p, D_test),
              lambda out: check_battery(D_c, D_p, *out))


def attack_op(name, D_c, D_test, attack) -> Op:
    """``attack()`` returns (poison, its feasible set); the op scores the
    poison with one battery."""
    def run():
        D_p, F = attack()
        return D_p, F, battery(D_c, D_p, D_test)

    def check(out):
        D_p, F, (errors, reports) = out
        check_attack(D_c, D_p, F)
        return check_battery(D_c, D_p, errors, reports)

    return Op(name, run, check)


# -- workloads ----------------------------------------------------------------

def battery_poisons(tr: Dataset, te: Dataset, F, seed: int) -> dict:
    """Four poison shapes of total weight eps*|D_c|: none; two heavy
    label-flipped points projected into F (the KKT shape); 60 unit-weight
    flipped points projected into F (the min-max shape); up to 25 test
    flips that lie in F, with fractional weight (the ALFA shape; on this
    instance only 18 flips are feasible)."""
    rng = np.random.Generator(np.random.Philox(seed))
    budget = EPSILON * tr.total_weight
    cents = defenses.class_centroids(te)

    def flipped_into_F(idx):
        return np.array([F.project(te.X[i], -te.y[i]) for i in idx]), -te.y[idx]

    # per class, the test point nearest its centroid, flipped
    typical = [int(np.flatnonzero(te.y == -y)[np.argmin(np.linalg.norm(
        te.X[te.y == -y] - cents[-y], axis=1))]) for y in (1, -1)]
    X2, y2 = flipped_into_F(typical)
    idx60 = rng.choice(te.n, 60, replace=False)
    X60, y60 = flipped_into_F(idx60)
    feasible_flips = np.flatnonzero([F.contains(te.X[i], -te.y[i])
                                     for i in range(te.n)])
    idx_frac = rng.choice(feasible_flips, min(25, len(feasible_flips)),
                          replace=False)
    return {
        "none": Dataset.empty(tr.d),
        "heavy2": Dataset(X2, y2, np.full(2, budget / 2)),
        "unit60": Dataset(X60, y60, np.full(60, budget / 60)),
        "frac": Dataset(te.X[idx_frac], -te.y[idx_frac],
                        np.full(len(idx_frac), budget / len(idx_frac))),
    }


def prepare_battery(seed: int) -> list[Op]:
    tr, te = pinned_data()
    F = feasible.build_feasible_set(tr, P)
    return [battery_op(f"battery/{shape}", tr, dp, te)
            for shape, dp in battery_poisons(tr, te, F, seed).items()]


def prepare_kkt(seed: int) -> list[Op]:
    tr, te = pinned_data()

    def attack():
        decoys = kkt.gen_decoys(tr, te, LOSS, LAM, r_grid=R_GRID, q_grid=Q_GRID)
        built = {}

        def decoy_F(decoy):
            caps = kkt.decoy_loss_caps(tr, decoy.theta_decoy, LOSS, P)
            built[id(decoy)] = feasible.build_feasible_set(
                tr, P, decoy=(decoy.theta_decoy, LOSS, caps))
            return built[id(decoy)]

        res = kkt.run_kkt(tr, te, EPSILON, decoys, decoy_F, T=T_SPLITS, p=P,
                          loss=LOSS, config=CONFIG)
        return res.dp, built[id(decoys[res.decoy_provenance["decoy_index"]])]

    return [attack_op("kkt", tr, te, attack)]


def decoy_feasible_set(F, decoy):
    """The set ``run_minmax`` searches for one decoy: F plus the cap
    ell(theta_decoy; x, y) <= tau_loss per class."""
    floor = feasible.margin_floor(LOSS, TAU_LOSS)
    th = decoy.theta_decoy.theta
    return (F.with_halfspace(1, feasible.HalfSpace(-th, -floor))
             .with_halfspace(-1, feasible.HalfSpace(th, -floor)))


def prepare_minmax(seed: int) -> list[Op]:
    tr, te = pinned_data()
    F = feasible.build_feasible_set(tr, P)
    decoys = kkt.gen_decoys(tr, te, LOSS, LAM, r_grid=R_GRID, q_grid=Q_GRID)

    def basic():
        return minmax.run_minmax_basic(tr, EPSILON, F, lam=LAM, loss=LOSS).dp, F

    def constrained(decoy):
        F_decoy = decoy_feasible_set(F, decoy)

        def attack():
            res = minmax.run_minmax(tr, te, EPSILON, F, [decoy], TAU_LOSS,
                                    lam=LAM, loss=LOSS, p=P, config=CONFIG)
            return res.dp, F_decoy
        return attack

    return ([attack_op("minmax/basic", tr, te, basic)]
            + [attack_op(f"minmax/decoy{i}", tr, te, constrained(d))
               for i, d in enumerate(decoys)])


WORKLOADS = {"battery": prepare_battery, "kkt": prepare_kkt,
             "minmax": prepare_minmax}
