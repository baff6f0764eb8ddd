"""Randomized numerical checks of the pooling axioms.

Each axiom is an identity that a fused pdf either satisfies or does not.
The harness draws random opinion profiles (Gaussian mixtures on a fixed
grid), random grid events and random bounded likelihoods, evaluates the
identity, and reports the largest residual seen. A report that finds no
violation is evidence, not proof: blank entries of the expected matrix
should be read as "no violation found", never as "satisfied".
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from .errors import UnsupportedAxiomError, whole_number
from .grid import Grid, GridDensity, OpinionProfile, adopt_normalized, event_probability
from .pooling import PoolingKind, PoolingSpec, bayes_update, fields_read, pool

DEFAULT_TOL = 1e-6
DEFAULT_TRIALS = 100

# harness domains: checks are grid-resolution statements, not user data
GRID_1D = Grid((-5.0,), (5.0,), (512,))
GRID_2D = Grid((-5.0, -5.0), (5.0, 5.0), (65, 65))

PROBE_PAIRS = 8
_TINY = 1e-300


class Axiom(enum.Enum):
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"
    A4 = "A4"
    A5 = "A5"
    A6 = "A6"
    A7 = "A7"
    A8 = "A8"
    A9 = "A9"
    A10 = "A10"
    A11 = "A11"
    A12 = "A12"


class AxiomStatus(enum.Enum):
    SATISFIED = "satisfied"
    NOT_ESTABLISHED = "violated-or-unknown"
    NOT_APPLICABLE = "n.a."
    EQUAL_WEIGHTS_ONLY = "equal-weights-only"


@dataclasses.dataclass(frozen=True)
class AxiomCounterexample:
    """Locator for the worst violating trial of a failed check."""

    trial: int
    seed: int
    detail: str


@dataclasses.dataclass(frozen=True)
class AxiomCheckReport:
    axiom: Axiom
    pooling: PoolingSpec
    trials: int
    max_violation: float
    passed: bool
    counterexample: AxiomCounterexample | None

    def __post_init__(self):
        if self.passed == (self.counterexample is not None):
            raise ValueError("counterexample must be present exactly when the check failed")


# expected pass/fail matrix, one row per pooling kind, columns A1..A12;
# 's' satisfied, '.' not established, 'n' not applicable, '*' equal weights only
_MATRIX_ROWS = {
    PoolingKind.LINEAR: "*ssssss.....",
    PoolingKind.GENERALIZED_LINEAR: "*...s.s.....",
    PoolingKind.LOG_LINEAR: "*ns..ss.ss.s",
    PoolingKind.GENERALIZED_LOG_LINEAR: "*n....s.ss.s",
    PoolingKind.HOLDER: "*ss..ss.....",  # alpha > 0; at alpha <= 0 A2 is n.a. by needs_positive
    PoolingKind.INVERSE_LINEAR: "*ns..ss.....",
    PoolingKind.MULTIPLICATIVE: "sn....s.s.ss",
    PoolingKind.GENERALIZED_MULTIPLICATIVE: "*n....s.s..s",
    PoolingKind.DICTATORSHIP: ".sssssssss.s",
    PoolingKind.DOGMATIC: "s...s.s....s",
}

_STATUS_CODES = {
    "s": AxiomStatus.SATISFIED,
    ".": AxiomStatus.NOT_ESTABLISHED,
    "n": AxiomStatus.NOT_APPLICABLE,
    "*": AxiomStatus.EQUAL_WEIGHTS_ONLY,
}


def expected_matrix() -> dict[tuple[PoolingKind, Axiom], AxiomStatus]:
    """The expected status of every (pooling kind, axiom) pair.

    The Holder row is for alpha > 0; at alpha <= 0, A2 is n.a. as the spec's
    `needs_positive` says. Transform-space pooling is excluded: its reports
    equal those of the pool it reproduces (`pooling._CHI_POOLS`); identity,
    which normalizes the linear pool, shares its verdicts.
    """
    out = {}
    for kind, row in _MATRIX_ROWS.items():
        for axiom, code in zip(Axiom, row):
            out[(kind, axiom)] = _STATUS_CODES[code]
    return out


# axioms about independence or factorization need a 2-D state space
_TWO_DIM_AXIOMS = (Axiom.A8, Axiom.A9)


def _agent_count(spec: PoolingSpec) -> int:
    if spec.weights is not None:
        return spec.weights.size
    if spec.kind is PoolingKind.DICTATORSHIP:
        return max(2, spec.dictator)
    return 3


def _l1(template: Grid, a: GridDensity, b: GridDensity) -> float:
    return template.integral(np.abs(a.values - b.values))


def _bump(x: np.ndarray, c, s) -> np.ndarray:
    """Unnormalized Gaussian bump of center ``c`` and width ``s``, broadcast against ``x``."""
    return np.exp(-0.5 * ((x - c) / s) ** 2)


def _mixture_draws(rng, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, means and widths, as columns, of a random 1-3 component mixture on x."""
    n = int(rng.integers(1, 4))
    comp_w = rng.dirichlet(np.ones(n))
    span = x[-1] - x[0]
    means = rng.uniform(x[0] + 0.2 * span, x[-1] - 0.2 * span, size=n)
    sds = rng.uniform(0.3, 1.5, size=n)
    return comp_w[:, None], means[:, None], sds[:, None]


def _mixture_on_axis(rng, x: np.ndarray) -> np.ndarray:
    """Unnormalized 1-3 component Gaussian mixture, strictly positive on x; rows summed in order."""
    comp_w, means, sds = _mixture_draws(rng, x)
    return (comp_w * _bump(x, means, sds) / (sds * math.sqrt(2.0 * math.pi))).sum(axis=0)


def _random_density(rng, template: Grid, broad: bool = False) -> GridDensity:
    if template.dims == 2:
        if broad:
            s, m = rng.uniform(1.0, 1.5, size=2), rng.uniform(-2.0, 2.0, size=2)
            vals = np.outer(*map(_bump, template.axes, m, s))
        else:
            vals = np.outer(*(_mixture_on_axis(rng, x) for x in template.axes))
    elif broad:
        # a wide single bump keeps negative exponents tame; the unused mixture draws keep the stream
        _mixture_draws(rng, template.axes[0])
        s, m = rng.uniform(1.0, 1.5), rng.uniform(-2.0, 2.0)
        vals = _bump(template.axes[0], m, s)
    else:
        vals = _mixture_on_axis(rng, template.axes[0])
    return adopt_normalized(template, vals)


def _random_profile(rng, K: int, template: Grid) -> OpinionProfile:
    return OpinionProfile(tuple(_random_density(rng, template) for _ in range(K)))


def _raised_bump(rng, x: np.ndarray, min_width: float, max_height: float) -> np.ndarray:
    """0.3 plus a bump: centre in [-3, 3], width in [min_width, 2], height in [0.5, max_height]."""
    c = rng.uniform(-3.0, 3.0)
    s = rng.uniform(min_width, 2.0)
    return 0.3 + rng.uniform(0.5, max_height) * _bump(x, c, s)


def _random_xi0(rng, template: Grid) -> np.ndarray:
    """Bounded, strictly positive calibration function on the grid, a product of axis parts."""
    parts = [_raised_bump(rng, x, 0.8, 1.5) for x in template.axes]
    return parts[0] if template.dims == 1 else np.outer(*parts)


def _with_companions(spec: PoolingSpec, rng, template: Grid) -> PoolingSpec:
    """Fill in the side inputs a kind needs, drawn on the harness grid.

    The caller's spec fixes kind, weights, alpha, dictator and chi; the
    fixed density q0 and the calibration function xi0 are scenario data and
    are redrawn per trial (product-form on 2-D grids, so factorization
    claims are about the agents, not the companion).
    """
    updates = {}
    if "q0" in fields_read(spec.kind):
        broad = spec.kind is PoolingKind.GENERALIZED_MULTIPLICATIVE
        updates["q0"] = _random_density(rng, template, broad=broad)
    if "xi0" in fields_read(spec.kind):
        updates["xi0"] = _random_xi0(rng, template)
    return dataclasses.replace(spec, **updates)


def _random_run(rng, ncells: int, low: int, high: int) -> np.ndarray:
    """Cell mask of one run: its length drawn from [low, high), then its start."""
    length = int(rng.integers(low, high))
    start = int(rng.integers(0, ncells - length + 1))
    mask = np.zeros(ncells, dtype=bool)
    mask[start : start + length] = True
    return mask


def _random_cells_1d(rng, ncells: int, max_total: int = 128) -> np.ndarray:
    mask = np.zeros(ncells, dtype=bool)
    pieces = int(rng.integers(1, 3))
    for _ in range(pieces):
        mask |= _random_run(rng, ncells, 8, 1 + max_total // pieces)
    return mask


def _nodes_of_cells_1d(mask: np.ndarray) -> np.ndarray:
    nodes = np.zeros(mask.size + 1, dtype=bool)
    nodes[:-1] |= mask
    nodes[1:] |= mask
    return nodes


def _disjoint_cell_pair(rng, ncells: int) -> tuple[np.ndarray, np.ndarray]:
    for _ in range(200):
        a = _random_cells_1d(rng, ncells, max_total=64)
        b = _random_cells_1d(rng, ncells, max_total=64)
        if not np.any(_nodes_of_cells_1d(a) & _nodes_of_cells_1d(b)):
            return a, b
    raise RuntimeError("could not draw disjoint events")


def _with_event_mass(template: Grid, cand: GridDensity, events, target: float) -> GridDensity:
    """Node scaling that gives each of the disjoint ``events`` mass ``target``, total one.

    ``target`` must not exceed any event's current mass; scaling down inside
    the events and up outside them keeps every value positive.
    """
    vals = cand.values.copy()
    rest = np.ones(vals.shape, dtype=bool)
    outside = outside_target = 1.0
    for cells in events:
        nodes = _nodes_of_cells_1d(cells)
        scale = target / event_probability(cand, cells)
        covered = float(np.sum(template.quad_weights[nodes] * cand.values[nodes]))
        outside_target -= scale * covered
        outside -= covered
        vals[nodes] *= scale
        rest &= ~nodes
    vals[rest] *= outside_target / outside
    return adopt_normalized(template, vals)


def _matched_mass_profiles(
    rng, template: Grid, events, K: int, copies: int
) -> tuple[OpinionProfile, ...]:
    """``copies`` profiles of K agents whose agents' masses agree on each disjoint event.

    Each agent draws ``copies`` densities, every one scaled to half the least
    event mass among those draws, so the construction never needs a retry.
    """
    agents = []
    for _ in range(K):
        draws = [_random_density(rng, template) for _ in range(copies)]
        target = 0.5 * min(event_probability(q, cells) for q in draws for cells in events)
        agents.append([_with_event_mass(template, q, events, target) for q in draws])
    return tuple(OpinionProfile(members) for members in zip(*agents))


def _random_likelihood(rng, x: np.ndarray) -> np.ndarray:
    """Bounded positive likelihood: a plateau step or a raised Gaussian bump."""
    if rng.random() >= 0.5:
        return _raised_bump(rng, x, 0.5, 2.0)
    ell = np.full_like(x, rng.uniform(0.2, 0.6))
    lo, hi = np.sort(rng.uniform(x[0], x[-1], size=2))
    ell[(x >= lo) & (x <= hi)] += rng.uniform(0.5, 2.0)
    return ell


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _TINY)


def _ratio_spread(ratios: np.ndarray) -> float:
    med = float(np.median(ratios))
    if med == 0.0:
        return float(np.max(np.abs(ratios)))
    return float(np.max(np.abs(ratios / med - 1.0)))


# ---------------------------------------------------------------------------
# per-axiom trial functions; each returns (violation, detail)


def _trial_symmetry(spec, rng, template, K):
    profile = _random_profile(rng, K, template)
    s = _with_companions(spec, rng, template)
    order = rng.permutation(K)
    while K > 1 and np.array_equal(order, np.arange(K)):
        order = rng.permutation(K)
    v = _l1(template, pool(s, profile), pool(s, profile.permuted(order)))
    return v, f"agent order {tuple(int(i) for i in order)} moved the pool by L1 {v:.3g}"


def _trial_zero_preservation(spec, rng, template, K):
    cells = _random_cells_1d(rng, template.shape[0] - 1)
    nodes = _nodes_of_cells_1d(cells)
    members = []
    for _ in range(K):
        vals = _random_density(rng, template).values.copy()
        vals[nodes] = 0.0
        members.append(adopt_normalized(template, vals))
    profile = OpinionProfile(tuple(members))
    s = _with_companions(spec, rng, template)
    v = abs(event_probability(pool(s, profile), cells))
    return v, f"all-agents-null event of {int(cells.sum())} cells got fused mass {v:.3g}"


def _trial_unanimity(spec, rng, template, K):
    q = _random_density(rng, template)
    profile = OpinionProfile((q,) * K)
    s = _with_companions(spec, rng, template)
    v = _l1(template, pool(s, profile), q)
    return v, f"unanimous profile fused L1 {v:.3g} away from the shared pdf"


def _event_function_residual(spec, rng, template, K, cross_events: bool):
    s = _with_companions(spec, rng, template)
    cells = _random_cells_1d(rng, template.shape[0] - 1)
    profile = _random_profile(rng, K, template)
    fused_mass = event_probability(pool(s, profile), cells)
    parts = []

    # constructive anchors where the combining function is known in closed form
    agent_masses = np.array([event_probability(q, cells) for q in profile.densities])
    if spec.exponent == 1.0 and spec.w0 is None:
        parts.append(abs(fused_mass - float(np.dot(spec.weights, agent_masses))))
    elif spec.kind is PoolingKind.DICTATORSHIP:
        parts.append(abs(fused_mass - agent_masses[spec.dictator - 1]))
    elif not cross_events and spec.kind is PoolingKind.GENERALIZED_LINEAR:
        anchor = spec.w0 * event_probability(s.q0, cells) + float(
            np.dot(spec.weights, agent_masses)
        )
        parts.append(abs(fused_mass - anchor))
    elif not cross_events and spec.kind is PoolingKind.DOGMATIC:
        parts.append(abs(fused_mass - event_probability(s.q0, cells)))

    # same event, two engineered profiles with identical per-agent masses
    left, right = _matched_mass_profiles(rng, template, [cells], K, copies=2)
    parts.append(
        abs(
            event_probability(pool(s, left), cells)
            - event_probability(pool(s, right), cells)
        )
    )

    if cross_events:
        cells_a, cells_b = _disjoint_cell_pair(rng, template.shape[0] - 1)
        (both,) = _matched_mass_profiles(rng, template, [cells_a, cells_b], K, copies=1)
        fused = pool(s, both)
        parts.append(
            abs(event_probability(fused, cells_a) - event_probability(fused, cells_b))
        )

    v = max(parts)
    kind = "event/profile pairs" if cross_events else "matched-mass profiles"
    return v, f"fused event mass drifted {v:.3g} across {kind}"


def _pick_probes(rng, n: int, count: int) -> np.ndarray:
    lo = int(0.1 * n)
    hi = int(0.9 * n)
    return rng.choice(np.arange(lo, hi), size=count, replace=False)


def _trial_local_values(spec, rng, template, K):
    """Equal agent values at two states should give equal fused values."""
    s = _with_companions(spec, rng, template)
    x = template.axes[0]
    for _ in range(40):
        probes = _pick_probes(rng, template.shape[0], 2 * PROBE_PAIRS)
        src, dst = probes[:PROBE_PAIRS], probes[PROBE_PAIRS:]
        bump = _bump(x, rng.uniform(-2.0, 2.0), rng.uniform(1.5, 3.0))
        bump[probes] = 0.0
        members = []
        for q in _random_profile(rng, K, template).densities:
            vals = q.values.copy()
            vals[dst] = vals[src]
            deficit = 1.0 - template.integral(vals)
            denom = template.integral(vals, bump)
            if abs(denom) < 1e-9 or abs(deficit / denom) * float(bump.max()) >= 0.9:
                break
            members.append(adopt_normalized(template, vals * (1.0 + deficit / denom * bump)))
        else:
            break
    else:
        return 0.0, "no admissible probe construction"
    fused = pool(s, OpinionProfile(tuple(members))).values
    v = max(_rel_diff(float(fused[a]), float(fused[b])) for a, b in zip(src, dst))
    return v, f"fused values differ by {v:.3g} at states where all agents agree"


def _modulated(template: Grid, base: OpinionProfile, b1, b2) -> list[GridDensity] | None:
    """Members q (1 + amp b1 + t b2), t keeping each integral, at the largest amp of
    0.25, 0.125, ... above 1e-3 that keeps every factor above 0.1; None if none does."""
    amp = 0.25
    while amp > 1e-3:
        members = []
        for q in base.densities:
            denom = template.integral(q.values, b2)
            if abs(denom) < 1e-9:
                break
            t = -amp * template.integral(q.values, b1) / denom
            mod = 1.0 + amp * b1 + t * b2
            if mod.min() <= 0.1:
                break
            members.append(adopt_normalized(template, q.values * mod))
        else:
            return members
        amp *= 0.5
    return None


def _trial_local_values_two_profiles(spec, rng, template, K):
    """Profiles agreeing at probe states should fuse proportionally there."""
    s = _with_companions(spec, rng, template)
    x = template.axes[0]
    base = _random_profile(rng, K, template)
    for _ in range(40):
        probes = _pick_probes(rng, template.shape[0], PROBE_PAIRS)
        c1, c2 = rng.uniform(-3.0, 3.0, size=2)
        s1, s2 = rng.uniform(0.8, 2.0, size=2)
        b1, b2 = _bump(x, c1, s1), _bump(x, c2, s2)
        b1[probes] = b2[probes] = 0.0
        members = _modulated(template, base, b1, b2)
        if members is not None:
            break
    else:
        return 0.0, "no admissible modulation found"
    fused_base = pool(s, base).values[probes]
    fused_mod = pool(s, OpinionProfile(tuple(members))).values[probes]
    v = _ratio_spread(fused_mod / fused_base)
    return v, f"probe-state fused ratio varies by {v:.3g} across profiles"


def _trial_independence(spec, rng, template, K):
    s = _with_companions(spec, rng, template)
    profile = _random_profile(rng, K, template)
    n1, n2 = template.shape
    ia, ib = (_random_run(rng, n - 1, 4, max(5, (n - 1) // 3)) for n in (n1, n2))
    full1 = np.ones(n1 - 1, dtype=bool)
    full2 = np.ones(n2 - 1, dtype=bool)
    fused = pool(s, profile)
    pa = event_probability(fused, np.outer(ia, full2))
    pb = event_probability(fused, np.outer(full1, ib))
    pab = event_probability(fused, np.outer(ia, ib))
    v = abs(pab - pa * pb)
    return v, f"axis events: P(AB)={pab:.4g} vs P(A)P(B)={pa * pb:.4g}"


def _trial_factorization(spec, rng, template, K):
    s = _with_companions(spec, rng, template)
    profile = _random_profile(rng, K, template)
    fused = pool(s, profile)
    marg1, marg2 = template.marginals(fused.values)
    v = template.integral(np.abs(fused.values - np.outer(marg1, marg2)))
    return v, f"fused pdf is L1 {v:.3g} from the product of its marginals"


def _updated(profile: OpinionProfile, ells) -> OpinionProfile:
    return OpinionProfile(tuple(bayes_update(q, e) for q, e in zip(profile.densities, ells)))


def _trial_update(spec, rng, template, K, single_agent: bool):
    """Updating every agent (A10) or one random agent (A11) by a likelihood
    should equal updating the pool by it."""
    s = _with_companions(spec, rng, template)
    profile = _random_profile(rng, K, template)
    ell = _random_likelihood(rng, template.axes[0])
    ells = [ell] * K
    detail = "update-then-pool vs pool-then-update differ by L1"
    if single_agent:
        j = int(rng.integers(K))
        ells = [np.ones(template.shape[0])] * K
        ells[j] = ell
        detail = f"agent {j + 1} update propagated with L1 error"
    after = pool(s, _updated(profile, ells))
    before = bayes_update(pool(s, profile), ell)
    v = _l1(template, after, before)
    return v, f"{detail} {v:.3g}"


def _combined_likelihood(spec: PoolingSpec, ells) -> np.ndarray | None:
    """The fused likelihood in closed form, or None for pools without one."""
    if spec.exponent == 0.0:  # a geometric pool: prod ell_k^w_k, unit weights when the spec has none
        w = np.ones(len(ells)) if spec.weights is None else spec.weights
        return np.prod([e**wk for e, wk in zip(ells, w)], axis=0)
    if spec.kind is PoolingKind.DICTATORSHIP:
        return np.asarray(ells[spec.dictator - 1])
    if spec.kind is PoolingKind.DOGMATIC:
        return np.ones_like(np.asarray(ells[0]))
    return None


def _trial_fused_likelihood(spec, rng, template, K):
    s = _with_companions(spec, rng, template)
    profile = _random_profile(rng, K, template)
    ells = [_random_likelihood(rng, template.axes[0]) for _ in range(K)]
    after = pool(s, _updated(profile, ells))
    combined = _combined_likelihood(spec, ells)
    if combined is not None:
        before = bayes_update(pool(s, profile), combined)
        v = _l1(template, after, before)
        return v, f"closed-form fused likelihood misses by L1 {v:.3g}"
    # no closed form: the implied fused likelihood must not depend on the profile
    other = _random_profile(rng, K, template)
    after2 = pool(s, _updated(other, ells))
    n = template.shape[0]
    sl = slice(int(0.05 * n), int(0.95 * n))
    h1 = after.values[sl] / pool(s, profile).values[sl]
    h2 = after2.values[sl] / pool(s, other).values[sl]
    v = _ratio_spread(h1 / h2)
    return v, f"implied fused likelihood varies by {v:.3g} between profiles"


_TRIALS = {
    Axiom.A1: _trial_symmetry,
    Axiom.A2: _trial_zero_preservation,
    Axiom.A3: _trial_unanimity,
    Axiom.A4: functools.partial(_event_function_residual, cross_events=True),
    Axiom.A5: functools.partial(_event_function_residual, cross_events=False),
    Axiom.A6: _trial_local_values,
    Axiom.A7: _trial_local_values_two_profiles,
    Axiom.A8: _trial_independence,
    Axiom.A9: _trial_factorization,
    Axiom.A10: functools.partial(_trial_update, single_agent=False),
    Axiom.A11: functools.partial(_trial_update, single_agent=True),
    Axiom.A12: _trial_fused_likelihood,
}


def check_axiom(
    spec: PoolingSpec,
    axiom: Axiom | str,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> AxiomCheckReport:
    """Run randomized trials of one axiom's identity against one pooling rule.

    Parameters
    ----------
    spec : PoolingSpec
        The rule under test. Its q0/xi0 companions, when the kind takes
        them, are redrawn on the harness grid each trial.
    axiom : Axiom or str
        Which identity to evaluate.
    trials : int
        Number of independent random scenarios.
    seed : int
        Seed for the scenario stream, a whole number >= 0; identical
        inputs give identical reports.
    tol : float
        Largest residual still counted as agreement. Probabilities are
        compared absolutely, densities in L1, fused-value ratios
        relatively.

    Raises
    ------
    ValueError
        Unless trials is a whole number >= 1, seed a whole number >= 0 and
        tol finite and nonnegative.
    UnsupportedAxiomError
        For A2 where the spec's `needs_positive` holds: zero-probability
        events cannot arise for a rule that needs a positive profile.
    """
    axiom = Axiom(axiom) if not isinstance(axiom, Axiom) else axiom
    trials = whole_number(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    seed = whole_number(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    if axiom is Axiom.A2 and spec.needs_positive:
        raise UnsupportedAxiomError(
            f"{spec.kind.value} pooling requires a strictly positive profile; "
            "zero-probability events cannot arise"
        )
    template = GRID_2D if axiom in _TWO_DIM_AXIOMS else GRID_1D
    K = _agent_count(spec)
    fn = _TRIALS[axiom]
    rng = np.random.default_rng(seed)
    worst = (0.0, 0, "no violation found")
    for i in range(trials):
        violation, detail = fn(spec, rng, template, K)
        if violation > worst[0]:
            worst = (violation, i, detail)
    passed = worst[0] <= tol
    counterexample = None
    if not passed:
        counterexample = AxiomCounterexample(trial=worst[1], seed=seed, detail=worst[2])
    return AxiomCheckReport(
        axiom=axiom,
        pooling=spec,
        trials=trials,
        max_violation=worst[0],
        passed=passed,
        counterexample=counterexample,
    )
