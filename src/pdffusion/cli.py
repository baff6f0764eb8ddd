"""Command line front end.

Subcommands: ``pool``, ``divergence``, ``weights``, ``axiom-check``,
``supra`` and ``fig4``. Densities are read from grid CSV or Gaussian
JSON files; results go to files or stdout. Identical inputs and seeds
produce byte-identical outputs.

Exit codes: 0 success (including an axiom check that finds violations),
1 stdout's reader went away (nothing is printed), 2 invalid input,
3 numerical failure, 4 non-convergence. Failures other than status 1
print one JSON object with "error" and "message" on stderr.

A call executes only the modules its subcommand runs: the shared ones are
imported below, and ``divergence``, ``weights``, ``axioms`` and ``supra``
are executed on their first attribute access (see ``_deferred``).

``run`` is the process entry of ``python -m pdffusion.cli`` and of the
``pdffusion`` console script: it ends the process once the call's output is
out, without interpreter teardown, so ``atexit`` handlers do not run. Code
that embeds the CLI, and its tests, call the click group ``main``, which
never ends the process itself.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import inspect
import json
import os
import sys
from typing import NoReturn

import click
import numpy as np

from .errors import (
    BoundednessError,
    DegenerateError,
    FusionError,
    NonConvergenceError,
    RankError,
    SingularityError,
)
from .fileio import FLOAT_FMT, gaussian_payload, read_density_csv, read_gaussian_json, read_model_json, write_density_csv
from .gaussian import Gaussian, common_grid
from .grid import OpinionProfile, moments
from .pooling import ChiKind, ChiTransform, PoolingKind, PoolingSpec, pool


def _deferred(name: str):
    """The submodule ``name`` of this package, executed on first attribute access.

    An imported module is returned as it is. Otherwise ``sys.modules`` gets an
    ``importlib.util.LazyLoader`` stub, so code that reads the module from
    there (or imports it) finds it before it runs. Only this single-threaded
    command line process defers modules this way: before Python 3.12 the
    first touch of a lazily loaded module is not thread-safe.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


axmod = _deferred("axioms")
divmod_ = _deferred("divergence")
supmod = _deferred("supra")
wmod = _deferred("weights")


class _EnumChoice(click.Choice):
    """The values of the enum ``module.<enum_name>``, read the first time a call needs them.

    Declaring the option thus executes no deferred module; parsing, checking or
    documenting it does, and prints what ``click.Choice`` of the values prints.
    """

    def __init__(self, module, enum_name: str):
        super().__init__(())
        del self.choices  # now read through the cached property
        self._enum = (module, enum_name)

    @functools.cached_property
    def choices(self):
        module, enum_name = self._enum
        return tuple(k.value for k in getattr(module, enum_name))


_NUMERICAL = (DegenerateError, SingularityError, BoundednessError, RankError)


def _fail(code: int, exc: BaseException) -> None:
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True)
    click.echo(line, err=True)
    sys.exit(code)


def wrap_errors(fn):
    """Map library exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NonConvergenceError as exc:
            _fail(4, exc)
        except _NUMERICAL as exc:
            _fail(3, exc)
        except BrokenPipeError:  # stdout's reader went away: click ends the call with status 1
            raise
        except (FusionError, ValueError, IndexError, OSError) as exc:
            _fail(2, exc)
        except MemoryError as exc:  # numpy raises a private subclass; the line names the builtin
            _fail(2, MemoryError(str(exc)))

    return inner


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise ValueError(f"could not parse {text!r} as comma-separated numbers")


def _grid_points() -> int | None:
    """Nodes per axis for grids built from Gaussians; None keeps the defaults."""
    points = os.environ.get("FUSION_GRID_POINTS")
    return None if points is None else int(points)


def _load_density(path):
    """Grid CSV or Gaussian JSON, told apart by extension."""
    if str(path).endswith(".json"):
        return read_gaussian_json(path)
    return read_density_csv(path)


def _load_on_common_grid(paths, *loaded):
    """Load densities and put them, and any already ``loaded`` ones, on one shared grid."""
    return common_grid(*(_load_density(p) for p in paths), *loaded, points=_grid_points())


def _chi_from_flags(chi: str | None, chi_alpha: float | None) -> ChiTransform | None:
    """The ``--chi`` transform; ``ChiTransform`` rejects an exponent its kind does not read."""
    if chi is None:
        if chi_alpha is not None:
            raise ValueError("--chi-alpha requires --chi power")
        return None
    kind = ChiKind(chi)
    if kind is ChiKind.POWER and chi_alpha is None:
        raise ValueError("--chi power requires --chi-alpha")
    return ChiTransform(kind, alpha=chi_alpha)


def _build_spec(kind, weights, alpha, w0, dictator, chi, chi_alpha, q0=None, xi0=None):
    """A PoolingSpec from the pooling flags; ``q0`` and ``xi0`` are loaded densities."""
    return PoolingSpec(
        kind=PoolingKind(kind),
        weights=_parse_floats(weights) if weights else None,
        alpha=alpha,
        q0=q0,
        w0=w0,
        xi0=None if xi0 is None else xi0.values,
        dictator=dictator,
        chi=_chi_from_flags(chi, chi_alpha),
    )


def _given(**flags) -> dict:
    """The flags set on the command line, so the library's defaults apply to the rest."""
    return {name: value for name, value in flags.items() if value is not None}


def _json_line(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


# the flags that define a pooling rule; `pool` adds its --q0 and --xi0 files
_POOLING_FLAGS = [
    click.option("--kind", required=True, type=click.Choice([k.value for k in PoolingKind])),
    click.option("--weights", default=None, help="comma-separated agent weights"),
    click.option("--alpha", type=float, default=None),
    click.option("--w0", type=float, default=None),
    click.option("--dictator", type=int, default=None),
    click.option("--chi", type=click.Choice([c.value for c in ChiKind]), default=None),
    click.option("--chi-alpha", type=float, default=None),
]


def pooling_flags(fn):
    for flag in reversed(_POOLING_FLAGS):
        fn = flag(fn)
    return fn


@click.group()
def main():
    """Fuse probability densities and inspect the fused results."""


@main.command("pool")
@pooling_flags
@click.option("--q0", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--xi0", type=click.Path(exists=True, dir_okay=False), help="calibration grid CSV")
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", required=True, type=click.Path(dir_okay=False))
@wrap_errors
def pool_cmd(kind, weights, alpha, w0, dictator, chi, chi_alpha, q0, xi0, inputs, output):
    """Fuse agent densities; writes the fused CSV and prints its moments.

    The agents, --q0 and --xi0 share one grid; a CSV on another grid is rejected.
    """
    xi0d = None if xi0 is None else read_density_csv(xi0)
    paths = inputs + (() if q0 is None else (q0,))
    densities = _load_on_common_grid(paths, *(() if xi0d is None else (xi0d,)))
    profile = OpinionProfile(densities[: len(inputs)])
    q0d = None if q0 is None else densities[len(inputs)]
    spec = _build_spec(kind, weights, alpha, w0, dictator, chi, chi_alpha, q0=q0d, xi0=xi0d)
    fused = pool(spec, profile)
    payload = gaussian_payload(*moments(fused))  # before writing: moments refuses an unnormalized pool
    write_density_csv(output, fused)
    click.echo(_json_line(payload))


@main.command("divergence")
@click.option("--kind", required=True, type=_EnumChoice(divmod_, "DivergenceKind"))
@click.option("--alpha", type=float, default=None)
@click.option("--chi", type=click.Choice([c.value for c in ChiKind]), default=None)
@click.option("--chi-alpha", type=float, default=None)
@click.argument("inputs", nargs=2, type=click.Path(exists=True, dir_okay=False))
@wrap_errors
def divergence_cmd(kind, alpha, chi, chi_alpha, inputs):
    """Divergence between two densities; prints one number."""
    spec = divmod_.DivergenceSpec(
        divmod_.DivergenceKind(kind), alpha=alpha, chi=_chi_from_flags(chi, chi_alpha)
    )
    value = divmod_.evaluate(spec, *_load_on_common_grid(inputs))
    click.echo(FLOAT_FMT % value)


@main.command("weights")
@click.option(
    "--method",
    required=True,
    type=click.Choice(["min-kld", "discrepancy", "ci"]),
)
@click.option(
    "--criterion",
    type=_EnumChoice(wmod, "CICriterion"),
    default=None,
    help="ci only; trace when unset",
)
@click.option("--max-iter", type=int, default=None, help="min-kld and ci only; 500 when unset")
@click.option("--tol", type=float, default=None, help="min-kld and ci only; 1e-6 when unset")
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@wrap_errors
def weights_cmd(method, criterion, max_iter, tol, inputs):
    """Select pooling weights; prints a WeightResult as JSON. min-kld and ci weights,
    objective and iterations are fixed only by --tol: their trailing digits and the
    iteration count follow summation order and are not byte-stable. A flag the
    method does not read exits 2."""
    select = getattr(wmod, method.replace("-", "_") + "_weights")
    criterion = None if criterion is None else wmod.CICriterion(criterion)
    given = _given(criterion=criterion, max_iter=max_iter, tol=tol)
    for name in given:
        if name not in inspect.signature(select).parameters:
            raise ValueError(f"{method} weights do not take --{name.replace('_', '-')}")
    if method == "ci":
        result = select([read_gaussian_json(p) for p in inputs], **given)
    else:
        result = select(OpinionProfile(_load_on_common_grid(inputs)), **given)
        if method == "discrepancy":
            click.echo(_json_line({"weights": result.tolist()}))
            return
    payload = dataclasses.asdict(result)  # the printed form predates the evaluation count and keeps its fields
    del payload["evaluations"]
    click.echo(_json_line({**payload, "weights": result.weights.tolist()}))


@main.command("axiom-check")
@pooling_flags
@click.option("--axiom", required=True, type=_EnumChoice(axmod, "Axiom"))
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--tol", type=float, default=None)
@wrap_errors
def axiom_check_cmd(kind, weights, alpha, w0, dictator, chi, chi_alpha, axiom, trials, seed, tol):
    """Check one axiom against one pooling rule; prints the report as JSON.

    The harness draws its own profiles and q0/xi0 companions. A completed
    check exits 0 whether or not violations were found; the verdict is the
    "passed" field.
    """
    spec = _build_spec(kind, weights, alpha, w0, dictator, chi, chi_alpha)
    report = axmod.check_axiom(spec, axiom, seed=seed, **_given(trials=trials, tol=tol))
    payload = dataclasses.asdict(report)  # the report, its spec named by kind
    del payload["pooling"]
    click.echo(_json_line({**payload, "axiom": report.axiom.value, "kind": spec.kind.value}))


@main.command("supra")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option(
    "--private-shared",
    "private_shared",
    default=None,
    help="r0,r1,...,rK noise dimension counts; shorthand for the partly shared noise model",
)
@click.option("--y", "y_text", default=None, help="comma-separated stacked observation vector")
@click.option("--scalar", "mode", flag_value="scalar", default=None)
@click.option("--vector", "mode", flag_value="vector", default=None)
@wrap_errors
def supra_cmd(model_path, private_shared, y_text, mode):
    """Fuse local estimates of a linear Gaussian model; prints JSON.

    Without observations only the fusion weights and structural matrices
    are reported; with --y the fused posterior (and, when the joint noise
    covariance is invertible, the all-data oracle) is included. --scalar and
    --vector only choose the payload shape of the one fusion.
    """
    if (model_path is None) == (private_shared is None):
        raise ValueError("provide exactly one of --model or --private-shared")
    if model_path is not None:
        model = read_model_json(model_path)
    else:
        counts = _parse_floats(private_shared)
        if len(counts) < 2:
            raise ValueError("--private-shared needs r0 plus at least one agent count")
        model = supmod.private_shared_model(len(counts) - 1, counts[0], counts[1:])
    if mode is None:
        mode = "scalar" if model.d_theta == 1 else "vector"

    y = None
    if y_text is not None:
        y = _parse_floats(y_text)
        t, _ = supmod.local_statistics(model, y)
    else:
        t = np.zeros(model.K * model.d_theta)

    res = (supmod.scalar_fusion if mode == "scalar" else supmod.vector_fusion)(model, t, y)
    payload = {
        "mode": mode,
        "sigma_hat_inv": res.Sigma_hat_inv.tolist(),
        "sigma_tilde": res.Sigma_tilde.tolist(),
    }
    if mode == "scalar":
        payload["weights"] = res.scalar_weights.tolist()
    else:
        payload["weights"] = [w.tolist() for w in res.vector_weights]
        payload["G"] = res.G.tolist()
    if y is not None:
        payload["posterior"] = gaussian_payload(res.posterior.mean, res.posterior.cov)
        payload["oracle"] = None if res.oracle is None else gaussian_payload(res.oracle.mean, res.oracle.cov)
    click.echo(_json_line(payload))


# power-mean exponents of the fig4 sweep; 0 stands for the log-linear limit
FIG4_ALPHAS = (-1.0, 0.0, 0.5, 1.0, 2.0)


def _fig4_panel(path, g1: Gaussian, g2: Gaussian) -> None:
    from .pooling import holder_pool, log_linear_pool

    q1, q2 = common_grid(g1, g2, points=_grid_points())
    profile = OpinionProfile((q1, q2))
    w = np.array([0.5, 0.5])
    columns = {"theta": q1.grid.axes[0], "q1": q1.values, "q2": q2.values}
    for alpha in FIG4_ALPHAS:
        if alpha == 0.0:
            columns["log_linear"] = log_linear_pool(profile, w).values
        else:
            columns[f"holder_alpha_{alpha:g}"] = holder_pool(profile, w, alpha).values
    names = list(columns)
    data = np.column_stack([columns[c] for c in names])
    row = ",".join([FLOAT_FMT] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n" + row * len(data) % tuple(data.ravel().tolist()))


@main.command("fig4")
@click.option("--output-dir", "-d", default=".", type=click.Path(file_okay=False))
@wrap_errors
def fig4_cmd(output_dir):
    """Write the two-panel power-mean pooling sweep as plot-ready CSV.

    Panel (a): unit-variance pdfs centered at -2.5 and 2.5. Panel (b):
    pdfs centered at 0 with variances 5 and 0.5. Both fused with equal
    weights at powers -1, 0 (geometric), 0.5, 1 and 2.
    """
    os.makedirs(output_dir, exist_ok=True)
    _fig4_panel(
        os.path.join(output_dir, "fig4a.csv"), Gaussian([-2.5], [[1.0]]), Gaussian([2.5], [[1.0]])
    )
    _fig4_panel(
        os.path.join(output_dir, "fig4b.csv"), Gaussian([0.0], [[5.0]]), Gaussian([0.0], [[0.5]])
    )
    click.echo(_json_line({"written": ["fig4a.csv", "fig4b.csv"], "dir": output_dir}))


def _flushed() -> bool:
    """Whether stdout and stderr flushed; either is None when its descriptor was closed."""
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        return False
    return True


def run() -> NoReturn:
    """Run one call of ``main``; once stdout and stderr are flushed, ``os._exit`` with its status.

    Every file a command writes is closed before it returns. A status that is
    not an int, or a failed flush (a broken pipe), ends the call through
    ``SystemExit`` and the interpreter's teardown instead.
    """
    try:
        main()  # in standalone mode click never returns: it raises SystemExit
    except SystemExit as exc:
        status = exc.code
    if isinstance(status, int) and _flushed():
        os._exit(status)
    raise SystemExit(status)


if __name__ == "__main__":
    run()
