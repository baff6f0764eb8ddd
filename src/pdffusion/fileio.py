"""Reading and writing densities, Gaussians and fusion models.

Grid densities travel as CSV with a single header line
``# dims,lower...,upper...,shape...`` followed by one value per line, one
line per node in row-major order; a line with several values is rejected.
Gaussians and linear fusion models travel as JSON, written by one writer.
`gaussian_payload` alone makes the ``{"mean", "cov"}`` object that Gaussian
files and the command line's moments and posteriors share. All floats are
written with 17 significant digits so files round-trip bit-exactly and
outputs are byte-reproducible.
"""

from __future__ import annotations

import json
import warnings
from typing import TYPE_CHECKING

import numpy as np

from .gaussian import Gaussian
from .grid import Grid, GridDensity

if TYPE_CHECKING:  # supra is imported by the model functions, so density I/O does not load it
    from .supra import LinearGaussianModel

FLOAT_FMT = "%.17g"


def write_density_csv(path, d: GridDensity) -> None:
    grid = d.grid
    bounds = [FLOAT_FMT % v for v in grid.lower + grid.upper]
    header = "# " + ",".join([str(grid.dims), *bounds, *map(str, grid.shape)]) + "\n"
    values = d.values.ravel().tolist()
    with open(path, "w") as fh:
        fh.write(header + (FLOAT_FMT + "\n") * len(values) % tuple(values))


def read_density_csv(path) -> GridDensity:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# dims,lower...,upper...,shape...' header")
        fields = header.lstrip("#").split(",")
        try:
            dims = int(fields[0])
            lower = [float(v) for v in fields[1 : 1 + dims]]
            upper = [float(v) for v in fields[1 + dims : 1 + 2 * dims]]
            shape = tuple(int(v) for v in fields[1 + 2 * dims :])
        except ValueError as exc:
            raise ValueError(f"{path}: bad header field: {exc}") from None
        if len(fields) != 1 + 3 * dims:
            raise ValueError(f"{path}: header has {len(fields)} fields, expected {1 + 3 * dims}")
        with warnings.catch_warnings():
            # a file without values is reported below, with its grid shape
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if values.shape[1] != 1:
        raise ValueError(f"{path}: {values.shape[1]} values on a line; the format has one per line")
    values = values.reshape(-1)
    if values.size != int(np.prod(shape)):
        raise ValueError(f"{path}: {values.size} values for grid shape {shape}")
    # a file that integrates to one reads as normalized (GridDensity.normalized),
    # so it can enter operations that insist on normalized inputs
    return GridDensity(Grid(lower, upper, shape), values)


def _json_fields(path, *names) -> list:
    """The fields ``names`` of the JSON object in ``path``, in order."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    for name in names:
        if not isinstance(payload, dict) or name not in payload:
            raise ValueError(f"{path}: expected a JSON object with field {name!r}")
    return [payload[name] for name in names]


def _float_array(path, name: str, value) -> np.ndarray:
    """``value``, the JSON field ``name`` of ``path``, as a float64 array of JSON numbers only."""
    try:
        leaves = np.asarray(value, dtype=object)
        # type(True) is bool: numpy alone would read true and "2.0" as numbers
        if all(type(x) in (int, float) for x in leaves.flat):
            return leaves.astype(np.float64)
    except (ValueError, OverflowError):  # ragged nesting, or an integer beyond float range
        pass
    raise ValueError(f"{path}: field {name!r} is not an array of numbers")


def gaussian_payload(mean: np.ndarray, cov: np.ndarray) -> dict:
    """The JSON object of a Gaussian, or of a density's moments: ``{"mean": [...], "cov": [[...]]}``."""
    return {"mean": mean.tolist(), "cov": cov.tolist()}


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def write_gaussian_json(path, g: Gaussian) -> None:
    _write_json(path, gaussian_payload(g.mean, g.cov))


def read_gaussian_json(path) -> Gaussian:
    mean, cov = _json_fields(path, "mean", "cov")
    return Gaussian(_float_array(path, "mean", mean), _float_array(path, "cov", cov))


# a model file's fields besides H_blocks, in the order LinearGaussianModel takes them
_MODEL_ARRAYS = ("Sigma", "prior_mean", "prior_cov")


def write_model_json(path, model: LinearGaussianModel) -> None:
    arrays = {name: getattr(model, name).tolist() for name in _MODEL_ARRAYS}
    _write_json(path, {"H_blocks": [h.tolist() for h in model.H_blocks], **arrays})


def read_model_json(path) -> LinearGaussianModel:
    from .supra import LinearGaussianModel

    blocks, *rest = _json_fields(path, "H_blocks", *_MODEL_ARRAYS)
    if not isinstance(blocks, list):
        raise ValueError(f"{path}: field 'H_blocks' is not a list of matrices")
    return LinearGaussianModel(
        tuple(_float_array(path, f"H_blocks[{i}]", b) for i, b in enumerate(blocks)),
        *(_float_array(path, name, value) for name, value in zip(_MODEL_ARRAYS, rest)),
    )
