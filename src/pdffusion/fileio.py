"""Reading and writing densities, Gaussians and fusion models; no other module knows a byte format.

Density CSV: a header line ``# dims,lower...,upper...,shape...``, then one value
per line, one line per node in row-major order; several values on a line, or
values all zero, are rejected. The fig4 table: a line of column names, then one
comma-separated row per node; both CSVs come from one row writer, `write_rows`.
JSON files (Gaussians, linear fusion models) and the command line's result and
error lines are each one `json_line`; `gaussian_payload` alone makes the
``{"mean", "cov"}`` object of Gaussian files, moments and posteriors, and
`read_density` reads a ``.json`` file as a Gaussian, any other as a density CSV.
Floats are written with 17 significant digits so files round-trip bit-exactly
and outputs are byte-reproducible.

One writer, `_write_text`, rewrites an existing file in place, without
truncating it first: it stays the same file with the same mode, a symlink is
followed, and a longer regular file is cut to the new length. So a call killed
mid-write can leave the new bytes followed by the old file's tail.
"""

from __future__ import annotations

import json
import os
import stat
import warnings
from typing import TYPE_CHECKING

import numpy as np

from .errors import FusionError
from .gaussian import Gaussian
from .grid import Grid, GridDensity, from_samples

if TYPE_CHECKING:  # supra is imported by the model functions, so density I/O does not load it
    from .supra import LinearGaussianModel

FLOAT_FMT = "%.17g"


def json_line(payload) -> str:
    """``payload`` as one line of JSON with sorted keys: the form of every JSON file and printed line."""
    return json.dumps(payload, sort_keys=True)


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` in place (see the module docstring): the one writer of every file."""
    data = text.encode()
    # not truncated on open: freeing the old blocks took 35 to 70 ms a call on ext4 mounted with discard
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        st = os.fstat(fh.fileno())
        # the byte count, not tell(): a pipe or a device has no position
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            fh.truncate(len(data))


def write_rows(path, header: str, data: np.ndarray) -> None:
    """Write the line ``header``, then each row of the 2-D ``data`` as comma-separated FLOAT_FMT values."""
    row = ",".join([FLOAT_FMT] * data.shape[1]) + "\n"
    _write_text(path, header + "\n" + row * len(data) % tuple(data.ravel().tolist()))


def write_density_csv(path, d: GridDensity) -> None:
    grid = d.grid
    bounds = [FLOAT_FMT % v for v in grid.lower + grid.upper]
    write_rows(path, "# " + ",".join([str(grid.dims), *bounds, *map(str, grid.shape)]), d.values.reshape(-1, 1))


def _from_file(path, build, *args, **kwargs):
    """``build(*args, **kwargs)`` on what ``path`` holds; its error is raised again, same class, path in front."""
    try:
        return build(*args, **kwargs)
    except (FusionError, ValueError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


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
        # the header's grid before its values, so that a bad grid is reported as itself
        _from_file(path, Grid, lower, upper, shape)
        with warnings.catch_warnings():
            # a file without values is reported below, with its grid shape
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = _from_file(path, np.loadtxt, fh, dtype=np.float64, ndmin=2)
    if values.shape[1] != 1:
        raise ValueError(f"{path}: {values.shape[1]} values on a line; the format has one per line")
    values = values.reshape(-1)
    if values.size != int(np.prod(shape)):
        raise ValueError(f"{path}: {values.size} values for grid shape {shape}")
    # a file that integrates to one reads as normalized (GridDensity.normalized),
    # so it can enter operations that insist on normalized inputs
    return _from_file(path, from_samples, lower, upper, shape, values)


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
    _write_text(path, json_line(payload) + "\n")


def write_gaussian_json(path, g: Gaussian) -> None:
    _write_json(path, gaussian_payload(g.mean, g.cov))


def read_gaussian_json(path) -> Gaussian:
    mean, cov = _json_fields(path, "mean", "cov")
    return _from_file(path, Gaussian, _float_array(path, "mean", mean), _float_array(path, "cov", cov))


def read_density(path) -> GridDensity | Gaussian:
    """A Gaussian from a ``.json`` file, a grid density from any other (a density CSV)."""
    if str(path).endswith(".json"):
        return read_gaussian_json(path)
    return read_density_csv(path)


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
    return _from_file(
        path,
        LinearGaussianModel,
        tuple(_float_array(path, f"H_blocks[{i}]", b) for i, b in enumerate(blocks)),
        *(_float_array(path, name, value) for name, value in zip(_MODEL_ARRAYS, rest)),
    )
