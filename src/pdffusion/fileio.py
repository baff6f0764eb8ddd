"""Reading and writing densities, Gaussians and fusion models.

Grid densities travel as CSV with a single header line
``# dims,lower...,upper...,shape...`` followed by one value per node in
row-major order. Gaussians and linear fusion models travel as JSON.
All floats are written with 17 significant digits so files round-trip
bit-exactly and outputs are byte-reproducible.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .gaussian import Gaussian
from .grid import Grid, GridDensity
from .supra import LinearGaussianModel

FLOAT_FMT = "%.17g"


def write_density_csv(path, d: GridDensity) -> None:
    grid = d.grid
    bounds = [FLOAT_FMT % v for v in grid.lower + grid.upper]
    lines = ["# " + ",".join([str(grid.dims), *bounds, *map(str, grid.shape)])]
    lines.extend(FLOAT_FMT % v for v in d.values.ravel())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_density_csv(path) -> GridDensity:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing '# dims,lower...,upper...,shape...' header")
        fields = header.lstrip("#").split(",")
        dims = int(fields[0])
        if len(fields) != 1 + 3 * dims:
            raise ValueError(f"{path}: header has {len(fields)} fields, expected {1 + 3 * dims}")
        lower = [float(v) for v in fields[1 : 1 + dims]]
        upper = [float(v) for v in fields[1 + dims : 1 + 2 * dims]]
        shape = tuple(int(v) for v in fields[1 + 2 * dims :])
        with warnings.catch_warnings():
            # a file without values is reported below, with its grid shape
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(fh, dtype=np.float64, ndmin=1)
    if values.size != int(np.prod(shape)):
        raise ValueError(f"{path}: {values.size} values for grid shape {shape}")
    # a file that integrates to one reads as normalized (GridDensity.normalized),
    # so it can enter operations that insist on normalized inputs
    return GridDensity(Grid(lower, upper, shape), values)


def write_gaussian_json(path, g: Gaussian) -> None:
    payload = {"mean": g.mean.tolist(), "cov": g.cov.tolist()}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_gaussian_json(path) -> Gaussian:
    with open(path) as fh:
        payload = json.load(fh)
    return Gaussian(payload["mean"], payload["cov"])


def write_model_json(path, model: LinearGaussianModel) -> None:
    payload = {
        "H_blocks": [h.tolist() for h in model.H_blocks],
        "Sigma": model.Sigma.tolist(),
        "prior_mean": model.prior_mean.tolist(),
        "prior_cov": model.prior_cov.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def read_model_json(path) -> LinearGaussianModel:
    with open(path) as fh:
        payload = json.load(fh)
    blocks = tuple(np.asarray(b, dtype=np.float64) for b in payload["H_blocks"])
    return LinearGaussianModel(
        blocks,
        np.asarray(payload["Sigma"], dtype=np.float64),
        np.asarray(payload["prior_mean"], dtype=np.float64),
        np.asarray(payload["prior_cov"], dtype=np.float64),
    )
