from __future__ import annotations

import os
import re
import stat

import numpy as np
import pytest

from pdffusion import fileio
from pdffusion.errors import DimensionError, DomainError, RankError
from pdffusion.gaussian import Gaussian, to_grid
from pdffusion.grid import Grid, GridDensity
from pdffusion.supra import private_shared_model


class TestDensityCsv:
    def test_round_trip_1d(self, tmp_path):
        d = to_grid(Gaussian([0.5], [[2.0]]), [-8.0], [8.0], (256,))
        path = tmp_path / "d.csv"
        fileio.write_density_csv(path, d)
        back = fileio.read_density_csv(path)
        assert back.grid == d.grid
        assert back.grid.shape == (256,)
        np.testing.assert_array_equal(back.values, d.values)
        assert back.normalized

    def test_round_trip_2d(self, tmp_path):
        d = to_grid(Gaussian([0.0, 1.0], np.eye(2)), [-6.0, -5.0], [6.0, 7.0], (33, 49))
        path = tmp_path / "d2.csv"
        fileio.write_density_csv(path, d)
        back = fileio.read_density_csv(path)
        assert back.grid == d.grid
        assert back.grid.shape == (33, 49)
        np.testing.assert_array_equal(back.values, d.values)
        assert back.normalized

    def test_grid_round_trips_bit_exactly(self, tmp_path):
        grid = Grid([-1.0 / 3.0, np.pi], [2.0 / 7.0, 2.0 * np.pi], (17, 19))
        d = GridDensity(grid, np.arange(17.0 * 19.0))
        path = tmp_path / "g.csv"
        fileio.write_density_csv(path, d)
        back = fileio.read_density_csv(path)
        assert back.grid == grid
        assert hash(back.grid) == hash(grid)
        np.testing.assert_array_equal(back.values, d.values)

    def test_unnormalized_not_tagged(self, tmp_path):
        d = GridDensity(Grid([0.0], [1.0], (32,)), np.full(32, 3.0))
        path = tmp_path / "u.csv"
        fileio.write_density_csv(path, d)
        assert not fileio.read_density_csv(path).normalized

    def test_mass_is_integrated_only_when_asked(self, tmp_path, monkeypatch):
        d = to_grid(Gaussian([0.5], [[2.0]]), [-8.0], [8.0], (256,))
        path = tmp_path / "d.csv"
        fileio.write_density_csv(path, d)
        calls = []
        integral = Grid.integral

        def counted(self, *factors, **kwargs):
            calls.append(factors)
            return integral(self, *factors, **kwargs)

        monkeypatch.setattr(Grid, "integral", counted)
        back = fileio.read_density_csv(path)
        assert calls == []
        assert back.normalized
        assert back.normalized
        assert len(calls) == 1

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError):
            fileio.read_density_csv(path)

    @pytest.mark.parametrize(
        "header, error, message",
        [
            ("# 1,-1,1,-16", ValueError, "each dimension needs at least 16 nodes, got (-16,)"),
            ("# 3,0,0,0,1,1,1,16,16,16", DimensionError, "grids support 1 or 2 dimensions, got 3"),
            ("# 1,1,-1,16", DomainError, "upper bounds must exceed lower bounds, got [1.] .. [-1.]"),
        ],
        ids=["negative-count", "three-dims", "upper-below-lower"],
    )
    def test_header_grid_checked_before_the_values(self, tmp_path, header, error, message):
        # a file without values is reported by its grid's fault, not by its value count
        path = tmp_path / "grid.csv"
        path.write_text(header + "\n")
        with pytest.raises(error) as caught:
            fileio.read_density_csv(path)
        assert type(caught.value) is error and str(caught.value) == f"{path}: {message}"

    def test_value_count_checked(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("# 1,0,1,32\n" + "\n".join(["1.0"] * 7) + "\n")
        with pytest.raises(ValueError):
            fileio.read_density_csv(path)

    @pytest.mark.parametrize(
        "body, per_line",
        [("0.5 0.5\n" * 8, 2), (" ".join(["0.0625"] * 16) + "\n", 16)],
        ids=["eight-lines-of-two", "one-line-of-sixteen"],
    )
    def test_several_values_on_a_line_rejected(self, tmp_path, body, per_line):
        # the right number of values, but not one per line
        path = tmp_path / "rows.csv"
        path.write_text("# 1,0,1,16\n" + body)
        with pytest.raises(ValueError, match=f"{per_line} values on a line"):
            fileio.read_density_csv(path)

    def test_one_value_per_line_reads_bit_for_bit(self, tmp_path):
        values = np.random.default_rng(5).lognormal(size=16)
        path = tmp_path / "col.csv"
        path.write_text("# 1,0,1,16\n" + "".join("%.17g\n" % v for v in values))
        np.testing.assert_array_equal(fileio.read_density_csv(path).values, values)

    def test_all_zero_values_are_no_density(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("# 1,-8,8,64\n" + "0\n" * 64)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: density values are all zero$"):
            fileio.read_density_csv(path)


class TestGaussianJson:
    def test_round_trip(self, tmp_path):
        g = Gaussian([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        path = tmp_path / "g.json"
        fileio.write_gaussian_json(path, g)
        back = fileio.read_gaussian_json(path)
        np.testing.assert_array_equal(back.mean, g.mean)
        np.testing.assert_array_equal(back.cov, g.cov)

    def test_bytes_pinned(self, tmp_path):
        path = tmp_path / "g.json"
        fileio.write_gaussian_json(path, Gaussian([0.1], [[2.0]]))
        assert path.read_bytes() == b'{"cov": [[2.0]], "mean": [0.1]}\n'


class TestModelJson:
    def test_round_trip(self, tmp_path):
        model = private_shared_model(3, 4, (1, 4, 4))
        path = tmp_path / "m.json"
        fileio.write_model_json(path, model)
        back = fileio.read_model_json(path)
        assert back.K == 3
        np.testing.assert_array_equal(back.Sigma, model.Sigma)
        for a, b in zip(back.H_blocks, model.H_blocks):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(back.prior_cov, model.prior_cov)

    def test_bytes_pinned(self, tmp_path):
        path = tmp_path / "m.json"
        fileio.write_model_json(path, private_shared_model(2, 1, [1, 1]))
        assert path.read_bytes() == (
            b'{"H_blocks": [[[1.0], [1.0]], [[1.0], [1.0]]], '
            b'"Sigma": [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], '
            b'"prior_cov": [[1.0]], "prior_mean": [0.0]}\n'
        )

    def test_validation_runs_on_read(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"H_blocks": [[[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]], '
            '"Sigma": [[1,0,0],[0,1,0],[0,0,1]], '
            '"prior_mean": [0, 0], "prior_cov": [[1,0],[0,1]]}'
        )
        with pytest.raises(RankError):
            fileio.read_model_json(path)


# each writer with a longer and a shorter value: (write, longer, shorter)
OVERWRITES = {
    "density-csv-2d-then-1d": (
        fileio.write_density_csv,
        to_grid(Gaussian([0.0, 1.0], np.eye(2)), [-6.0, -5.0], [6.0, 7.0], (33, 49)),
        to_grid(Gaussian([0.5], [[2.0]]), [-8.0], [8.0], (64,)),
    ),
    "rows": (
        lambda path, data: fileio.write_rows(path, "x,y,z", data),
        np.linspace(-1.0, 1.0, 60).reshape(20, 3) / 7.0,
        np.arange(6.0).reshape(2, 3),
    ),
    "gaussian-json": (
        fileio.write_gaussian_json,
        Gaussian([1.0 / 3.0, -2.0], [[2.0, 0.3], [0.3, 1.0]]),
        Gaussian([0.1], [[2.0]]),
    ),
    "model-json": (
        fileio.write_model_json,
        private_shared_model(3, 4, (1, 4, 4)),
        private_shared_model(2, 1, [1, 1]),
    ),
}


class TestOverwrite:
    """Every writer rewrites an existing file in place, to exactly the bytes of a fresh write."""

    @pytest.mark.parametrize("write, longer, shorter", OVERWRITES.values(), ids=OVERWRITES)
    def test_gives_the_bytes_of_a_fresh_write(self, tmp_path, write, longer, shorter):
        fresh = {}
        for name, value in (("longer", longer), ("shorter", shorter)):
            write(tmp_path / name, value)
            fresh[name] = (tmp_path / name).read_bytes()
        assert len(fresh["shorter"]) < len(fresh["longer"])
        path = tmp_path / "out"
        # shorter over longer is cut to its length; longer over shorter grows
        for name in ("longer", "shorter", "longer"):
            write(path, longer if name == "longer" else shorter)
            assert path.read_bytes() == fresh[name]

    def test_keeps_the_file_and_its_mode(self, tmp_path):
        path = tmp_path / "g.json"
        fileio.write_gaussian_json(path, Gaussian([0.1], [[2.0]]))
        (tmp_path / "ref").write_text("")
        # a new file gets the mode open(path, "w") gives it
        assert path.stat().st_mode == (tmp_path / "ref").stat().st_mode
        path.chmod(0o600)
        before = path.stat()
        fileio.write_gaussian_json(path, Gaussian([0.2], [[3.0]]))  # the same size
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)
        assert path.read_bytes() == b'{"cov": [[3.0]], "mean": [0.2]}\n'

    def test_writes_through_a_symlink(self, tmp_path):
        write, longer, shorter = OVERWRITES["density-csv-2d-then-1d"]
        write(tmp_path / "fresh.csv", shorter)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        write(target, longer)
        link.symlink_to(target)
        write(link, shorter)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
