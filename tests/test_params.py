import numpy as np
import pytest

from edwardsim import ModelParams, TimeGrid, make_grid


class TestModelParams:
    def test_defaults(self):
        p = ModelParams()
        assert (p.H, p.d, p.T, p.g, p.N, p.seed) == (0.5, 2, 1.0, 0.1, 256, 0)

    def test_critical_flag(self):
        assert ModelParams(H=0.5, d=2).critical
        assert ModelParams(H=0.25, d=4).critical
        assert not ModelParams(H=0.3, d=2).critical
        assert not ModelParams(H=0.5, d=3).critical
        # just off the line, outside the 1e-12 window
        assert not ModelParams(H=0.5 + 1e-9, d=2).critical

    def test_spacing(self):
        assert ModelParams(T=1.0, N=256).spacing == 1.0 / 255.0
        assert ModelParams(T=2.0, N=5).spacing == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"H": 0.0},
            {"H": 1.0},
            {"H": -0.2},
            {"d": 0},
            {"T": 0.0},
            {"T": -1.0},
            {"N": 1},
            {"g": float("nan")},
            {"g": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_frozen(self):
        p = ModelParams()
        with pytest.raises(AttributeError):
            p.H = 0.7


class TestTimeGrid:
    def test_make_grid(self):
        p = ModelParams(T=2.0, N=9)
        grid = make_grid(p)
        assert grid.n == 9
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 2.0
        assert grid.horizon == 2.0
        assert abs(grid.spacing - 0.25) < 1e-15

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError, match="t_0"):
            TimeGrid(np.array([0.1, 0.2, 0.3]))

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="increasing"):
            TimeGrid(np.array([0.0, 0.5, 0.4]))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="increasing"):
            TimeGrid(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError, match="uniform"):
            TimeGrid(np.array([0.0, 0.1, 0.3, 0.4]))

    def test_rejects_too_short(self):
        with pytest.raises(ValueError, match="two points"):
            TimeGrid(np.array([0.0]))
