"""The method table and the solver-config builder shared by the front ends."""

import numpy as np
import pytest

import mpgdenoise.solvers as solvers
from mpgdenoise.chambolle import ChambolleConfig
from mpgdenoise.fileio import FormatError
from mpgdenoise.methods import CONFIG_FIELDS, METHODS, build_config, config_values, run_method
from mpgdenoise.solvers import SolverConfig


def test_config_fields_follow_the_dataclasses():
    assert CONFIG_FIELDS == {
        "lambda1": float, "lambda2": float, "alpha": float, "alpha_w": float,
        "alpha_p": float, "epsilon": float, "xi": float, "max_iters": int,
        "inner_iters": int,
    }
    cfg = build_config({"lambda1": "3", "lambda2": 1.5}, "test")
    assert cfg == SolverConfig(lambda1=3.0, lambda2=1.5) and cfg.chambolle is None
    # with no depth set, the echo is the depth the method runs at
    assert config_values(cfg, "bca") == {
        "lambda1": 3.0, "lambda2": 1.5, "alpha": 200.0, "alpha_w": 200.0,
        "alpha_p": 50.0, "epsilon": 1e-6, "xi": 5e-4, "max_iters": 1000,
        "inner_iters": 2,
    }
    assert [config_values(cfg, m)["inner_iters"] for m in ("bcaf", "tvl2", "tvkl")] == [10, 10, 10]
    # the model weights default like every other field, to SolverConfig's
    assert build_config({}, "test") == SolverConfig() == SolverConfig(lambda1=8.0, lambda2=2.5)
    assert build_config({"lambda1": "3"}, "test") == SolverConfig(lambda1=3.0, lambda2=2.5)
    cfg = build_config({"lambda1": "3", "lambda2": "1", "max_iters": "7", "inner_iters": "4"}, "test")
    assert cfg.max_iters == 7 and cfg.chambolle == ChambolleConfig(inner_iters=4)
    # an explicit depth wins for every method
    assert {config_values(cfg, m)["inner_iters"] for m in METHODS} == {4}


def test_build_config_errors():
    with pytest.raises(FormatError, match=r"^src: unknown solver key 'bogus'"):
        build_config({"lambda1": "3", "lambda2": "1", "bogus": "1"}, "src")
    with pytest.raises(FormatError, match=r"^src: lambda1: "):
        build_config({"lambda1": "abc", "lambda2": "1"}, "src")
    with pytest.raises(FormatError, match=r"^src: max_iters: "):
        build_config({"lambda1": "3", "lambda2": "1", "max_iters": "2.5"}, "src")
    # a well-formed value the config rejects is not a format error
    with pytest.raises(ValueError) as info:
        build_config({"lambda1": "-3", "lambda2": "1"}, "src")
    assert not isinstance(info.value, FormatError)


def test_run_method_looks_up_the_solver_per_call(monkeypatch):
    f = np.array([[-0.5, 1.0], [2.0, 0.25]])
    cfg = SolverConfig(lambda1=3.0, lambda2=7.0)
    seen = {}

    def fake_solve(*args, truth=None):
        seen["args"] = args
        return "u", "trace"

    for method, name in (("tvkl", "tv_kl_solve"), ("tvl2", "tv_l2_solve"), ("bcaf", "bcaf_solve")):
        monkeypatch.setattr(solvers, name, fake_solve)
        assert run_method(method, f, cfg) == ("u", "trace")
        got_f, *rest = seen["args"]
        want_f = np.maximum(f, 0.0) if METHODS[method].clamp else f
        assert np.array_equal(got_f, want_f)
        weight = METHODS[method].weight
        assert rest == ([cfg] if weight is None else [getattr(cfg, weight), cfg])
    assert METHODS["tvkl"].clamp and not METHODS["tvl2"].clamp
    assert (METHODS["tvl2"].weight, METHODS["tvkl"].weight) == ("lambda1", "lambda2")
