"""Every timing function in ``scripts/kernels.py`` runs on this tree and
returns one finite, positive number of milliseconds, as
``scripts/ab_pairs.py --kernel`` expects."""

import importlib.util
import inspect
import math
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("kernels", os.path.join(ROOT, "scripts", "kernels.py"))
kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernels)

TIMINGS = [name for name, function in inspect.getmembers(kernels, inspect.isfunction)
           if function.__module__ == kernels.__name__ and not name.startswith("_")]


def test_the_timing_functions_include_log_mel():
    assert "logmel_sliding_60s" in TIMINGS and len(TIMINGS) >= 3


@pytest.mark.parametrize("name", TIMINGS)
def test_a_timing_function_returns_a_finite_positive_time(name):
    ms = getattr(kernels, name)()
    assert isinstance(ms, float) and math.isfinite(ms) and ms > 0
