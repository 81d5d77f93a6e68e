"""Bundled example instances used by the validation suites and the tests.

* ``quadratic_n3.json``: the 3-dimensional quadratic objective
  A = [[0.6, 0.2, 0.1], [0.2, 0.5, 0.15], [0.1, 0.15, 0.7]] (positive
  semidefinite, so the problem is convex; the file packs the matrix to
  base64, as every instance file does) with three sparse max-linear
  constraints shifted around the witness (0.2, 0.3, 0.5); entropy
  geometry, exact oracle.
* ``linear_n2.json``: a 2-dimensional linear objective whose constraint is
  identically -1 on the simplex, so every step is productive; the optimum
  sits at the first vertex with value 0.
"""

from __future__ import annotations

from pathlib import Path

from ..problems import ProblemInstance, load_problem

QUADRATIC_N3 = "quadratic_n3.json"
LINEAR_N2 = "linear_n2.json"

_DIR = Path(__file__).resolve().parent


def fixture_path(name: str) -> Path:
    path = _DIR / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return path


def load_fixture(name: str) -> ProblemInstance:
    return load_problem(fixture_path(name))
