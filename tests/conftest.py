import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from qlow.problems import from_dense
from qlow.statevector import Statevector


@st.composite
def small_problems(draw, max_n=5):
    """Random dense diagonal problems on 1..max_n qubits."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vals = draw(
        st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False),
            min_size=1 << n,
            max_size=1 << n,
        )
    )
    return from_dense(n, np.array(vals))


@st.composite
def random_states(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    dim = 1 << n
    re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
    im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
    amps = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(amps)
    if norm < 1e-9:
        amps = np.ones(dim, dtype=complex)
        norm = np.sqrt(dim)
    return Statevector(n, amps / norm)


angles = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(args, **env):
    """stdout of a fresh interpreter that imports qlow from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout
