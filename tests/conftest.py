import os
from pathlib import Path

import pytest

from cpsurf.atomics import StaticPolarizability, rubidium_single_oscillator
from cpsurf.optics import PerfectConductor, gold_plasma, silicon_drude_lorentz
from cpsurf.quadrature import QuadratureSettings


@pytest.fixture(scope="session", autouse=True)
def children_import_this_checkout():
    # pyproject.toml puts src/ on this process's path; the CLI runs that
    # start a fresh interpreter (python -m cpsurf) get it the same way.
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def osc_rb():
    return rubidium_single_oscillator()


@pytest.fixture(scope="session")
def static_rb(osc_rb):
    return StaticPolarizability(osc_rb.alpha0)


@pytest.fixture(scope="session")
def gold():
    return gold_plasma()


@pytest.fixture(scope="session")
def silicon():
    return silicon_drude_lorentz()


@pytest.fixture(scope="session")
def mirror():
    return PerfectConductor()


@pytest.fixture(scope="session")
def settings():
    return QuadratureSettings()


@pytest.fixture(scope="session")
def fast_settings():
    return QuadratureSettings(rel_tol=1e-5)
