import concurrent.futures
import os

import pytest

from lambda_forge import CoefficientTable, CurveModel, FormContext

# Cross-validation trio: classical minimal models with known conductors.
CURVE_11A1 = dict(a1=0, a2=-1, a3=1, a4=-10, a6=-20, conductor=11)
CURVE_37A1 = dict(a1=0, a2=0, a3=1, a4=-1, a6=0, conductor=37)
CURVE_389A1 = dict(a1=0, a2=1, a3=1, a4=-2, a6=0, conductor=389)


def short_curve(a: int, b: int) -> CurveModel:
    """y^2 = x^3 + ax + b with conductor |discriminant|, so that it loads as a minimal model."""
    return CurveModel(0, 0, 0, a, b, conductor=abs(16 * (4 * a**3 + 27 * b * b)))


@pytest.fixture
def two_cores(monkeypatch) -> None:
    """This process may run on two cores, so that a 2-worker curve sweep starts a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def pools_started(monkeypatch) -> list[int]:
    """The worker count of each process pool started during the test, in order."""
    started = []
    pool = concurrent.futures.ProcessPoolExecutor

    def counting_pool(**kwargs):
        started.append(kwargs["max_workers"])
        return pool(**kwargs)

    # coefficient_chunks imports the pool class from here when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    return started


@pytest.fixture(scope="session")
def curve_11a1() -> CurveModel:
    return CurveModel(**CURVE_11A1)


@pytest.fixture(scope="session")
def curve_37a1() -> CurveModel:
    return CurveModel(**CURVE_37A1)


@pytest.fixture(scope="session")
def curve_389a1() -> CurveModel:
    return CurveModel(**CURVE_389A1)


@pytest.fixture(scope="session")
def curve_x3x1() -> CurveModel:
    """y^2 = x^3 + x + 1, conductor 496; the 9-point-over-F5 example curve."""
    return CurveModel(a1=0, a2=0, a3=0, a4=1, a6=1, conductor=496)


@pytest.fixture(scope="session")
def ctx_default(curve_11a1) -> FormContext:
    """The documented default: conductor-11 curve at p = 7, lambda_g = 0."""
    return FormContext(
        level=11,
        p=7,
        lambda_g=0,
        mu_zero=True,
        surjective_mod_p=True,
        backend=curve_11a1,
    )


@pytest.fixture(scope="session")
def ctx_p5(curve_11a1) -> FormContext:
    """Same curve at p = 5 (a_5 = 1, ordinary).

    The mod-5 image of this curve is NOT surjective (rational 5-isogeny), so
    the flag is honestly false here; classification does not care, and the
    density precondition tests rely on exactly this.
    """
    return FormContext(
        level=11,
        p=5,
        lambda_g=0,
        mu_zero=True,
        surjective_mod_p=False,
        backend=curve_11a1,
    )


@pytest.fixture(scope="session")
def table_11_p5() -> FormContext:
    """Table-backed twin of ctx_p5 over the first few primes."""
    table = CoefficientTable(
        [2, 3, 5, 7, 13, 17, 19, 23], [-2, -1, 1, -2, 4, -2, 0, -1], level=11
    )
    return FormContext(
        level=11,
        p=5,
        lambda_g=0,
        mu_zero=True,
        surjective_mod_p=False,
        backend=table,
    )
