import pytest

from tropfan.fan import dataset
from tropfan.tropical import SignomialParams, TropicalRationalParams, signomial


@pytest.fixture(scope="session")
def running_theta4() -> SignomialParams:
    """Four-term signomial of the two-point running example."""
    return signomial([(0, (-1, 1)), (0, (0, 0)), (-1, ("3/2", "1/2")), (-2, (0, 2))])


@pytest.fixture(scope="session")
def running_theta_split(running_theta4) -> TropicalRationalParams:
    num = SignomialParams(running_theta4.terms[:2], 2)
    den = SignomialParams(running_theta4.terms[2:], 2)
    return TropicalRationalParams(num, den)


@pytest.fixture(scope="session")
def two_points():
    return dataset([(0, 0), (1, 0)])


@pytest.fixture(scope="session")
def five_line():
    return dataset([(1,), (2,), (3,), (4,), (5,)])


@pytest.fixture(scope="session")
def four_line():
    return dataset([(1,), (2,), (3,), (4,)])


@pytest.fixture(scope="session")
def diag4():
    return dataset([(0, 0), (1, 1), (2, 2), (3, 3)])


@pytest.fixture(scope="session")
def nine_points():
    return dataset(
        [(-2, 3), (3, 3), (1, 2), (0, 1), (0, 0), (-2, -1), (1, -2), (-7, -3), (3, -4)]
    )


@pytest.fixture
def spoil_multipliers(monkeypatch):
    """``spoil_multipliers(how)`` corrupts every later read of Farkas
    multipliers off the objective row, where ``max_slack`` checks them: the
    first nonzero one has its sign flipped ("flip"), is set to 0 ("zero") or
    is copied onto the first zero one, a row that is not in the certificate
    ("move").  A read with nothing to corrupt is left as it is."""
    from tropfan import geometry

    read = geometry._Simplex.multipliers

    def spoil(how):
        def spoiled(self, count):
            y = read(self, count)
            r = next((i for i, v in enumerate(y) if v), None)
            if r is not None and (how != "move" or 0 in y):
                if how == "flip":
                    y[r] = -y[r]
                elif how == "zero":
                    y[r] = 0
                else:
                    y[y.index(0)] = y[r]
            return y

        monkeypatch.setattr(geometry._Simplex, "multipliers", spoiled)

    return spoil
