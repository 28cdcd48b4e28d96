import pytest

from remest import HarqModel, LtiSystem, riccati_steady_state

# 2-D expansive benchmark system used throughout
A = [[1.8, 0.2], [0.2, 0.8]]
C = [[1.0, 1.0]]
Q = [[1.0, 0.0], [0.0, 1.0]]
R = [[1.0]]
Q_MAX = 20


@pytest.fixture(scope="session")
def system():
    return LtiSystem(A, C, Q, R)


@pytest.fixture(scope="session")
def sk(system):
    return riccati_steady_state(system, q_max=Q_MAX)


@pytest.fixture(scope="session")
def channel():
    return HarqModel(0.8, 0.5, r_cap=Q_MAX)
