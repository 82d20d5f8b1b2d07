import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself without hypothesis
    pass
else:
    # reproducible property tests: a fixed example sequence, no example
    # database and no wall-clock deadline
    settings.register_profile("pivotkit", derandomize=True, deadline=None,
                              database=None, max_examples=60)
    settings.load_profile("pivotkit")


@pytest.fixture
def worked_matrix():
    """3x3 matrix whose transform at {1,3} has small integer entries."""
    return np.array([[1.0, 2.0, 1.0],
                     [1.0, 1.0, 0.0],
                     [2.0, 8.0, 1.0]])


@pytest.fixture
def worked_transform():
    """ppt(worked_matrix, {1,3})."""
    return np.array([[-1.0, -6.0, 1.0],
                     [-1.0, -5.0, 1.0],
                     [2.0, 4.0, -1.0]])


@pytest.fixture
def worked_inverse():
    return np.array([[0.2, 1.2, -0.2],
                     [-0.2, -0.2, 0.2],
                     [1.2, -0.8, -0.2]])


@pytest.fixture
def stiff_system():
    """A symmetric-looking 3x3 system whose plain Jacobi iteration diverges."""
    a = np.array([[1.0, -1.5, -0.25],
                  [-1.5, 1.0, -2.5],
                  [-0.5, -0.5, 1.0]])
    return a, np.ones(3)


@pytest.fixture
def stiff_iteration_matrix():
    """Jacobi iteration matrix of stiff_system; spectral radius ~2.14."""
    return np.array([[0.0, 1.5, 0.25],
                     [1.5, 0.0, 2.5],
                     [0.5, 0.5, 0.0]])
