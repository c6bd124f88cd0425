"""Shared fixtures: expensive reference solves are computed once per session."""

import numpy as np
import pytest

from qsdlab import solver
from qsdlab.presets import logistic_1d, reference_2d
from qsdlab.solver import assemble, enumerate_space, solve_qsd


@pytest.fixture(scope="session")
def ref2d_system():
    """The two-type reference model on its standard truncation, solved."""
    model = reference_2d()
    space = enumerate_space(2, 60)
    generator = assemble(model, space)
    return model, space, generator, solve_qsd(generator)


@pytest.fixture(scope="session")
def logistic30_system():
    """The one-type logistic model truncated at 30, solved."""
    model = logistic_1d()
    space = enumerate_space(1, 30)
    generator = assemble(model, space)
    return model, space, generator, solve_qsd(generator)


@pytest.fixture()
def delta_start():
    """Point mass at a given state as a vector on a truncated space."""

    def make(space, state):
        mu = np.zeros(len(space.states))
        mu[space.index[state]] = 1.0
        return mu

    return make


@pytest.fixture()
def built_propagators(monkeypatch):
    """The number of steps of every set of dense propagators built, each
    recorded when its power-sequence flow of the flattened identity starts."""
    built = []
    flow = solver._sequence_flow

    def spy(kernel, lam, columns, times, *rest):
        n = kernel.shape[0]
        if columns.shape == (n * n, 1) and np.array_equal(
                columns[:, 0], np.eye(n).ravel()):
            built.append(len(times))
        return flow(kernel, lam, columns, times, *rest)

    monkeypatch.setattr(solver, "_sequence_flow", spy)
    return built
