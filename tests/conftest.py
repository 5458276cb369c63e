"""Shared fixtures: the default constitutive model and its transform table.

Building the table (43,167 knots) costs ~190 ms but is pure and
immutable, so one instance is shared across the whole session.
"""

import pytest

from kirchflow.constitutive import ConstitutiveModel, build_table


@pytest.fixture(scope="session")
def model():
    return ConstitutiveModel()


@pytest.fixture(scope="session")
def table(model):
    return build_table(model)
