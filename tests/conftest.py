"""Session fixtures shared across the suite.

The reference cell, its full capacity sweep, and the centralized
solutions are expensive enough to build once and reuse; everything in
here is read-only from the tests' point of view.
"""

import pytest
import yaml

from nura import bundled_scenario_path, centralized_solve, load_scenario, sweep_R

SWEEP_CAPACITIES = [5.0 * i for i in range(1, 41)]


@pytest.fixture(scope="session")
def cell():
    return load_scenario(bundled_scenario_path())


@pytest.fixture(scope="session")
def sweep(cell):
    """Every capacity point of the reference sweep, bid traces attached."""
    records = sweep_R(cell, 5.0, 200.0, 5.0, keep_trace=True)
    assert [record.capacity for record in records] == SWEEP_CAPACITIES
    return records


@pytest.fixture(scope="session")
def oracle_solutions(cell):
    return {
        capacity: centralized_solve(cell.users, capacity)
        for capacity in SWEEP_CAPACITIES
    }


@pytest.fixture(params=["SafeLoader", "CSafeLoader"])
def yaml_loader(request):
    """The name of each PyYAML safe loader the scenario reader may use."""
    if not hasattr(yaml, request.param):
        pytest.skip("PyYAML was built without libyaml")
    return request.param
