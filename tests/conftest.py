import importlib.util
import json
import time
from pathlib import Path

import pytest

from flexmarket.market import run_simulation
from flexmarket.scenario import load_scenario, scenario_from_dict

REPO = Path(__file__).resolve().parent.parent
DAY_SCENARIO = REPO / "scenarios" / "three_agent_day.json"
MINI_SCENARIO = REPO / "scenarios" / "mini_two_agent.json"


def _bench_workloads():
    """bench/workloads.py, loaded by path: bench/ is not a package, and
    putting it on sys.path would let its run.py and checks.py shadow
    other modules."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def generated_days(tmp_path_factory):
    """The benchmark's generated days, `fleet_thermal` (30 heat-pump and
    PV homes) and `exact_storage` (five storage homes): workload name ->
    scenario file, written from the bundled homes and series only."""
    workloads, out = _bench_workloads(), tmp_path_factory.mktemp("generated")
    return {w: workloads.scenario_path(w, out) for w in ("fleet_thermal", "exact_storage")}


@pytest.fixture(scope="session")
def fleet_scenario(generated_days):
    return load_scenario(generated_days["fleet_thermal"])


@pytest.fixture(scope="session")
def short_fleet_scenario():
    """`fleet_thermal`'s 30 homes over an 8-step day."""
    return scenario_from_dict(_bench_workloads().fleet_thermal_doc(total_steps=8))


@pytest.fixture(scope="session")
def day_scenario():
    return load_scenario(DAY_SCENARIO)


@pytest.fixture(scope="session")
def day_run(day_scenario):
    """Bundled-scenario trace plus its wall-clock runtime (seconds)."""
    t0 = time.perf_counter()
    trace = run_simulation(day_scenario)
    return {"trace": trace, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def degenerate_day_run():
    """The bundled day re-run with a zero flexibility request everywhere."""
    with open(DAY_SCENARIO) as fh:
        doc = json.load(fh)
    doc["policy"]["beta"] = 0.0
    doc["policy"]["clip_to_positivity"] = False
    s = scenario_from_dict(doc, base_dir=DAY_SCENARIO.parent)
    return run_simulation(s)


@pytest.fixture(scope="session")
def mini_scenario():
    return load_scenario(MINI_SCENARIO)


@pytest.fixture(scope="session")
def mini_trace(mini_scenario):
    return run_simulation(mini_scenario)
