import json
from dataclasses import fields
from pathlib import Path

import pytest

from flexmarket.devices import (BatteryParams, DeviceValidationError, EvParams,
                                HpParams, ObjectiveWeights, PvParams,
                                device_from_dict, read_number)
from flexmarket.scenario import (AgentSpec, ScenarioError, ScenarioFileError,
                                 ScenarioParseError, ScenarioValidationError,
                                 TimeGrid, load_scenario, save_scenario,
                                 scenario_from_dict, slice_horizon)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_doc(**over):
    doc = {
        "time": {"dt_hours": 1.0, "total_steps": 6, "horizon_len": 3},
        "series": {
            "outdoor_temp": [70.0] * 6,
            "irradiance_frac": [0.5] * 6,
            "lem_price": [0.1] * 6,
        },
        "policy": {"beta": 0.2},
        "agents": [{"id": "a1", "gamma": 1.0, "fixed_load": [2.0] * 6,
                    "devices": {}}],
    }
    doc.update(over)
    return doc


def test_minimal_scenario_parses():
    s = scenario_from_dict(minimal_doc())
    assert len(s.agents) == 1
    assert s.agents[0].devices == ()
    assert s.time_grid.total_steps == 6
    # padding extends every series to total + horizon
    assert len(s.series.lem_price) == 9
    assert len(s.agents[0].fixed_load) == 9


def test_negative_gamma_names_field():
    doc = minimal_doc()
    doc["agents"][0]["gamma"] = -1.0
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert "gamma" in str(err.value)


@pytest.mark.parametrize("aid", ["", ".", "..", "../../escaped", "a/b",
                                 "a\\b", "a\0b"])
def test_agent_id_must_be_one_file_name_component(aid):
    # the id names report files, so it must not be empty or name a path
    doc = minimal_doc()
    doc["agents"].append(dict(doc["agents"][0], id=aid))
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.field == "agents[1].id"


def test_short_series_names_length():
    doc = minimal_doc()
    doc["series"]["irradiance_frac"] = [0.5] * 4      # < total_steps
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert "irradiance_frac" in str(err.value)
    assert "length" in str(err.value)


def test_irradiance_range_checked():
    doc = minimal_doc()
    doc["series"]["irradiance_frac"] = [1.5] * 6
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert "irradiance_frac" in str(err.value)


def test_nonpositive_price_rejected():
    doc = minimal_doc()
    doc["series"]["lem_price"] = [0.0] * 6
    with pytest.raises(ScenarioValidationError):
        scenario_from_dict(doc)


def test_eps_ordering_rejected():
    doc = minimal_doc()
    doc["agents"][0]["eps_lo"] = 0.5
    doc["agents"][0]["eps_hi"] = 0.1
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert "eps_lo" in str(err.value)


def test_horizon_longer_than_day_rejected():
    doc = minimal_doc()
    doc["time"]["horizon_len"] = 7
    with pytest.raises(ScenarioValidationError):
        scenario_from_dict(doc)


def test_missing_file_error(tmp_path):
    with pytest.raises(ScenarioFileError) as err:
        load_scenario(tmp_path / "nope.json")
    assert "not found" in str(err.value)


def test_parse_failure(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ScenarioParseError):
        load_scenario(p)


def test_csv_series_loading(tmp_path):
    doc = minimal_doc()
    rows = "\n".join(f"{i},{0.3}" for i in range(6))
    (tmp_path / "irr.csv").write_text("step,value\n" + rows + "\n")
    doc["series"]["irradiance_frac"] = "irr.csv"
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(doc))
    s = load_scenario(p)
    assert s.series.irradiance_frac[0] == 0.3


@pytest.mark.parametrize("steps, message", [
    ([0, 1, 1, 3, 4, 5], "repeats step 1"),
    ([0, 1, 3, 4, 5, 6], "has no step 2"),
    ([1, 2, 3, 4, 5, 6], "has no step 0"),
    ([-1, 0, 1, 2, 3, 4], "has a negative step -1"),
])
def test_csv_series_steps_must_be_0_to_n_minus_1(tmp_path, steps, message):
    # a repeated step used to take the slot of the missing one
    doc = minimal_doc()
    rows = "\n".join(f"{t},{0.1 * (i + 1)}" for i, t in enumerate(steps))
    (tmp_path / "price.csv").write_text("step,value\n" + rows + "\n")
    doc["series"]["lem_price"] = "price.csv"
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioParseError, match=rf"lem_price: .*price\.csv {message}"):
        load_scenario(p)


def test_csv_series_missing_file(tmp_path):
    doc = minimal_doc()
    doc["series"]["irradiance_frac"] = "missing.csv"
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFileError):
        load_scenario(p)


@pytest.mark.parametrize("document", ["bundled", "mini", "fleet_thermal",
                                      "exact_storage", "signed_zero"])
def test_round_trip_identity(tmp_path, generated_days, document):
    # a saved scenario reloads equal, and saving the reloaded one writes
    # the text the first save wrote. Floats are written with repr, so
    # equal text means equal inputs bit for bit, and so equal traces.
    # == takes -0.0 for 0.0 and repr does not; the mini day with one
    # fixed load of -0.0 is the only document that holds a signed zero
    if document in generated_days:
        path = generated_days[document]
    elif document == "signed_zero":
        doc = json.loads((SCENARIOS / "mini_two_agent.json").read_text())
        doc["agents"][0]["fixed_load"][0] = -0.0
        path = tmp_path / "signed_zero.json"
        path.write_text(json.dumps(doc))
    else:
        path = SCENARIOS / {"bundled": "three_agent_day.json",
                            "mini": "mini_two_agent.json"}[document]
    s = load_scenario(path)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_scenario(s, first)
    again = load_scenario(first)
    assert again == s and repr(again) == repr(s)
    save_scenario(again, second)
    assert second.read_text() == first.read_text()


def test_round_trip_minimal(tmp_path):
    s = scenario_from_dict(minimal_doc())
    out = tmp_path / "mini.json"
    save_scenario(s, out)
    assert load_scenario(out) == s


def test_slice_window_basic():
    s = scenario_from_dict(minimal_doc())
    v = slice_horizon(s, 0)
    assert v.length == 3
    assert len(v.outdoor_temp) == len(v.irradiance_frac) == 3
    assert v.t_start == 0
    assert not v.reaches_end


def test_slice_window_spans_padding():
    s = scenario_from_dict(minimal_doc())
    v = slice_horizon(s, s.time_grid.total_steps - 1)
    assert len(v.outdoor_temp) == 3
    assert v.reaches_end


def test_slice_out_of_range():
    s = scenario_from_dict(minimal_doc())
    with pytest.raises(ScenarioValidationError):
        slice_horizon(s, s.time_grid.padded_len - 2)
    with pytest.raises(ScenarioValidationError):
        slice_horizon(s, -1)


def test_slice_carries_states():
    doc = minimal_doc()
    doc["agents"][0]["devices"] = {
        "battery": {"self_discharge": 0.0, "efficiency": 1.0,
                    "capacity_kwh": 8.0, "p_min_kw": -2.0, "p_max_kw": 2.0,
                    "soc_min": 0.1, "soc_max": 0.9, "soc_init": 0.4}}
    s = scenario_from_dict(doc)
    v = slice_horizon(s, 0)
    assert v.device_states["a1"]["battery"] == 0.4
    v2 = slice_horizon(s, 1, {"a1": {"battery": 0.7}})
    assert v2.device_states["a1"]["battery"] == 0.7


def test_cyclic_padding_repeats_last_day():
    doc = minimal_doc()
    doc["series"]["lem_price"] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    s = scenario_from_dict(doc)
    # dt=1h means a "day" is 24 steps, longer than the series: the whole
    # series is the cycle
    assert s.series.lem_price[6:9] == (0.1, 0.2, 0.3)


def test_beta_scalar_expansion_and_range():
    s = scenario_from_dict(minimal_doc())
    assert len(s.policy.beta) == 6
    doc = minimal_doc()
    doc["policy"] = {"beta": 1.5}
    with pytest.raises(ScenarioValidationError):
        scenario_from_dict(doc)


def test_duplicate_agent_ids_rejected():
    doc = minimal_doc()
    doc["agents"] = [doc["agents"][0], dict(doc["agents"][0])]
    with pytest.raises(ScenarioValidationError):
        scenario_from_dict(doc)


def test_no_agents_rejected():
    doc = minimal_doc()
    doc["agents"] = []
    with pytest.raises(ScenarioParseError):
        scenario_from_dict(doc)


def test_ev_target_must_be_inside_simulation():
    doc = minimal_doc()
    doc["agents"][0]["devices"] = {
        "ev": {"self_discharge": 0.0, "efficiency": 1.0, "capacity_kwh": 8.0,
               "p_min_kw": -2.0, "p_max_kw": 2.0, "soc_min": 0.1,
               "soc_max": 0.9, "soc_init": 0.4, "away_start": 2,
               "away_end": 3, "soc_target": 0.8, "target_step": 40}}
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert "target_step" in str(err.value)


@pytest.mark.parametrize("section, key, field", [
    ("time", "horizn_len", "time.horizn_len"),
    ("agent", "gama", "agents.a1.gama"),
    ("policy", "bta", "policy.bta"),
    ("series", "lem_prices", "series.lem_prices"),
    ("weights", "alpha_cycle", "weights.alpha_cycle"),
    (None, "note", "note")])
def test_unknown_key_names_its_path(section, key, field):
    # every section and each agent take only the keys they read
    doc = minimal_doc(weights={})
    sec = doc if section is None else (
        doc["agents"][0] if section == "agent" else doc[section])
    sec[key] = 1.0
    with pytest.raises(ScenarioValidationError, match="unknown key") as err:
        scenario_from_dict(doc)
    assert err.value.field == field


def test_unknown_device_kind_rejected():
    doc = minimal_doc()
    doc["agents"][0]["devices"] = {"flux_capacitor": {}}
    with pytest.raises(ScenarioValidationError):
        scenario_from_dict(doc)


@pytest.mark.parametrize("entry", [None, 3.7, True, "abc", []])
def test_device_entry_must_be_an_object(entry):
    # None, a number or a boolean used to escape as a TypeError, and "abc"
    # read as the unknown parameter "a"
    with pytest.raises(DeviceValidationError) as err:
        device_from_dict("pv", entry)
    assert err.value.field == "pv"
    doc = minimal_doc()
    doc["agents"][0]["devices"] = {"pv": entry}
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == f"agents.a1.devices.pv: must be an object, got {entry!r}"


@pytest.mark.parametrize("path", ["agents.0.gamma", "agents.0.devices.pv.p_rated_kw",
                                  "time.dt_hours"])
def test_integer_beyond_float_range_is_not_finite(path):
    # float(10**400) raises OverflowError, which is not a ValueError
    with pytest.raises(ValueError, match="must be finite"):
        read_number(10**400)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(_with_value(path, 10**400))
    assert str(err.value).startswith(path.replace("agents.0", "agents.a1") + ": must be finite")


@pytest.mark.parametrize("value", ["False", "false", "no", 0])
def test_clip_to_positivity_must_be_boolean(value):
    # bool() of any non-empty string is true, so only JSON booleans load
    doc = minimal_doc()
    doc["policy"]["clip_to_positivity"] = value
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.field == "policy.clip_to_positivity"


BATTERY_DOC = {"self_discharge": 0.0, "efficiency": 1.0, "capacity_kwh": 8.0,
               "p_min_kw": -2.0, "p_max_kw": 2.0, "soc_min": 0.1, "soc_max": 0.9,
               "soc_init": 0.4}
EV_DOC = {**BATTERY_DOC, "away_start": 2, "away_end": 3, "soc_target": 0.8,
          "target_step": 4}
# a valid device of every kind, so that each of their fields can be faulted
DEVICE_DOCS = {"battery": BATTERY_DOC, "ev": EV_DOC,
               "heat_pump": {"r_th": 2.0, "c_th": 2.0, "cop": 3.0, "p_rated_kw": 4.0,
                             "t_min": 66.0, "t_max": 74.0, "t_setpoint": 70.0,
                             "t_init": 70.0},
               "pv": {"p_rated_kw": 4.0}}


class _Missing:
    """A value _with_value removes its key for."""

    def __repr__(self):
        return "<missing>"


MISSING = _Missing()


def _with_value(path, value):
    doc = minimal_doc()
    doc["agents"][0]["devices"] = {k: dict(v) for k, v in DEVICE_DOCS.items()}
    *steps, leaf = path.split(".")
    node = doc
    for step in steps:
        node = node[int(step)] if isinstance(node, list) else node.setdefault(step, {})
    if value is MISSING:
        del node[leaf]
    else:
        node[leaf] = value
    return doc


NUMBER_CASES = [
    ("agents.0.eps_lo", "abc", "agents.a1.eps_lo"),
    ("agents.0.eps_hi", "abc", "agents.a1.eps_hi"),
    ("agents.0.gamma", [1.0], "agents.a1.gamma"),
    ("weights.xi_ev", "abc", "weights.xi_ev"),
    ("time.total_steps", 6.5, "time.total_steps"),
    ("time.horizon_len", 2.5, "time.horizon_len"),
    ("agents.0.devices.ev.away_start", 3.7, "agents.a1.devices.ev.away_start"),
    ("agents.0.devices.ev.away_end", 3.2, "agents.a1.devices.ev.away_end"),
    ("agents.0.devices.ev.target_step", 4.5, "agents.a1.devices.ev.target_step"),
    ("agents.0.devices.ev.soc_min", "low", "agents.a1.devices.ev.soc_min"),
    # JSON booleans are not numbers, though Python's bool is an int
    ("agents.0.gamma", True, "agents.a1.gamma"),
    ("time.total_steps", True, "time.total_steps"),
    ("policy.beta", True, "policy.beta"),
    ("policy.beta", [0.2, 0.2, False, 0.2, 0.2, 0.2], "policy.beta.2"),
    ("agents.0.fixed_load", True, "agents.a1.fixed_load"),
    ("series.lem_price", [0.1, True, 0.1, 0.1, 0.1, 0.1], "series.lem_price.1"),
    ("agents.0.devices.ev.efficiency", True, "agents.a1.devices.ev.efficiency"),
    ("agents.0.devices.ev.away_start", False, "agents.a1.devices.ev.away_start"),
]


def _field_cases():
    """Every number field of each device kind, the time grid, the weights
    and an agent: a JSON boolean, and 3.7 where it is an int; each device
    field, which is required, also removed."""
    records = [(f"agents.0.devices.{c.kind}", f"agents.a1.devices.{c.kind}", c, True)
               for c in (BatteryParams, EvParams, HpParams, PvParams)]
    records += [("time", "time", TimeGrid, False),
                ("weights", "weights", ObjectiveWeights, False),
                ("agents.0", "agents.a1", AgentSpec, False)]
    for doc_path, field_path, cls, required in records:
        for f in fields(cls):
            if f.type not in ("float", "int"):
                continue
            path, field = f"{doc_path}.{f.name}", f"{field_path}.{f.name}"
            yield path, True, field
            if f.type == "int":
                yield path, 3.7, field
            if required:
                yield path, MISSING, field


# the message each of these values reads with, wherever it stands
_READS = {"True": "not a number: True", "3.7": "must be an integer, got 3.7",
          "<missing>": "missing parameter"}


@pytest.mark.parametrize("path, value, field", NUMBER_CASES + [
    case for case in _field_cases() if case not in NUMBER_CASES])
def test_wrong_number_type_names_field(path, value, field):
    # a non-number, a boolean, or a fractional step count or index, names
    # its field rather than surfacing as a bare ValueError, being read as
    # 1.0 or 0.0, or being truncated; a device field may not be left out
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(_with_value(path, value))
    assert str(err.value).startswith(field + ":")
    if repr(value) in _READS:
        assert str(err.value) == f"{field}: {_READS[repr(value)]}"


def test_integral_floats_load_as_steps():
    doc = _with_value("agents.0.devices.ev.away_start", 2.0)
    doc["time"]["total_steps"] = 6.0
    s = scenario_from_dict(doc)
    assert s.time_grid.total_steps == 6 and isinstance(s.time_grid.total_steps, int)
    ev = s.agents[0].device("ev")
    assert ev.away_start == 2 and isinstance(ev.away_start, int)
