import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flexmarket
from flexmarket.cli import main
from flexmarket.traceio import TraceIoError, read_trace, write_report

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
MINI = str(SCENARIOS / "mini_two_agent.json")


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    code = main(["run", "--scenario", MINI, "--out", str(out)])
    assert code == 0
    return out


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_writes_clearings(mini_run):
    rows = _read(mini_run / "clearings.csv")
    assert len(rows) == 6
    assert set(("step", "pi", "mu", "mu_tilde")) <= set(rows[0])


def test_run_missing_scenario(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_run_scenario_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_run_rejects_audit_options(tmp_path):
    # --grid-points and --tol belong to verify, --agent to report
    for extra in (["--tol", "1e-3"], ["--grid-points", "200"], ["--agent", "a1"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", MINI, "--out", str(tmp_path / "o")] + extra)
        assert exc.value.code == 2


def test_run_invalid_override(tmp_path, capsys):
    code = main(["run", "--scenario", MINI, "--out", str(tmp_path / "o"),
                 "--override", "agents.0.eps_hi=0.005"])
    assert code == 2
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, field", [
    ("agents.0.eps_lo", "-1", "agents.a1.eps_lo"),
    ("agents.0.eps_hi", "-1", "agents.a1.eps_hi")])
def test_run_invalid_eps_names_its_field(tmp_path, capsys, path, value, field):
    # the band check covers both fields; it names eps_hi unless eps_lo
    # is out of range on its own
    code = main(["run", "--scenario", MINI, "--out", str(tmp_path / "o"),
                 "--override", f"{path}={value}"])
    assert code == 2
    assert f"{field}: need 0 <= eps_lo < eps_hi" in capsys.readouterr().err


@pytest.mark.parametrize("override, field", [
    ("time.horizon=3", "time.horizon"),
    ("agents.0.eps_high=0.9", "agents.a1.eps_high"),
    ("polcy.beta=0.5", "polcy")])
def test_run_misspelled_key_exits_2_naming_it(tmp_path, capsys, override, field):
    # a misspelled key used to be ignored, and its default used
    code = main(["run", "--scenario", MINI, "--out", str(tmp_path / "o"),
                 "--override", override])
    assert code == 2
    assert f"{field}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value, message", [
    ("-1", "must be positive"),
    ("abc", "not a number: 'abc'"),
    ("Infinity", "must be finite, got inf")])
def test_run_device_error_names_its_field_once(tmp_path, capsys, value, message):
    code = main(["run", "--scenario", MINI, "--out", str(tmp_path / "o"),
                 "--override", f"agents.0.devices.battery.capacity_kwh={value}"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"agents.a1.devices.battery.capacity_kwh: {message}" in err
    assert err.count("capacity_kwh") == 1


@pytest.mark.parametrize("override, message", [
    ("agents.0.devices.pv=null", "agents.a1.devices.pv: must be an object, got None"),
    (f"agents.0.gamma={10**400}", "agents.a1.gamma: must be finite")])
def test_run_entry_faults_exit_2(tmp_path, capsys, override, message):
    # both escaped as a TypeError or an OverflowError, exiting 1
    code = main(["run", "--scenario", MINI, "--out", str(tmp_path / "o"),
                 "--override", override])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path", ["agents.5.gamma", "agents.-1.gamma",
                                  "agents.x.gamma", "time.dt_hours.x",
                                  "agents.0.gamma.x"])
def test_run_malformed_override_path(tmp_path, capsys, path):
    # an index outside the list, or a step through a number, is a
    # validation error that names the override
    code = main(["run", "--scenario", MINI, "--out", str(tmp_path / "o"),
                 "--override", f"{path}=0.5"])
    assert code == 2
    assert path in capsys.readouterr().err


def test_run_boolean_override_is_not_a_number(tmp_path, capsys):
    # `true` parses as JSON, and a boolean must not load as gamma 1.0
    code = main(["run", "--scenario", MINI, "--out", str(tmp_path / "o"),
                 "--override", "agents.0.gamma=true"])
    assert code == 2
    assert "gamma: not a number: True" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, field", [
    ("weights.xi_pv", "Infinity", "weights.xi_pv"),
    ("agents.0.eps_hi", "Infinity", "agents.a1.eps_hi"),
    ("time.dt_hours", "Infinity", "time.dt_hours"),
    ("agents.0.gamma", "Infinity", "agents.a1.gamma"),
    ("agents.0.gamma", "NaN", "agents.a1.gamma"),
    ("policy.beta", "-Infinity", "policy.beta"),
    ("agents.0.fixed_load.2", "Infinity", "agents.a1.fixed_load.2"),
    ("agents.0.devices.battery.capacity_kwh", "Infinity",
     "agents.a1.devices.battery.capacity_kwh"),
    ("agents.0.devices.battery.soc_init", "NaN",
     "agents.a1.devices.battery.soc_init")])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, path, value, field):
    # JSON's Infinity and NaN load as floats; the field is named up front
    # instead of failing a solve or the pricing
    code = main(["run", "--scenario", MINI, "--out", str(tmp_path / "o"),
                 "--override", f"{path}={value}"])
    assert code == 2
    err = capsys.readouterr().err
    assert field in err and "must be finite" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_run_rejects_non_finite_csv_series_value(tmp_path, capsys, value):
    doc = json.loads(Path(MINI).read_text())
    doc["series"]["lem_price"] = "price.csv"
    rows = "".join(f"{t},{value if t == 3 else 0.1}\n" for t in range(6))
    (tmp_path / "price.csv").write_text("step,value\n" + rows)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "series.lem_price: line 5 of" in err and "must be finite" in err


def test_run_requires_out(capsys):
    assert main(["run", "--scenario", MINI]) == 2


def test_override_changes_behavior(tmp_path):
    out = tmp_path / "o"
    code = main(["run", "--scenario", MINI, "--out", str(out),
                 "--override", "policy.beta=0",
                 "--override", "policy.clip_to_positivity=false"])
    assert code == 0
    rows = _read(out / "clearings.csv")
    for r in rows:
        assert float(r["mu_tilde"]) == 0.0
        assert float(r["mu"]) == float(r["pi"])
        assert float(r["tracking_error"]) == 0.0


def _no_run(monkeypatch):
    import flexmarket.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("simulation ran before the options were checked")
    monkeypatch.setattr(cli, "run_simulation", no_run)


@pytest.mark.parametrize("command", ["run", "report", "verify"])
@pytest.mark.parametrize("where", ["a file", "under a file"])
def test_an_out_that_cannot_be_a_directory_fails_before_running(
        tmp_path, monkeypatch, capsys, command, where):
    # it used to simulate the whole day, then end in a traceback from
    # the trace writer's mkdir
    _no_run(monkeypatch)
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" if where == "a file" else tmp_path / "taken" / "trace"
    assert main([command, "--scenario", MINI, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


def test_write_report_turns_os_errors_into_trace_io_errors(mini_run, tmp_path):
    bad = tmp_path / "taken" / "trace"
    (tmp_path / "taken").write_text("")
    with pytest.raises(TraceIoError, match="cannot make directory"):
        write_report(read_trace(mini_run), bad, "a1")
    (tmp_path / "out" / "report_prices.csv").mkdir(parents=True)
    with pytest.raises(TraceIoError, match="cannot write"):
        write_report(read_trace(mini_run), tmp_path / "out", "a1")


def test_verify_trace_passes(mini_run):
    assert main(["verify", "--out", str(mini_run)]) == 0


def test_verify_inline_scenario(tmp_path, capsys):
    # the inline run is audited from the trace it wrote, so each clearing
    # also replays bit for bit
    assert main(["verify", "--scenario", MINI]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert len(rows) == 6 and all(r.split()[-1] == "ok" for r in rows)
    out = tmp_path / "o"
    assert main(["verify", "--scenario", MINI, "--out", str(out)]) == 0
    assert main(["verify", "--out", str(out)]) == 0


def test_verify_corrupted_bid_fails(mini_run, tmp_path, capsys):
    corrupted = tmp_path / "bad"
    corrupted.mkdir()
    for name in ("clearings.csv", "agents.csv", "devices.csv", "metadata.json"):
        (corrupted / name).write_text((mini_run / name).read_text())
    path = corrupted / "agents.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    bid_col = header.index("bid")
    rows[3][bid_col] = repr(float(rows[3][bid_col]) + 0.5)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    code = main(["verify", "--out", str(corrupted)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILED clearings: [1]" in out
    # re-clearing the recorded offers does not reproduce the edited bid
    assert out.splitlines()[2].split()[-1] == "bid"


def test_verify_empty_trace_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "clearings.csv").write_text("")
    code = main(["verify", "--out", str(empty)])
    assert code == 2


def test_verify_needs_input(capsys):
    assert main(["verify"]) == 2


@pytest.mark.parametrize("option, value", [
    ("--tol", "inf"), ("--tol", "-inf"), ("--tol", "nan"), ("--tol", "-1"),
    ("--tol", "0"), ("--grid-points", "5"), ("--grid-points", "99"),
])
def test_verify_rejects_bad_audit_option_before_running(monkeypatch, capsys,
                                                        option, value):
    _no_run(monkeypatch)
    assert main(["verify", "--scenario", MINI, f"{option}={value}"]) == 2
    assert option in capsys.readouterr().err


def test_report_writes_four_csvs(mini_run):
    code = main(["report", "--out", str(mini_run), "--agent", "a1"])
    assert code == 0
    names = ["report_operator_injections.csv", "report_prices.csv",
             "report_agent_a1_devices.csv", "report_agent_a1_states.csv"]
    for n in names:
        assert (mini_run / n).exists()
    prices = _read(mini_run / "report_prices.csv")
    assert list(prices[0]) == ["step", "pi", "mu", "mu_tilde"]


def test_report_unknown_agent(mini_run, capsys):
    code = main(["report", "--out", str(mini_run), "--agent", "ghost"])
    assert code == 2
    assert "unknown agent" in capsys.readouterr().err


def test_report_default_agent(mini_run):
    assert main(["report", "--out", str(mini_run)]) == 0


def test_report_trace_without_agent_rows(mini_run, tmp_path, capsys):
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in ("clearings.csv", "agents.csv", "devices.csv", "metadata.json"):
        (bare / name).write_text((mini_run / name).read_text())
    agents = bare / "agents.csv"
    agents.write_text(agents.read_text().splitlines(keepends=True)[0])
    assert main(["report", "--out", str(bare)]) == 2
    assert "trace has no agent rows" in capsys.readouterr().err


def test_run_rejects_an_agent_id_that_names_a_path(tmp_path, capsys):
    doc = json.loads(Path(MINI).read_text())
    doc["agents"][1]["id"] = "../../escaped"
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "agents[1].id" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_report_rejects_a_trace_agent_id_that_names_a_path(mini_run, tmp_path, capsys):
    # a hand-edited trace: the id would put report files outside --out
    out = tmp_path / "a" / "b" / "trace"
    out.mkdir(parents=True)
    for name in ("clearings.csv", "agents.csv", "devices.csv", "metadata.json"):
        text = (mini_run / name).read_text()
        (out / name).write_text(text.replace("a2,", "../../escaped,"))
    before = sorted(p for p in tmp_path.rglob("*"))
    assert main(["report", "--out", str(out), "--agent", "../../escaped"]) == 2
    assert "must not contain '/'" in capsys.readouterr().err
    data = read_trace(out)
    assert "../../escaped" in {r["agent_id"] for r in data.agents}
    with pytest.raises(TraceIoError):
        write_report(data, out, "../../escaped")
    assert sorted(p for p in tmp_path.rglob("*")) == before


@pytest.mark.parametrize("day", ["bundled", "fleet"])
def test_separate_processes_write_identical_traces(tmp_path, generated_days, day):
    # two child processes with different hash seeds must write the same
    # trace files, so nothing in a trace rests on hash order or object
    # identity. The bundled day declares most of its window programs
    # afresh; the fleet day refreshes most windows through its agent's
    # frame. Both children run at one BLAS thread: the thread count sets
    # the order in which BLAS sums (README), and the fleet day runs several
    # times slower at two
    scenario = (SCENARIOS / "three_agent_day.json" if day == "bundled"
                else generated_days["fleet_thermal"])
    src = str(Path(flexmarket.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    children = [subprocess.Popen(
        [sys.executable, "-m", "flexmarket.cli", "run", "--scenario", str(scenario),
         "--out", str(tmp_path / seed)],
        env={**env, "PYTHONHASHSEED": seed}, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True) for seed in ("0", "1")]
    try:
        for child in children:
            _, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
    finally:
        for child in children:
            child.kill()  # a child a failure or a timeout left running
            child.wait()
    first, second = (sorted((tmp_path / seed).iterdir()) for seed in ("0", "1"))
    assert [f.name for f in first] == [f.name for f in second]
    assert "metadata.json" in [f.name for f in first]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_outputs_deterministic(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["run", "--scenario", MINI, "--out", str(out1)]) == 0
    assert main(["run", "--scenario", MINI, "--out", str(out2)]) == 0
    for name in ("clearings.csv", "agents.csv", "devices.csv"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_run_clip_override_needs_json_boolean(tmp_path, capsys):
    # `False` is not JSON, so it arrives as a string and must not count as true
    code = main(["run", "--scenario", MINI, "--out", str(tmp_path / "bad"),
                 "--override", "policy.clip_to_positivity=False"])
    assert code == 2
    assert "policy.clip_to_positivity" in capsys.readouterr().err
    out = tmp_path / "o"
    code = main(["run", "--scenario", MINI, "--out", str(out),
                 "--override", "policy.clip_to_positivity=false"])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["policy"]["clip_to_positivity"] is False
