import csv
import json
from pathlib import Path

import pytest

from flexmarket.cli import main

MINI = str(Path(__file__).resolve().parent.parent / "scenarios" / "mini_two_agent.json")


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


def test_verify_trace_passes(mini_run):
    assert main(["verify", "--out", str(mini_run)]) == 0


def test_verify_inline_scenario(tmp_path):
    assert main(["verify", "--scenario", MINI]) == 0


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
