"""Command-line interface: exit codes, artefacts, determinism."""

import csv
import json

from transversals.cli import (
    EXIT_EXHAUSTED,
    EXIT_NEGATIVE,
    EXIT_SUCCESS,
    EXIT_USAGE,
    main,
)


def run_gen(tmp_path, name, *args):
    path = tmp_path / name
    rc = main(["gen", "--out", str(path), *args])
    assert rc == EXIT_SUCCESS
    return path


def test_gen_writes_json_and_is_deterministic(tmp_path):
    a = run_gen(tmp_path, "a.json", "--family", "random", "--n", "8",
                "--delta", "0.6", "--seed", "5")
    b = run_gen(tmp_path, "b.json", "--family", "random", "--n", "8",
                "--delta", "0.6", "--seed", "5")
    assert a.read_text() == b.read_text()
    obj = json.loads(a.read_text())
    assert obj["n"] == 8 and len(obj["members"]) == 8


def test_solve_success_writes_certificate(tmp_path, capsys):
    inst = run_gen(tmp_path, "inst.json", "--family", "random", "--n", "10",
                   "--delta", "0.7", "--seed", "1")
    cert = tmp_path / "cert.json"
    rc = main(["solve", "--in", str(inst), "--out-cert", str(cert)])
    assert rc == EXIT_SUCCESS
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"] == "success"
    assert report["certificate"] == str(cert)
    # round-trip through verify
    rc = main(["verify", "--in", str(inst), "--cert", str(cert),
               "--link", "edge(2,1)"])
    assert rc == EXIT_SUCCESS


def test_solve_negative_exit_code(tmp_path, capsys):
    inst = run_gen(tmp_path, "dirac.json", "--family", "dirac-extremal",
                   "--n", "6")
    rc = main(["solve", "--in", str(inst)])
    assert rc == EXIT_NEGATIVE
    assert json.loads(capsys.readouterr().out)["outcome"] == "none"


def test_solve_exhausted_exit_code(tmp_path, capsys):
    inst = run_gen(tmp_path, "inst.json", "--family", "random", "--n", "10",
                   "--delta", "0.6", "--seed", "2")
    rc = main(["solve", "--in", str(inst), "--budget-nodes", "2"])
    assert rc == EXIT_EXHAUSTED
    assert json.loads(capsys.readouterr().out)["outcome"] == "exhausted"


def test_solve_pipeline_engine_with_trace(tmp_path, capsys):
    inst = run_gen(tmp_path, "inst.json", "--family", "random", "--n", "10",
                   "--delta", "0.7", "--seed", "3")
    rc = main(["solve", "--in", str(inst), "--engine", "pipeline", "--trace"])
    out = json.loads(capsys.readouterr().out)
    assert rc in (EXIT_SUCCESS, EXIT_EXHAUSTED)
    assert "trace" in out and out["trace"]


def test_solve_exact_engine_with_trace(tmp_path, capsys):
    inst = run_gen(tmp_path, "dirac.json", "--family", "dirac-extremal", "--n", "9")
    assert main(["solve", "--in", str(inst)]) == EXIT_NEGATIVE
    assert "trace" not in json.loads(capsys.readouterr().out)
    assert main(["solve", "--in", str(inst), "--trace"]) == EXIT_NEGATIVE
    trace = json.loads(capsys.readouterr().out)["trace"]
    assert set(trace) == {
        "nodes", "restarts", "flex_nodes", "random_nodes", "asc_nodes",
        "filtered_candidates", "reflection_cuts", "symmetry_cuts", "hall_rejections", "missing_edge_rejections",
        "memo_hits", "memo_colour_hits", "memo_states",
    }
    assert all(isinstance(v, int) for v in trace.values())
    assert trace["flex_nodes"] + trace["random_nodes"] + trace["asc_nodes"] == trace["nodes"]
    assert trace["reflection_cuts"] > 0 and trace["filtered_candidates"] > 0


def test_verify_rejects_tampered_certificate(tmp_path, capsys):
    inst = run_gen(tmp_path, "inst.json", "--family", "random", "--n", "8",
                   "--delta", "0.7", "--seed", "4")
    cert = tmp_path / "cert.json"
    assert main(["solve", "--in", str(inst), "--out-cert", str(cert)]) == EXIT_SUCCESS
    capsys.readouterr()
    obj = json.loads(cert.read_text())
    obj["phi"][0] = obj["phi"][1]  # duplicate a colour
    cert.write_text(json.dumps(obj))
    rc = main(["verify", "--in", str(inst), "--cert", str(cert)])
    assert rc == EXIT_NEGATIVE
    assert json.loads(capsys.readouterr().out)["reason"] == "DuplicateColour"


def test_verify_rejects_fractional_colours(tmp_path, capsys):
    # int() would read colour c + 0.9 as c and verify the certificate
    inst = run_gen(tmp_path, "inst.json", "--family", "random", "--n", "8",
                   "--delta", "0.7", "--seed", "4")
    cert = tmp_path / "cert.json"
    assert main(["solve", "--in", str(inst), "--out-cert", str(cert)]) == EXIT_SUCCESS
    capsys.readouterr()
    obj = json.loads(cert.read_text())
    obj["phi"] = [c + 0.9 for c in obj["phi"]]
    cert.write_text(json.dumps(obj))
    assert main(["verify", "--in", str(inst), "--cert", str(cert)]) == EXIT_USAGE
    assert "must be an integer" in capsys.readouterr().err


def test_usage_errors_exit_3(tmp_path, capsys):
    assert main(["solve"]) == EXIT_USAGE  # missing --in
    capsys.readouterr()
    assert main(["gen", "--family", "bogus", "--n", "5"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["solve", "--in", str(tmp_path / "missing.json")]) == EXIT_USAGE


def test_gen_extremal_family_rejects_unsupported_sizes(tmp_path, capsys):
    """The extremal families are 2-uniform and dirac-extremal has n members:
    asking for another k or m is a usage error, not a silently different
    instance."""
    out = tmp_path / "inst.json"
    assert main(["gen", "--family", "bridge", "--n", "8", "--k", "3", "--out", str(out)]) == EXIT_USAGE
    assert "k=3" in capsys.readouterr().err
    assert main(["gen", "--family", "dirac-extremal", "--n", "8", "--m", "3", "--out", str(out)]) == EXIT_USAGE
    assert "m=3" in capsys.readouterr().err
    assert not out.exists()
    run_gen(tmp_path, "bridge.json", "--family", "bridge", "--n", "8", "--m", "5")


def test_solve_non_json_input_exits_3(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text("not json at all")
    assert main(["solve", "--in", str(inst)]) == EXIT_USAGE
    assert "malformed input" in capsys.readouterr().err


def test_solve_input_without_members_exits_3(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 3}))
    assert main(["solve", "--in", str(inst)]) == EXIT_USAGE
    assert "members" in capsys.readouterr().err


def test_verify_malformed_certificate_exits_3(tmp_path, capsys):
    inst = run_gen(tmp_path, "inst.json", "--family", "random", "--n", "8",
                   "--delta", "0.7", "--seed", "4")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"edges": [[0, 1]]}))  # no "phi"
    assert main(["verify", "--in", str(inst), "--cert", str(cert)]) == EXIT_USAGE
    assert "malformed input" in capsys.readouterr().err


def read_scan(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_scan_writes_csv(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--n", "8", "--delta-from", "0.3", "--delta-to", "0.5",
               "--delta-step", "0.1", "--trials", "5", "--seed", "1",
               "--out", str(out)])
    assert rc == EXIT_SUCCESS
    rows = read_scan(out)
    assert [r["delta"] for r in rows] == ["0.3", "0.4", "0.5"]
    for r in rows:
        parts = int(r["successes"]) + int(r["nones"]) + int(r["exhausted"])
        assert parts == int(r["trials"]) == 5


def test_scan_counts_pipeline_misses_as_failures(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--n", "12", "--delta-from", "0.2", "--delta-to", "0.2",
               "--trials", "3", "--engine", "pipeline", "--seed", "1",
               "--out", str(out)])
    assert rc == EXIT_SUCCESS
    [row] = read_scan(out)
    assert int(row["failures"]) >= 1 and row["exhausted"] == "0"


def test_scan_zero_trials_header_only(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--n", "8", "--delta-from", "0.4", "--delta-to", "0.4",
               "--trials", "0", "--out", str(out)])
    assert rc == EXIT_SUCCESS
    rows = read_scan(out)
    assert len(rows) == 1 and rows[0]["trials"] == "0"


def test_scan_jobs_deterministic(tmp_path):
    args = ["scan", "--n", "8", "--delta-from", "0.4", "--delta-to", "0.5",
            "--delta-step", "0.1", "--trials", "4", "--seed", "9"]
    seq = tmp_path / "seq.csv"
    par = tmp_path / "par.csv"
    assert main(args + ["--out", str(seq)]) == EXIT_SUCCESS
    assert main(args + ["--jobs", "2", "--out", str(par)]) == EXIT_SUCCESS
    drop_time = lambda rows: [
        {k: v for k, v in r.items() if k != "mean_time"} for r in rows
    ]
    assert drop_time(read_scan(seq)) == drop_time(read_scan(par))


def test_directory_paths_exit_3(tmp_path, capsys):
    inst = run_gen(tmp_path, "inst.json", "--family", "random", "--n", "8",
                   "--delta", "0.7", "--seed", "4")
    for argv in (
        ["solve", "--in", str(tmp_path)],
        ["verify", "--in", str(inst), "--cert", str(tmp_path)],
        ["gen", "--family", "random", "--n", "6", "--out", str(tmp_path)],
        ["scan", "--n", "8", "--delta-from", "0.4", "--delta-to", "0.4",
         "--trials", "1", "--out", str(tmp_path)],
    ):
        assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_scan_checks_out_before_the_first_trial(tmp_path, monkeypatch, capsys):
    import transversals.cli as cli

    calls = []

    def trial(payload):
        calls.append(payload)
        return "found", 0.0

    monkeypatch.setattr(cli, "_scan_trial", trial)
    assert main(["scan", "--n", "8", "--delta-from", "0.4", "--delta-to", "0.4",
                 "--trials", "2", "--out", str(tmp_path)]) == EXIT_USAGE
    assert calls == [] and capsys.readouterr().err.startswith("error: ")


def test_scan_rejects_non_positive_delta_step(capsys):
    for step in ("0", "-0.1", "nan"):
        argv = ["scan", "--n", "8", "--delta-from", "0.3", "--delta-to", "0.5",
                "--delta-step", step, "--trials", "1"]
        assert main(argv) == EXIT_USAGE
        assert "--delta-step" in capsys.readouterr().err


def test_scan_caps_workers_at_trials(tmp_path, monkeypatch):
    import transversals.cli as cli

    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--n", "8", "--delta-from", "0.4", "--delta-to", "0.5",
                 "--delta-step", "0.1", "--trials", "3", "--jobs", "1000",
                 "--out", str(out)]) == EXIT_SUCCESS
    assert requested == [3, 3]
    assert [r["trials"] for r in read_scan(out)] == ["3", "3"]


def test_solve_rejects_nan_budget(tmp_path, capsys):
    inst = run_gen(tmp_path, "inst.json", "--family", "random", "--n", "6",
                   "--delta", "0.6", "--seed", "1")
    for secs in ("nan", "0", "-1"):
        assert main(["solve", "--in", str(inst), "--budget-secs", secs]) == EXIT_USAGE
        assert "budget limits must be positive" in capsys.readouterr().err


def test_scan_rejects_negative_trials(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--n", "8", "--delta-from", "0.4", "--delta-to", "0.4",
                 "--trials", "-1", "--out", str(out)]) == EXIT_USAGE
    assert "--trials" in capsys.readouterr().err and not out.exists()


def test_scan_rejects_non_finite_delta_bounds(capsys):
    for lo, hi in (("nan", "0.5"), ("0.3", "nan"), ("-inf", "0.5"), ("0.3", "inf")):
        argv = ["scan", "--n", "8", f"--delta-from={lo}", f"--delta-to={hi}", "--trials", "1"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr()
        assert "--delta-from and --delta-to must be finite" in err.err and err.out == ""


def test_scan_rejects_a_bad_budget_before_any_output(capsys):
    for trials in ("0", "1"):
        argv = ["scan", "--n", "8", "--delta-from", "0.4", "--delta-to", "0.4",
                "--trials", trials, "--budget-secs", "nan"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr()
        assert "budget limits must be positive" in err.err and err.out == ""


def test_scan_rejects_a_reversed_delta_range(capsys):
    argv = ["scan", "--n", "8", "--delta-from", "0.9", "--delta-to", "0.1", "--trials", "1"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr()
    assert "--delta-from 0.9 exceeds --delta-to 0.1" in err.err and err.out == ""
