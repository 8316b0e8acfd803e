import csv
import io
import json
import os
import signal
import resource
import subprocess
import sys
import threading

import pytest

from gicsat import cli, encoder

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
FIG1 = os.path.join(DATA, "fig1.edges")
SINGLE = os.path.join(DATA, "single.edges")
K2 = os.path.join(DATA, "k2.edges")
GNP30 = os.path.join(DATA, "gnp30.edges")
GNP50 = os.path.join(DATA, "gnp50.edges")


def run_cli(args):
    return cli.main(list(args))


# ---- encode ----------------------------------------------------------------

def test_encode_sidecar_reports_clause_breakdown(tmp_path, capsys):
    out = tmp_path / "fig1.cnf"
    assert run_cli(["encode", FIG1, "--k", "1", "--output", str(out)]) == 0
    sidecar = json.loads((tmp_path / "fig1.json").read_text())
    assert sidecar["detection_clauses"] == 22
    # totalizer for n=5, k=1: nodes over 2 and 3 inputs (3 upward and
    # overflow clauses and 1 r_1 clause each), the 3-node's child over 2
    # (3 + 1) and the root's overflow clause (1)
    assert sidecar["cardinality_clauses"] == 13
    assert sidecar["n"] == 5 and sidecar["m"] == 6 and sidecar["k"] == 1
    assert set(sidecar["vars"]) == {"a", "b", "c", "d", "e"}
    lines = out.read_text().splitlines()
    assert f"p cnf {sidecar['num_vars']} {sidecar['num_clauses']}" in lines
    assert sum(not line.startswith(("c", "p")) for line in lines) == sidecar["num_clauses"]
    groups = [line.split()[2:] for line in lines if line.startswith("c group ")]
    assert sorted(groups) == [[label, str(v["x"]), str(v["y"])]
                              for label, v in sorted(sidecar["vars"].items())]


def test_encode_rejects_k_zero(tmp_path):
    assert run_cli(["encode", FIG1, "--k", "0",
                    "--output", str(tmp_path / "x.cnf")]) == 1


def test_encode_rejects_k_above_n(tmp_path):
    assert run_cli(["encode", FIG1, "--k", "6",
                    "--output", str(tmp_path / "x.cnf")]) == 1


def test_encode_output_that_is_its_own_sidecar(tmp_path, capsys):
    assert run_cli(["encode", FIG1, "--k", "1",
                    "--output", str(tmp_path / "o.json")]) == 1
    assert "sidecar" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("graph,output", [("g.edges", "g.edges"),
                                          ("g.json", "g.cnf")])
def test_encode_never_overwrites_its_graph(tmp_path, capsys, graph, output):
    # the output, or its sidecar, is the input graph itself
    with open(FIG1) as fp:
        text = fp.read()
    src = tmp_path / graph
    src.write_text(text)
    assert run_cli(["encode", str(src), "--format", "edgelist", "--k", "1",
                    "--output", str(tmp_path / output)]) == 1
    assert "input graph" in capsys.readouterr().err
    assert src.read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == [graph]


def test_encode_never_touches_the_solver(tmp_path, monkeypatch):
    import gicsat.satcore as satcore

    def boom(*a, **kw):
        raise AssertionError("encode path must not construct a solver")

    monkeypatch.setattr(satcore.CdclSolver, "__init__", boom)
    monkeypatch.setitem(satcore.ENGINES, "bundled", boom)
    assert run_cli(["encode", FIG1, "--k", "2",
                    "--output", str(tmp_path / "y.cnf")]) == 0


def test_encode_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("a b c\n")
    assert run_cli(["encode", str(bad), "--k", "1",
                    "--output", str(tmp_path / "z.cnf")]) == 2


@pytest.mark.parametrize("text", ["3 3 1\nfoo bar\n", "3 3 1\n1 7\n",
                                  "4 4 3\n1 2\n"])
def test_solve_mtx_bad_index_exit_code(tmp_path, capsys, text):
    bad = tmp_path / "bad.mtx"
    bad.write_text(text)
    assert run_cli(["solve", str(bad), "--k", "1"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    assert run_cli(["encode", str(tmp_path / "nope.edges"), "--k", "1",
                    "--output", str(tmp_path / "z.cnf")]) == 2


@pytest.mark.parametrize("command", [
    ["solve"], ["verify", "--sensors", "a"], ["encode", "--output", "z.cnf"]])
def test_non_utf8_graph_is_parse_error(tmp_path, capsys, monkeypatch, command):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"a b\n\xff c\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli([command[0], str(bad), "--k", "1", *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gicsat: parse error: cannot read")
    assert "utf-8" in err and err.count("\n") == 1


# ---- solve -----------------------------------------------------------------

def solve_json(tmp_path, capsys, *extra):
    out = tmp_path / "res.json"
    rc = run_cli(["solve", FIG1, "--k", "1", "--output", str(out), *extra])
    capsys.readouterr()
    assert rc == 0
    return json.loads(out.read_text())


def test_solve_worked_example_order(tmp_path, capsys):
    rec = solve_json(tmp_path, capsys, "--order", "e,d,c,b,a")
    assert rec["sensors"] == ["a", "c"]
    assert rec["sensor_count"] == 2
    assert rec["config"] == {"budget": 10_000_000, "order": ["e", "d", "c", "b", "a"],
                             "seed": None}
    assert rec["budget_exhaustions"] == 0
    assert "wall_seconds" not in rec


def test_solve_single_node(tmp_path, capsys):
    out = tmp_path / "res.json"
    assert run_cli(["solve", SINGLE, "--k", "1", "--output", str(out)]) == 0
    capsys.readouterr()
    rec = json.loads(out.read_text())
    assert rec["sensors"] == ["v"]


def test_solve_then_verify_passes(tmp_path, capsys):
    rec = solve_json(tmp_path, capsys)
    assert run_cli(["verify", FIG1, "--k", "1",
                    "--sensors", ",".join(rec["sensors"])]) == 0


def test_solve_k2_then_verify(tmp_path, capsys):
    out = tmp_path / "res.json"
    assert run_cli(["solve", FIG1, "--k", "2", "--output", str(out)]) == 0
    capsys.readouterr()
    rec = json.loads(out.read_text())
    assert run_cli(["verify", FIG1, "--k", "2",
                    "--sensors", ",".join(rec["sensors"])]) == 0


def test_solve_timing_flag_adds_wall_seconds(tmp_path, capsys):
    rec = solve_json(tmp_path, capsys, "--timing")
    assert rec["wall_seconds"] >= 0


def test_solve_random_order_needs_a_seed(capsys):
    # without a seed the shuffle, and so the record, would differ run to run
    assert run_cli(["solve", FIG1, "--k", "1", "--order", "random"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--seed" in err


def test_solve_unknown_order_label(tmp_path, capsys):
    assert run_cli(["solve", FIG1, "--k", "1", "--order", "q,w,e,r,t"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("output", ["g.edges", os.path.join("sub", "..", "g.edges")])
def test_solve_never_overwrites_its_graph(tmp_path, capsys, output):
    with open(FIG1) as fp:
        text = fp.read()
    src = tmp_path / "g.edges"
    src.write_text(text)
    (tmp_path / "sub").mkdir()
    assert run_cli(["solve", str(src), "--k", "1",
                    "--output", str(tmp_path / output)]) == 1
    out, err = capsys.readouterr()
    assert "input graph" in err and out == ""
    assert src.read_text() == text


@pytest.mark.parametrize("command", [["solve", FIG1, "--k", "1"],
                                     ["bench", FIG1]])
@pytest.mark.parametrize("flag,value", [
    ("--budget", "0"), ("--time-limit", "0"), ("--time-limit", "-1"),
    ("--time-limit", "nan"), ("--mem-limit", "0"), ("--mem-limit", "-5"),
])
def test_non_positive_numbers_are_usage_errors(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli([*command, flag, value])
    assert exc.value.code == 1
    assert f"argument {flag}: must be a finite number above 0" in \
        capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--order", "a,b"],
                                   ["--order", "a,a,b,c,d"]])
def test_solve_order_and_time_limit_usage_errors(capsys, extra):
    assert run_cli(["solve", FIG1, "--k", "1", *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gicsat: error:") and err.count("\n") == 1


def test_solve_time_limit_exit_code(tmp_path, capsys):
    gnp50 = os.path.join(DATA, "gnp50.edges")
    rc = run_cli(["solve", gnp50, "--k", "2", "--time-limit", "0.001"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err == "gicsat: resource limit: time limit exceeded\n"
    # nothing outlives the run: a follow-up in-process run succeeds
    assert run_cli(["solve", FIG1, "--k", "1",
                    "--output", str(tmp_path / "after.json")]) == 0
    capsys.readouterr()


def test_solve_huge_time_limit_is_no_limit(capsys):
    # a deadline far past any run is simply never reached
    assert run_cli(["solve", FIG1, "--k", "1", "--time-limit", "1e12"]) == 0
    limited = capsys.readouterr().out
    assert run_cli(["solve", FIG1, "--k", "1"]) == 0
    assert capsys.readouterr().out == limited


def test_solve_time_limit_leaves_the_callers_timer_alone(capsys):
    # the limit is a deadline, not the process's ITIMER_REAL and SIGALRM
    def outer(signum, frame):
        raise AssertionError("the caller's timer fired during the test")
    previous = signal.signal(signal.SIGALRM, outer)
    signal.setitimer(signal.ITIMER_REAL, 50)
    try:
        assert run_cli(["solve", FIG1, "--k", "1", "--time-limit", "100"]) == 0
        remaining, interval = signal.getitimer(signal.ITIMER_REAL)
        handler = signal.getsignal(signal.SIGALRM)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    capsys.readouterr()
    assert handler is outer
    assert 40 < remaining <= 50 and interval == 0


def test_solve_time_limit_on_a_worker_thread(capsys):
    # the deadline needs no signal, so it holds off the main thread too
    gnp50 = os.path.join(DATA, "gnp50.edges")
    rlimit = resource.getrlimit(resource.RLIMIT_AS)

    def on_worker(seconds):
        codes = []
        worker = threading.Thread(target=lambda: codes.append(run_cli(
            ["solve", gnp50, "--k", "2", "--time-limit", seconds,
             "--mem-limit", "4096"])))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        return codes, *capsys.readouterr()

    codes, out, err = on_worker("0.001")
    assert codes == [3] and out == ""
    assert err == "gicsat: resource limit: time limit exceeded\n"
    assert resource.getrlimit(resource.RLIMIT_AS) == rlimit
    codes, out, err = on_worker("60")
    assert codes == [0] and err == ""
    assert resource.getrlimit(resource.RLIMIT_AS) == rlimit
    assert run_cli(["solve", gnp50, "--k", "2", "--time-limit", "60"]) == 0
    assert capsys.readouterr().out == out


def test_solve_deterministic_output(tmp_path, capsys):
    # the graph search answers every query, at k=2 and at k=4
    for graph, k in ((FIG1, 2), (GNP30, 4)):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert run_cli(["solve", graph, "--k", str(k), "--order", "random",
                            "--seed", "5", "--output", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        record = json.loads(a.read_text())
        assert "queries_by_layer" not in record and "conflicts" not in record
        assert record["search_nodes"] >= record["queries"]


# ---- verify -----------------------------------------------------------------

def test_verify_pass(capsys):
    assert run_cli(["verify", FIG1, "--k", "1", "--sensors", "a,c"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "truth-table cross-check: PASS" in out


@pytest.mark.parametrize("edit", ["add a clause", "drop a clause"])
def test_verify_cross_check_needs_one_row_per_failure_set(monkeypatch, capsys, edit):
    # {a, c} is valid and the signature scan passes it, but an encoding that
    # loses models (x_a forced false) or gains them (y_a no longer needs a
    # failed node in N[a]) must fail the truth-table cross-check
    encode = encoder.encode_instance

    def wrong(g, k):
        inst = encode(g, k)
        if edit == "add a clause":
            inst.formula.clauses.append([-inst.x[0]])
        else:
            assert inst.formula.clauses.pop(0)[0] == -inst.y[0]
        return inst

    monkeypatch.setattr(encoder, "encode_instance", wrong)
    assert run_cli(["verify", FIG1, "--k", "1", "--sensors", "a,c"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS: {a,c} identifies all failure sets of size <= 1",
        "truth-table cross-check: FAIL"]


def test_verify_repeated_sensor_counted_once(capsys):
    assert run_cli(["verify", FIG1, "--k", "1", "--sensors", "a,c,a"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS: {a,c} identifies")


def test_verify_fail_prints_witness(capsys):
    assert run_cli(["verify", FIG1, "--k", "1", "--sensors", "a"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "identical signatures" in out


def test_verify_full_set(capsys):
    assert run_cli(["verify", FIG1, "--k", "1",
                    "--sensors", "a,b,c,d,e"]) == 0
    capsys.readouterr()


def test_verify_unknown_sensor_label(capsys):
    assert run_cli(["verify", FIG1, "--k", "1", "--sensors", "a,z"]) == 1
    capsys.readouterr()


def comma_graph(tmp_path):
    path = tmp_path / "comma.edges"
    path.write_text("a,b c\nc d\n")  # one node is labelled a,b
    return str(path)


def test_order_names_a_label_with_a_comma_csv_quoted(tmp_path, capsys):
    path = comma_graph(tmp_path)
    assert run_cli(["solve", path, "--k", "1", "--order", 'd,c,"a,b"']) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["config"]["order"] == ["d", "c", "a,b"]
    assert rec["sensors"] == ["a,b", "c"]


def test_sensors_name_a_label_with_a_comma_csv_quoted(tmp_path, capsys):
    # solve's sensors above, written as one CSV row as the README shows
    row = io.StringIO()
    csv.writer(row, lineterminator="").writerow(["a,b", "c"])
    assert row.getvalue() == '"a,b",c'
    assert run_cli(["verify", comma_graph(tmp_path), "--k", "1",
                    "--sensors", row.getvalue()]) == 0
    assert capsys.readouterr().out.startswith("PASS:")


@pytest.mark.parametrize("sensors,first_line,rc", [
    ('"a,b",c', 'PASS: {"a,b",c} identifies all failure sets of size <= 1', 0),
    ("d", 'FAIL: failure sets {} and {"a,b"} have identical signatures', 1)],
    ids=["pass", "fail"])
def test_verify_writes_each_set_as_one_csv_row(tmp_path, capsys, sensors,
                                               first_line, rc):
    # a set printed with bare commas would read {a,b,c}: three sensors
    assert run_cli(["verify", comma_graph(tmp_path), "--k", "1",
                    "--sensors", sensors]) == rc
    assert capsys.readouterr().out.splitlines()[0] == first_line


@pytest.mark.parametrize("option", ["--sensors", "--order"])
def test_label_list_with_a_line_break_is_usage_error(capsys, option):
    command = "verify" if option == "--sensors" else "solve"
    assert run_cli([command, FIG1, "--k", "1", option, "a\nc"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"gicsat: error: {option}: ")


def test_verify_past_the_enumeration_budget_is_resource_limit(tmp_path, capsys):
    # a 2,100-node path at k=2 has 2,206,051 failure sets, over the 2,000,000
    # that find_signature_collision enumerates; it refuses before enumerating
    path = tmp_path / "path.edges"
    path.write_text("".join(f"{v} {v + 1}\n" for v in range(2099)))
    assert run_cli(["verify", str(path), "--k", "2", "--sensors", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("gicsat: resource limit: 2206051 failure sets exceed "
                   "the budget of 2000000\n")


# ---- bench -------------------------------------------------------------------

def test_par2_definition():
    records = [{"status": "solved", "wall_seconds": 100.0},
               {"status": "timeout", "wall_seconds": 3600.0}]
    assert cli.par2_score(records, 3600.0) == pytest.approx(3650.0)


def test_par2_all_solved_is_mean():
    records = [{"status": "solved", "wall_seconds": 2.0},
               {"status": "solved", "wall_seconds": 4.0}]
    assert cli.par2_score(records, 100.0) == pytest.approx(3.0)


def test_par2_memout_counts_as_double_limit():
    records = [{"status": "memout", "wall_seconds": 1.0}]
    assert cli.par2_score(records, 10.0) == pytest.approx(20.0)


def test_bench_end_to_end(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"# two tiny graphs\n  # indented comment\n{FIG1}\n{K2}\n")
    report_path = tmp_path / "report.json"
    rc = run_cli(["bench", str(manifest), "--k", "1,2", "--time-limit", "120",
                  "--output", str(report_path)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert len(report["records"]) == 4
    assert all(r["status"] == "solved" for r in report["records"])
    assert all(r["verified"] is True for r in report["records"])
    assert report["par2"] < 120


def test_bench_verifies_under_the_verify_budget(tmp_path, capsys):
    # 251,176 failure sets, within the 2,000,000 that `gicsat verify` scans,
    # so bench checks the placement instead of recording null
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{GNP50}\n")
    report_path = tmp_path / "report.json"
    assert run_cli(["bench", str(manifest), "--k", "4", "--time-limit", "120",
                    "--output", str(report_path)]) == 0
    capsys.readouterr()
    (record,) = json.loads(report_path.read_text())["records"]
    assert record["status"] == "solved" and record["verified"] is True


def test_bench_skips_k_above_node_count(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{K2}\n")
    report_path = tmp_path / "report.json"
    rc = run_cli(["bench", str(manifest), "--k", "1,3", "--time-limit", "60",
                  "--output", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "k2.edges k=3: skipped (n=2)" in out
    report = json.loads(report_path.read_text())
    assert [(r["k"], r["status"]) for r in report["records"]] == [(1, "solved")]
    assert report["par2"] < 60
    assert report["par2_by_k"]["3"] == 0.0


def test_bench_timeout_scores_double_limit(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{GNP50}\n")
    report_path = tmp_path / "report.json"
    rc = run_cli(["bench", str(manifest), "--k", "2", "--time-limit", "0.05",
                  "--output", str(report_path)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(report_path.read_text())
    (record,) = report["records"]
    assert record["status"] == "timeout"
    assert report["par2"] == pytest.approx(0.1)


def test_bench_unparsable_graph_record(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("a b c\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{bad}\n")
    report_path = tmp_path / "report.json"
    assert run_cli(["bench", str(manifest), "--k", "1,2",
                    "--output", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert [r["status"] for r in report["records"]] == ["encode-fail"] * 2
    assert all("line 1" in r["error"] and r["n"] is None
               for r in report["records"])


def test_bench_non_utf8_graph_record(tmp_path, capsys):
    # the bad graph gets an encode-fail record and the run goes on
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"\xff\xfe\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{bad}\n{FIG1}\n")
    report_path = tmp_path / "report.json"
    assert run_cli(["bench", str(manifest), "--k", "1",
                    "--output", str(report_path)]) == 0
    capsys.readouterr()
    first, second = json.loads(report_path.read_text())["records"]
    assert first["status"] == "encode-fail" and "utf-8" in first["error"]
    assert second["status"] == "solved"
    manifest.write_bytes(b"\xff\n")  # a non-UTF-8 manifest ends the run
    assert run_cli(["bench", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gicsat: parse error: cannot read manifest")


@pytest.mark.parametrize("output", ["manifest.txt", "g.edges"])
def test_bench_never_overwrites_its_inputs(tmp_path, capsys, monkeypatch,
                                           output):
    # the report path is the manifest or a graph it lists
    with open(FIG1) as fp:
        text = fp.read()
    (tmp_path / "g.edges").write_text(text)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("g.edges\n")

    def no_child(*args, **kwargs):
        raise AssertionError("no solve may start before the check")

    monkeypatch.setattr(cli.subprocess, "run", no_child)
    assert run_cli(["bench", str(manifest), "--k", "1",
                    "--output", str(tmp_path / output)]) == 1
    assert "would overwrite the input" in capsys.readouterr().err
    assert manifest.read_text() == "g.edges\n"
    assert (tmp_path / "g.edges").read_text() == text


def test_bench_bad_k_list(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{FIG1}\n")
    assert run_cli(["bench", str(manifest), "--k", "1,zap"]) == 1
    capsys.readouterr()


# ---- module entry point ---------------------------------------------------------

def test_python_dash_m_entry(tmp_path):
    out = tmp_path / "res.json"
    proc = subprocess.run(
        [sys.executable, "-m", "gicsat", "solve", FIG1, "--k", "1",
         "--order", "e,d,c,b,a", "--output", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["sensors"] == ["a", "c"]
