import dataclasses
import json
import os
import subprocess
import sys
import threading
from collections.abc import Iterator

import pytest

import evograph
from evograph import cli, deduce, homsystem, search
from evograph.cli import (
    AnalysisReport,
    InvalidRange,
    _predict,
    analyze_graph,
    load_graph,
    main,
    parse_sweep,
)
from evograph.deduce import Verdict
from evograph.graphs import (
    GraphError,
    classify_regularity,
    generate_family,
    is_singular,
    parse_edge_list,
)
from evograph.homsystem import derive_constraints
from evograph.prooflog import NULL_ONLY, ProofLog


# The child imports the same evograph as this process, installed or not.
SRC = os.path.dirname(os.path.dirname(evograph.__file__))


CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "evograph", *args], capture_output=True, text=True, env=CHILD_ENV
    )
    return proc.returncode, proc.stdout, proc.stderr


def strict_json(text):
    """Parse as strict JSON, which has no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestSweepParsing:
    def test_single_variable_list(self):
        assert list(parse_sweep("tadpole:4,m for m in 1,3,5")) == [
            "tadpole:4,1",
            "tadpole:4,3",
            "tadpole:4,5",
        ]

    def test_two_variables_cartesian(self):
        assert list(parse_sweep("cmn:m,n for m,n in 2..3")) == [
            "cmn:2,2",
            "cmn:2,3",
            "cmn:3,2",
            "cmn:3,3",
        ]

    def test_template_with_constant_slot(self):
        assert list(parse_sweep("caterpillar:1,a,b for a,b in 2..2")) == ["caterpillar:1,2,2"]

    def test_plain_instance_passes_through(self):
        assert list(parse_sweep("bull")) == ["bull"]

    def test_empty_range(self):
        assert list(parse_sweep("")) == []

    def test_range_expands_lazily(self):
        instances = parse_sweep("cmn:a,b for a,b in 1..100")
        assert isinstance(instances, Iterator)
        assert [next(instances), next(instances)] == ["cmn:1,1", "cmn:1,2"]

    def test_bad_range_rejected(self):
        with pytest.raises(InvalidRange):
            parse_sweep("tadpole:4,m for m in x..y")
        with pytest.raises(InvalidRange):
            parse_sweep("tadpole:4,m for m")
        with pytest.raises(InvalidRange, match="'b'"):
            parse_sweep("cmn:a,b for a in 2..3")

    def test_repeated_variable_rejected(self):
        with pytest.raises(InvalidRange, match="named once and used"):
            parse_sweep("cmn:a,a for a,a in 2..3")

    def test_unused_variable_rejected(self):
        with pytest.raises(InvalidRange, match="named once and used"):
            parse_sweep("cmn:a,2 for a,b in 2..3")


@pytest.mark.parametrize("spec", ["cmn:a,a for a,a in 2..3", "cmn:a,2 for a,b in 2..3"])
def test_sweep_rejects_a_repeated_or_unused_variable_before_any_output(spec, capsys):
    assert main(["sweep", spec, "--fast"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "spec, first",
    [
        ("foo:a for a in 1..2", "foo:1"),
        ("tadpole:a for a in 3..4", "tadpole:3"),
        ("caterpillar: for a in 1..2", "caterpillar:"),
        ("foo", "foo"),
    ],
)
def test_sweep_rejects_a_bad_family_before_any_output(spec, first, capsys):
    # the error generate_family gives for the first instance, before the CSV header
    with pytest.raises(GraphError) as exc:
        generate_family(first)
    assert main(["sweep", spec, "--fast"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {exc.value}\n"


class TestReports:
    def test_json_round_trip(self):
        report = analyze_graph(
            generate_family("bull"), "bull", run_numeric=False
        )
        assert json.loads(report.to_json()) == dataclasses.asdict(report)

    def test_prediction_logic(self):
        cases = {
            "cycle:4": ("isomorphic", "constructive"),       # singular, regular
            "cycle:5": ("isomorphic", "regularity-criterion"),  # non-singular, regular
            "bull": ("conjectured-null-only", "conjecture"),  # singular, neither
            "path:4": ("null-only", "regularity-criterion"),  # non-singular, neither
            "path:1": ("no-random-walk-algebra", "degree-0"),  # regular of degree 0
        }
        for desc, (pred, basis) in cases.items():
            g = generate_family(desc)
            assert _predict(is_singular(g).singular, classify_regularity(g)) == (pred, basis), desc

    def test_prediction_never_contradicts_verdict(self):
        for desc in ["bull", "cycle:4", "cmn:2,2", "path:2", "path:4", "tadpole:4,1"]:
            report = analyze_graph(generate_family(desc), desc, run_numeric=False)
            if report.prediction == "isomorphic":
                assert report.verdict != "null-only"


class TestCommands:
    def test_analyze_json(self):
        code, out, _ = run_cli("analyze", "tadpole:4,1", "--fast", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["singular"] is True
        assert payload["verdict"] == "null-only"
        assert [1, 3] in payload["twin_classes"]

    def test_analyze_rejects_bad_input(self):
        code, _, err = run_cli("analyze", "tadpole:九")
        assert code == 2 and "error" in err

    def test_analyze_rejects_unreadable_path(self, tmp_path):
        code, _, err = run_cli("analyze", str(tmp_path))
        assert code == 2 and "error" in err and "Traceback" not in err

    def test_closed_stdout_is_not_an_input_error(self):
        # as in `evograph derive cmn:6,6 | head -n 1`, the reader goes away
        with subprocess.Popen(
            [sys.executable, "-m", "evograph", "derive", "cmn:6,6"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
        ) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 141 and err == b""

    def test_sweep_streams_rows_to_a_closed_stdout(self):
        # each CSV row is written as its instance finishes, so a reader that
        # goes away after the header and two rows stops a 100000-instance
        # sweep; a sweep that held its rows back is killed at the timeout
        with subprocess.Popen(
            [sys.executable, "-m", "evograph", "sweep", "path:n for n in 1..100000", "--fast"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=CHILD_ENV,
        ) as proc:
            watchdog = threading.Timer(30, proc.kill)
            watchdog.start()
            try:
                lines = [proc.stdout.readline() for _ in range(3)]
                proc.stdout.close()
                err = proc.stderr.read()
                proc.wait()
            finally:
                watchdog.cancel()
        assert proc.returncode == 141 and err == b""
        assert [line.split(b",")[0] for line in lines] == [b"instance", b"path:1", b"path:2"]

    def test_analyze_single_vertex(self):
        code, out, _ = run_cli("analyze", "path:1", "--fast")
        assert code == 0 and "regular of degree 0" in out

    def test_analyze_single_vertex_json(self):
        # neither deduction nor search runs without a random-walk algebra
        for fast in (["--fast"], []):
            code, out, _ = run_cli("analyze", "path:1", *fast, "--json")
            payload = json.loads(out)
            assert code == 0 and payload["closed_form"] is False
            assert (payload["prediction"], payload["prediction_basis"]) == ("no-random-walk-algebra", "degree-0")
            assert (payload["verdict"], payload["open_branches"], payload["numeric"]) == (
                "no-random-walk-algebra", 0, None
            )
            code, out, _ = run_cli("sweep", "path:1", *fast, "--json")
            [row] = json.loads(out)
            assert code == 0
            assert (row["verdict"], row["numeric"]) == ("no-random-walk-algebra", "skipped")

    def test_analyze_rejects_disconnected_file(self, tmp_path):
        bad = tmp_path / "two_pieces.txt"
        bad.write_text("4 2\n1 2\n3 4\n")
        code, _, err = run_cli("analyze", str(bad))
        assert code == 2

    def test_derive_outputs_tagged_constraints(self):
        code, out, _ = run_cli("derive", "path:2")
        assert code == 0
        payload = json.loads(out)
        assert {c["tag"] for c in payload["constraints"]} >= {"prodzero:1:1:2", "square:1:1"}

    def test_prove_exhausted_budget_exits_3(self):
        code, out, _ = run_cli("prove", "bull", "--depth", "0")
        assert code == 3 and "unknown" in out

    def test_prove_writes_replayable_log(self, tmp_path):
        from evograph.homsystem import derive_constraints
        from evograph.prooflog import load_log, replay_proof

        out_path = tmp_path / "bull.prooflog.json"
        code, out, _ = run_cli("prove", "bull", "--log-out", str(out_path))
        assert code == 0 and "null-only" in out
        sys_ = derive_constraints(generate_family("bull"))
        log = load_log(out_path.read_text(), sys_)
        assert replay_proof(sys_, log)

    def test_prove_reports_kept_and_derived_steps(self):
        # a null-only log keeps its premise cone: 1 760 of path:9's 4 794 steps
        code, out, _ = run_cli("prove", "path:9")
        assert code == 0 and "proof log steps: 1760 (of 4794 derived)" in out

    def test_prove_counts_every_derived_step_of_a_trimmed_unknown_log(self):
        # an unknown log keeps its premise cone too: 2 074 of path:11's 8 518
        code, out, _ = run_cli("prove", "path:11")
        assert code == 3 and "proof log steps: 2074 (of 8518 derived)" in out

    def test_gen_round_trips(self, tmp_path):
        path = tmp_path / "t41.edges"
        code, _, _ = run_cli("gen", "tadpole:4,1", "-o", str(path))
        assert code == 0
        assert parse_edge_list(path.read_text()).adj == generate_family("tadpole:4,1").adj

    def test_search_command(self):
        code, out, _ = run_cli("search", "cycle:4", "--restarts", "30", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "verified-hom" and payload["isomorphism"]

    def test_search_json_with_every_restart_null(self):
        # every cycle:8 restart ends in the null map, so no residual survives
        code, out, _ = run_cli("search", "cycle:8", "--json", "--restarts", "3")
        payload = strict_json(out)
        assert code == 0 and (payload["outcome"], payload["best_residual"]) == ("none-found", None)
        assert payload["stats"]["restarts"] == payload["stats"]["null_exits"] == 3

    def test_analyze_json_with_every_restart_null(self):
        code, out, _ = run_cli("analyze", "cycle:8", "--json", "--restarts", "3", "--depth", "0")
        numeric = strict_json(out)["numeric"]
        assert code == 0 and (numeric["outcome"], numeric["best_residual"]) == ("none-found", None)

    def test_sweep_json_fast_has_no_residual(self):
        code, out, _ = run_cli("sweep", "tadpole:4,m for m in 1,3", "--fast", "--json")
        assert code == 0 and [row["best_residual"] for row in strict_json(out)] == [None, None]

    @pytest.mark.parametrize("command, key", [("prove", "verdict"), ("search", "outcome")])
    def test_single_vertex_has_no_algebra(self, command, key):
        code, out, _ = run_cli(command, "path:1")
        assert code == 0 and f"{key}: no-random-walk-algebra" in out
        code, out, _ = run_cli(command, "path:1", "--json")
        assert code == 0
        assert json.loads(out) == {key: "no-random-walk-algebra", "reason": "degree-0"}

    def test_sweep_rows_in_order(self):
        code, out, _ = run_cli("sweep", "tadpole:4,m for m in 1,3", "--fast", "--json")
        assert code == 0
        rows = json.loads(out)
        assert [r["instance"] for r in rows] == ["tadpole:4,1", "tadpole:4,3"]
        assert all(r["verdict"] == "null-only" for r in rows)

    def test_sweep_trips_on_forged_certificate(self, monkeypatch, capsys):
        forged = Verdict(NULL_ONLY, ProofLog(verdict=NULL_ONLY))
        monkeypatch.setattr(cli, "prove_null_only", lambda g, budget: forged)
        assert main(["analyze", "cycle:4", "--fast"]) == 1
        assert main(["sweep", "cycle:4", "--fast"]) == 1
        assert "soundness" in capsys.readouterr().err

    def test_trips_on_a_verified_homomorphism_next_to_null_only(self, monkeypatch, capsys):
        forged = search.SearchOutcome(search.VERIFIED_HOM, 0.0)
        monkeypatch.setattr(search, "find_homomorphism", lambda g, cfg: forged)
        assert main(["analyze", "bull", "--json"]) == 1
        assert "soundness" in capsys.readouterr().err
        assert main(["sweep", "bull"]) == 1
        assert "soundness" in capsys.readouterr().err

    def test_prove_without_output_writes_no_log(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("dump_log called with no log to write or print")

        monkeypatch.setattr(cli, "dump_log", refuse)
        assert main(["prove", "bull"]) == 0
        assert "verdict: null-only" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, derivations",
        [
            (["analyze", "star:3", "--fast"], 1),
            (["analyze", "cycle:4", "--fast"], 1),
            (["analyze", "bull", "--fast", "--log-out", "LOG"], 1),
            (["prove", "bull", "--json"], 1),
            (["paper", "--fast"], 15),
        ],
        ids=["analyze-star", "analyze-cycle", "analyze-log-out", "prove-json", "paper-fast"],
    )
    def test_one_derivation_per_graph(self, argv, derivations, monkeypatch, capsys, tmp_path):
        calls = []

        def counted(g):
            calls.append(g)
            return derive_constraints(g)

        for module in (homsystem, deduce, cli, search):
            if hasattr(module, "derive_constraints"):
                monkeypatch.setattr(module, "derive_constraints", counted)
        assert main([str(tmp_path / "log.json") if a == "LOG" else a for a in argv]) == 0
        assert len(calls) == derivations

    @pytest.mark.parametrize("argv", [["search", "bull", "--fast"], ["paper", "--json"]])
    def test_unread_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["search", "cycle:4", "--restarts", "0"], "--restarts"),
            (["search", "cycle:4", "--seed", "-1"], "--seed"),
            (["prove", "bull", "--depth", "-3"], "--depth"),
        ],
        ids=["restarts", "seed", "depth"],
    )
    def test_out_of_range_flags_rejected(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_sweep_empty_range_ok(self):
        code, out, _ = run_cli("sweep", "", "--fast", "--json")
        assert code == 0 and json.loads(out) == []

    def test_paper_fast(self):
        code, out, _ = run_cli("paper", "--fast")
        assert code == 0
        assert "FAIL" not in out

    def test_load_graph_prefers_files(self, tmp_path):
        path = tmp_path / "bull"  # file whose NAME is also a family
        path.write_text("2 1\n1 2\n")
        g = load_graph(str(path))
        assert g.n == 2


# Runs in a fresh interpreter: the certificate path and the commands on it
# must leave numpy unloaded, and the search names still resolve on demand.
NUMPY_FREE_CHILD = """\
import contextlib, io, sys
import evograph
from evograph import derive_constraints, generate_family, prove_null_only, replay_proof
from evograph.cli import main
from evograph.prooflog import NULL_ONLY, dump_log, load_log

for desc in ("cmn:2,2", "tadpole:4,1"):
    g = generate_family(desc)
    verdict = prove_null_only(g)
    system = derive_constraints(g)
    assert verdict.kind == NULL_ONLY and replay_proof(system, load_log(dump_log(verdict.log, verdict.system), system))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["derive", "cmn:2,2"], ["prove", "tadpole:4,1"], ["gen", "bull"]):
        assert main(argv) == 0, argv
names = ["SearchConfig", "SearchOutcome", "closed_form_iso", "find_homomorphism", "gradient"]
assert set(names) <= set(dir(evograph))
assert "numpy" not in sys.modules, "numpy loaded"
from evograph import SearchConfig, SearchOutcome, closed_form_iso, find_homomorphism, gradient
from evograph import search
assert [SearchConfig, SearchOutcome, closed_form_iso, find_homomorphism, gradient] == [
    getattr(search, name) for name in names
]
assert "numpy" in sys.modules
"""


def test_certificate_path_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_CHILD], capture_output=True, text=True, env=CHILD_ENV, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_missing_numpy_is_an_error_line(monkeypatch, capsys):
    # None in sys.modules makes an import fail as if numpy were not installed
    monkeypatch.delitem(sys.modules, "evograph.search")
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert main(["search", "cycle:4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "needs numpy" in err


def test_other_import_errors_still_raise(monkeypatch):
    monkeypatch.setitem(sys.modules, "evograph.search", None)
    with pytest.raises(ModuleNotFoundError, match="evograph.search"):
        main(["search", "cycle:4"])


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        evograph.no_such_name
