import argparse
import ast
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import threading
import tomllib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kp40
from kp40 import bounds, cli, ksset, simulate
from kp40.ksset import build_graph, canonical_set, mermin_subset
from kp40.simulate import CountRecord
from oracles import fresh_parse_args, trace_by_records


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------- verify

def test_verify_passes(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["checks"]) == 5
    assert all(c["ok"] for c in data["checks"])


def _verify_csv(argv, capsys):
    """verify's exit code and CSV rows under `argv`, checked against the same run's JSON: the
    same exit code, a name,ok,detail header, and the JSON checks as rows, ok as True or False."""
    code, out, _ = run_cli([*argv, "--format", "csv"], capsys)
    json_code, report, _ = run_cli([*argv, "--format", "json"], capsys)
    reader = csv.DictReader(io.StringIO(out))
    rows = list(reader)
    assert (json_code, reader.fieldnames) == (code, ["name", "ok", "detail"])
    assert rows == [{**c, "ok": str(c["ok"])} for c in json.loads(report)["checks"]]
    return code, rows


def test_verify_csv_format(capsys):
    code, rows = _verify_csv(["verify"], capsys)
    assert code == 0
    assert len(rows) == 5 and all(row["ok"] == "True" for row in rows)


def test_verify_names_malformed_ray(tmp_path, capsys):
    data = canonical_set().to_json()
    data["rays"][36] = [1, -2, 1, 0, 0, 0, 0]    # ray 37 short one entry
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    code, _, err = run_cli(["verify", "--rays", str(p)], capsys)
    assert code == 2
    assert "ray 37" in err


def _swap_first_two_groups(data):
    # still orthogonal groups, but group 1 no longer holds the rays its
    # pentagram context generates
    rays = data["rays"]
    data["rays"] = rays[8:16] + rays[:8] + rays[16:]


def _swap_rays_1_and_9(data):
    rays = data["rays"]
    rays[0], rays[8] = rays[8], rays[0]


def _move_index_9_into_group_1(data):
    groups = data["basis_groups"]
    groups[1].remove(9)
    groups[0].append(9)


# a file whose groups are not the pentagram's bases loads, and the ray regeneration check, which
# reads each row's eigenvalues under its context's words, names why
@pytest.mark.parametrize("edit,code,report", [
    (lambda data: None, 0, "ray regeneration: 40/40 rays matched"),
    (lambda data: data["basis_groups"][0].insert(0, data["basis_groups"][0].pop(1)), 0,    # [2, 1, 3, ..., 8]
     "ray regeneration: 40/40 rays matched"),
    (_swap_first_two_groups, 1,
     "ray regeneration: table row 1 of context 1 is not an eigenvector of ZXX"),
    # a copy of group 1 after the five, and a group short
    (lambda data: data["basis_groups"].append(data["basis_groups"][0]), 1,
     "ray regeneration: expected 5 basis groups, got 6"),
    (lambda data: data["basis_groups"].pop(), 1,
     "ray regeneration: expected 5 basis groups, got 4"),
    (_swap_rays_1_and_9, 1,
     "ray regeneration: table row 1 of context 1 is not an eigenvector of ZXX"),
    (lambda data: data["basis_groups"][0].__setitem__(7, 10), 1,    # ray 10 in place of ray 8
     "ray regeneration: table row 10 of context 1 is not an eigenvector of ZXX"),
    (_move_index_9_into_group_1, 1,
     "ray regeneration: table row 9 of context 1 is not an eigenvector of ZXX"),
    (lambda data: data["rays"].__setitem__(17, [2 * x for x in data["rays"][16]]), 1,
     "ray regeneration: table rows 17 and 18 of context 3 span one line"),
], ids=["built-in-rows", "group-1-reordered", "groups-swapped", "six-groups", "four-groups",
        "rays-1-and-9-swapped", "ray-10-in-group-1", "index-9-moved-into-group-1",
        "row-18-twice-row-17"])
def test_verify_rays_regenerates_and_matches_the_file(tmp_path, capsys, edit, code, report):
    data = canonical_set().to_json()
    edit(data)
    p = tmp_path / "rays.json"
    p.write_text(json.dumps(data))
    got, rows = _verify_csv(["verify", "--rays", str(p)], capsys)
    assert got == code
    assert (rows[0]["ok"], f"{rows[0]['name']}: {rows[0]['detail']}") == (str(code == 0), report)
    assert sum(row["ok"] == "True" for row in rows) == (5 if code == 0 else 0)


def test_verify_reports_first_failing_check(monkeypatch, capsys):
    fake = [("degree check", False, "vertex 3 has degree 22")]
    monkeypatch.setattr(cli, "verification_checks", lambda *a, **k: fake)
    code, out, err = run_cli(["verify"], capsys)
    assert code == 1
    assert "degree check" in err


def test_a_cold_set_and_verify_certify_the_pentagram_once(monkeypatch, capsys):
    # canonical_set certifies the bijection; verify reads it back, not certifies it again
    calls = []
    real = ksset._match_pentagram
    monkeypatch.setattr(ksset, "_match_pentagram", lambda *a: calls.append(a) or real(*a))
    canonical_set.cache_clear()
    canonical_set()
    assert all(ok for _, ok, _ in cli.verification_checks())
    assert len(calls) == 1
    code, _, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert len(calls) == 1
    canonical_set.cache_clear()
    code, _, _ = run_cli(["verify"], capsys)
    assert code == 0
    assert len(calls) == 2


@pytest.fixture
def derivations(monkeypatch):
    """Counts of ksset.build_graph and ksset.enumerate_octads calls, from a cleared set on."""
    counts = {"build_graph": 0, "enumerate_octads": 0}
    for name in counts:
        real = getattr(ksset, name)

        def counted(*a, _real=real, _name=name):
            counts[_name] += 1
            return _real(*a)

        monkeypatch.setattr(ksset, name, counted)
    canonical_set.cache_clear()
    return counts


def test_every_reader_of_the_canonical_graph_and_octads_shares_one_build(derivations, capsys):
    from kp40.analysis import exclusivity_epsilon
    from kp40.simulate import PulseRun, run_exclusivity_campaign

    canonical_set()
    assert derivations == {"build_graph": 0, "enumerate_octads": 0}    # derived on first use
    assert all(ok for _, ok, _ in cli.verification_checks())
    assert run_cli(["verify"], capsys)[0] == 0
    code, out, _ = run_cli(["octads"], capsys)
    assert code == 0 and json.loads(out)["count"] == 25
    doc = json.loads(json.dumps(run_exclusivity_campaign(PulseRun(seed=3, n_pulses=40000))))
    assert exclusivity_epsilon(doc) == doc["epsilon"]
    assert derivations == {"build_graph": 1, "enumerate_octads": 1}
    g, octads = ksset.canonical_graph(), ksset.canonical_octads()
    assert type(g.adj) is tuple and type(octads) is tuple
    assert all(type(o) is tuple for o in octads)
    assert derivations == {"build_graph": 1, "enumerate_octads": 1}

    canonical_set.cache_clear()    # the graph and octads go with the set
    assert run_cli(["verify"], capsys)[0] == 0
    assert derivations == {"build_graph": 2, "enumerate_octads": 2}
    assert ksset.canonical_graph() == g and ksset.canonical_octads() == octads


def test_verify_rays_builds_its_own_graph_from_the_canonical_table(derivations, tmp_path, capsys):
    assert run_cli(["verify"], capsys)[0] == 0
    assert derivations == {"build_graph": 1, "enumerate_octads": 1}
    p = tmp_path / "canonical.json"
    p.write_text(json.dumps(canonical_set().to_json()))
    assert run_cli(["verify", "--rays", str(p)], capsys)[0] == 0
    assert derivations == {"build_graph": 2, "enumerate_octads": 2}
    assert run_cli(["verify"], capsys)[0] == 0
    assert derivations == {"build_graph": 2, "enumerate_octads": 2}


def test_verification_checks_fail_on_a_graph_with_a_missing_edge():
    from kp40.ksset import OrthoGraph, build_graph

    g = build_graph(canonical_set())
    adj = list(g.adj)
    adj[0] &= ~(1 << 1)    # drop edge (1, 2), both directions
    adj[1] &= ~(1 << 0)
    broken = OrthoGraph(n=g.n, adj=tuple(adj))
    rows = {name: ok for name, ok, _ in cli.verification_checks(g=broken)}
    assert rows["degree check"] is False
    assert rows["edge count"] is False
    assert rows["ray regeneration"] is True    # the set itself is untouched


# ------------------------------------------------------------- octads and bounds

def test_octads_json_and_csv(capsys):
    code, out, _ = run_cli(["octads"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 25
    code, out, _ = run_cli(["octads", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 25


# keys and strings with quotes, backslashes, control and non-ASCII characters; every JSON
# scalar, big ints and the float edge cases; empty containers at every depth
_TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters(), max_size=5)
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**80) | _TEXT
            | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
            | st.sampled_from([[], {}, ()]))
_DOCS = st.recursive(_SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4) | st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=24)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_DOCS)
def test_dump_json_writes_the_bytes_of_json_dumps(doc):
    assert cli._dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("doc", [{(1, 2): [1]}, {"a": [{1, 2}]}, {"a": 1, 2: [3]}],
                         ids=["tuple-key", "a-set", "str-and-int-keys"])
def test_dump_json_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
        cli._dump_json(doc)


def test_write_rows_writes_the_bytes_of_dictwriter_for_every_table(tmp_path, monkeypatch, capsys):
    tables, write_rows = {}, cli._write_rows
    monkeypatch.setattr(cli, "_write_rows",
                        lambda f, rows: write_rows(f, tables.setdefault(tuple(rows[0]), rows)))
    sim = tmp_path / "sim"
    for argv in (["verify", "--format", "csv"], ["octads", "--format", "csv"], ["bounds", "--format", "csv"],
                 ["predict", "--state", "w"],
                 ["--out", str(sim), "simulate", "--state", "ghz", "--pulses", "40000"],
                 ["--out", str(tmp_path / "an"), "analyze", str(sim / "record.json")],
                 ["--out", str(tmp_path / "rep"), "reproduce", "--pulses", "200000"]):
        assert run_cli(argv, capsys)[0] == 0
    assert len(tables) == 8    # verify, octads, bounds, predict, trace, fig3, fig4 and summary rows
    for rows in tables.values():
        want, got = io.StringIO(), io.StringIO()
        w = csv.DictWriter(want, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
        write_rows(got, rows)
        assert got.getvalue() == want.getvalue()


@pytest.mark.parametrize("rows", [
    [{"only": 1}, {"only": "a,b"}, {"only": None}],
    [{"a": 1, "b": 2, "c": 3}, {"c": 6, "a": 4, "b": 5}, {"b": 8, "c": 9, "a": 7}],
], ids=["one-column", "keys-in-another-order"])
def test_write_rows_writes_the_bytes_of_dictwriter_for_any_key_order(rows):
    want, got = io.StringIO(), io.StringIO()
    w = csv.DictWriter(want, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    cli._write_rows(got, rows)
    assert got.getvalue() == want.getvalue()


def test_threads_that_switch_often_share_the_kept_encoders():
    # documents of different depths, so the threads build and read encoders of each depth at once
    def nested(depth: int):
        doc = [depth, 2.5, None, "x"]
        for d in range(depth):
            doc = {"d": d, "in": doc, "s": "\u00e9"} if d % 2 else [doc, True, {"k": d}]
        return doc

    docs = [nested(depth) for depth in range(12)]
    want = [json.dumps(doc, indent=2, sort_keys=True) + "\n" for doc in docs]
    cli._encoder.cache_clear()

    def dump(seed: int) -> list[bool]:
        order = list(range(len(docs))) * 30
        random.Random(seed).shuffle(order)
        return [cli._dump_json(docs[k]) == want[k] for k in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(dump, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert [len(r) for r in results] == [30 * len(docs)] * 4
    assert all(all(r) for r in results)


def test_global_flags_accepted_before_or_after_subcommand(capsys):
    _, before, _ = run_cli(["--format", "csv", "octads"], capsys)
    _, after, _ = run_cli(["octads", "--format", "csv"], capsys)
    assert before == after


def test_a_global_flag_after_the_command_overrides_the_one_before():
    assert cli.parse_args(["verify"]).seed == 0
    assert cli.parse_args(["--seed", "1", "verify"]).seed == 1
    assert cli.parse_args(["--seed", "1", "verify", "--seed", "2"]).seed == 2


def test_the_first_word_after_a_global_flag_is_its_value():
    args = cli.parse_args(["--out", "verify", "bounds"])
    assert (args.command, args.out) == ("bounds", "verify")


# command -> its help line in `kp40 --help`
COMMAND_HELP = {
    "verify": "structural self-checks of the ray set",
    "octads": "enumerate all complete orthogonal octads",
    "bounds": "exact classical bounds and corrected limits",
    "predict": "exact 40-entry probability profile of a state",
    "simulate": "one pulse-level run with a convergence trace",
    "exclusivity": "orthogonal-pair campaign estimating epsilon",
    "calibrate": "grid-search a noise config hitting the epsilon target",
    "analyze": "estimate probabilities, similarity, and verdicts",
    "reproduce": "full bundle: 5 sigma runs, 2 S runs, exclusivity",
}

_GLOBAL_FLAGS = {"--help", "--seed", "--out", "--format"}
_RUN_FLAGS = {"--pulses", "--mu", "--noise"}
# command -> the flags `kp40 COMMAND --help` lists
COMMAND_FLAGS = {
    "verify": _GLOBAL_FLAGS | {"--rays"},
    "octads": _GLOBAL_FLAGS,
    "bounds": _GLOBAL_FLAGS | {"--epsilon", "--extrapolated-quantum"},
    "predict": _GLOBAL_FLAGS | {"--state", "--ray"},
    "simulate": _GLOBAL_FLAGS | _RUN_FLAGS | {"--state", "--ray", "--pool", "--checkpoints"},
    "exclusivity": _GLOBAL_FLAGS | _RUN_FLAGS | {"--initial"},
    "calibrate": _GLOBAL_FLAGS | {"--target", "--pulses", "--mu", "--config-out"},
    "analyze": _GLOBAL_FLAGS | {"--epsilon-file", "--epsilon", "--global-F"},
    "reproduce": _GLOBAL_FLAGS | _RUN_FLAGS | {"--workers"},
}


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exit_:
        cli.main([*argv, "--help"])
    assert exit_.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command_with_its_help_line(capsys):
    out = _help([], capsys)
    for name, line in COMMAND_HELP.items():
        assert re.search(rf"^ +{name} +{re.escape(line)}$", out, re.MULTILINE), name


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_command_help_lists_its_flags(capsys, command):
    out = _help([command], capsys)
    assert out.startswith(f"usage: kp40 {command} ")
    assert set(re.findall(r"--[A-Za-z][\w-]*", out)) == COMMAND_FLAGS[command]


# command -> a command line that parses in full and then runs quickly
CHEAP_RUNS = {
    "verify": ["verify"],
    "octads": ["octads"],
    "bounds": ["bounds"],
    "predict": ["predict", "--state", "ghz"],
    "simulate": ["simulate", "--state", "ghz", "--noise", "missing.json"],
    "exclusivity": ["exclusivity", "--noise", "missing.json"],
    "calibrate": ["calibrate", "--mu", "nan"],
    "analyze": ["analyze", "missing.json"],
    "reproduce": ["reproduce", "--noise", "missing.json"],
}


def _readme_commands() -> list[list[str]]:
    """Every `kp40 ...` line in the README's code blocks, split as a shell would, comments off."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    return [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()
            if line.startswith("kp40 ")]


def _clear_parsers() -> None:
    cli._top_parser.cache_clear()
    cli._command_parser.cache_clear()


def _count_parser_builds(monkeypatch) -> list:
    """The prog of every ArgumentParser built from now on, in the order they are built."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("command", list(CHEAP_RUNS))
def test_a_command_builds_at_most_two_parsers(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    _clear_parsers()
    built = _count_parser_builds(monkeypatch)
    code = cli.main(CHEAP_RUNS[command])
    capsys.readouterr()
    assert code in (0, 2)
    assert built == ["kp40", f"kp40 {command}"]


def test_each_parser_is_built_once_per_process_on_its_first_use(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _clear_parsers()
    built = _count_parser_builds(monkeypatch)
    for _ in range(3):
        for argv in CHEAP_RUNS.values():
            assert cli.main(argv) in (0, 2)
            cli.parse_args(argv)
    capsys.readouterr()
    assert built == ["kp40", *(f"kp40 {command}" for command in CHEAP_RUNS)]


def test_a_fresh_process_builds_two_parsers():
    code = ("import argparse, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "from kp40.cli import main\n"
            "at_import = len(built)\n"
            "assert main(['verify']) == 0\n"
            "print(at_import, *built, sep='|', file=sys.stderr)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_src_env())
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines()[-1] == "0|kp40|kp40 verify"    # none at import


def _parsed(parse, argv) -> tuple:
    """(the namespace's repr or the exit code, stdout, stderr) of parse(argv); a repr, as
    `--mu nan` parses to a float unequal to itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(parse(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


# global flag -> values to place before or after the command, one of them refused
_GLOBAL_VALUES = {"--seed": ["0", "2", "-1", "x"], "--out": ["runs/a", "verify"],
                  "--format": ["json", "csv", "xml"]}


@st.composite
def _command_lines(draw) -> list[str]:
    """A README or CHEAP_RUNS command line with global flags before, after or on both sides."""
    line = draw(st.sampled_from([argv[1:] for argv in _readme_commands()]
                                + list(CHEAP_RUNS.values())))
    before, after = [], []
    for flag in draw(st.permutations(list(_GLOBAL_VALUES))):
        for side in draw(st.sampled_from([(), (before,), (after,), (before, after)])):
            side += [flag, draw(st.sampled_from(_GLOBAL_VALUES[flag]))]
    return [*before, *line, *after]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_command_lines(), min_size=1, max_size=6))
def test_no_parse_leaves_anything_for_the_next(lines):
    _clear_parsers()
    for argv in lines:
        got, want = _parsed(cli.parse_args, argv), _parsed(fresh_parse_args, argv)
        assert got == want, argv
        assert isinstance(got[0], str) or got[0] == 2, argv


@pytest.mark.parametrize("argv", [["--help"], *([command, "--help"] for command in cli.COMMANDS),
                                  ["simulate", "--pool", "nope"], ["nope"], []],
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_help_and_usage_errors_print_the_same_bytes_on_every_call(argv):
    _clear_parsers()
    first = _parsed(cli.parse_args, argv)
    assert first[0] in (0, 2)
    for other in CHEAP_RUNS.values():
        cli.parse_args(other)
    assert _parsed(cli.parse_args, argv) == _parsed(cli.parse_args, argv) == first
    assert _parsed(fresh_parse_args, argv) == first


def test_threads_parsing_right_after_a_clear_get_the_oracles_namespaces():
    lines = [*CHEAP_RUNS.values(), ["--seed", "3", "bounds", "--seed", "4"],
             ["--format", "csv", "octads", "--out", "runs"]]
    turns = [lines[k:] + lines[:k] for k in range(0, 4 * 3, 3)]    # each starts elsewhere
    start = threading.Barrier(len(turns))

    def parse_all(argvs):
        start.wait(timeout=30)
        return [repr(cli.parse_args(argv)) for argv in argvs]

    _clear_parsers()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)    # threads switch inside a parser's build
    try:
        with ThreadPoolExecutor(len(turns)) as pool:
            results = list(pool.map(parse_all, turns, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for argvs, got in zip(turns, results):
        assert got == [repr(fresh_parse_args(argv)) for argv in argvs]


def test_bounds_report(capsys):
    code, out, _ = run_cli(["bounds"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["sigma_nchv"] == 4
    assert data["S_nchv"] == 3
    assert data["ks_colorable"] is False
    assert data["witness"] == [1, 10, 20, 32]
    assert data["sigma_corrected"] == 4.0
    assert data["S_corrected"] == 3.0


def test_bounds_with_epsilon_and_extrapolation(capsys):
    code, out, _ = run_cli(
        ["bounds", "--epsilon", "0.014", "--extrapolated-quantum"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["sigma_corrected"] == pytest.approx(4.504)
    assert data["S_corrected"] == pytest.approx(3.182)
    assert data["sigma_quantum_extrapolated"] == pytest.approx(5 * 0.986 + 40 * 0.014)


def test_bounds_without_flag_omits_extrapolation(capsys):
    _, out, _ = run_cli(["bounds"], capsys)
    assert "sigma_quantum_extrapolated" not in json.loads(out)


def test_bounds_rejects_bad_epsilon(capsys):
    code, _, err = run_cli(["bounds", "--epsilon", "1.5"], capsys)
    assert code == 2
    assert "epsilon" in err


def test_bounds_refuses_a_witness_that_assigns_1_to_two_orthogonal_rays(monkeypatch, capsys):
    # rays 1 and 2 share basis group 1, so they are orthogonal
    monkeypatch.setattr(bounds, "SIGMA_WITNESS", (1, 2))
    code, out, err = run_cli(["bounds"], capsys)
    assert code == 2 and out == ""
    assert err == "error: sigma >= 2 witness [1, 2] assigns 1 to orthogonal rays 1 and 2\n"


# ------------------------------------------------------------- predict

def test_predict_csv_default(capsys):
    code, out, _ = run_cli(["predict", "--state", "GHZ"], capsys)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 40
    assert rows[0] == {"index": "1", "basis_group": "1", "num": "1", "den": "1", "decimal": "1.0"}


def test_predict_json_carries_exact_sums(capsys):
    _, out, _ = run_cli(["predict", "--state", "w", "--format", "json"], capsys)
    data = json.loads(out)
    assert data["sigma"] == "5/1"
    assert data["S"] == "7/2"
    assert len(data["profile"]) == 40


def test_predict_accepts_a_raw_ray(capsys):
    code, out, _ = run_cli(["predict", "--ray", "1,0,0,0,0,0,0,0", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["sigma"] == "5/1"


def test_predict_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit):
        cli.main(["predict", "--state", "ghz", "--ray", "1,0,0,0,0,0,0,0"])
    capsys.readouterr()


def test_predict_rejects_malformed_ray(capsys):
    code, _, err = run_cli(["predict", "--ray", "1,2,three"], capsys)
    assert code == 2
    assert "integers" in err


# ------------------------------------------------------------- simulate and analyze

def test_simulate_writes_bundle(tmp_path, capsys):
    code, _, _ = run_cli(
        ["--seed", "3", "--out", str(tmp_path), "simulate", "--state", "ghz",
         "--pulses", "100000"], capsys
    )
    assert code == 0
    record = CountRecord.from_json(json.loads((tmp_path / "record.json").read_text()))
    assert sum(record.pulses_per_projector.values()) == 100_000
    assert record.seed == 3
    trace = list(csv.DictReader((tmp_path / "trace.csv").read_text().splitlines()))
    assert int(trace[-1]["pulses"]) == 100_000
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert sorted(manifest["outputs"]) == manifest["outputs"]


def test_simulate_rounds_its_checkpoints_up_to_chunks_and_its_manifest_keeps_them(tmp_path, capsys):
    code, _, _ = run_cli(["--out", str(tmp_path), "simulate", "--state", "ghz", "--pulses", "40000"],
                         capsys)
    assert code == 0
    trace = list(csv.DictReader((tmp_path / "trace.csv").read_text().splitlines()))
    assert [int(row["pulses"]) for row in trace] == [simulate.CHUNK, 40000] == [32768, 40000]
    marks = json.loads((tmp_path / "manifest.json").read_text())["arguments"]["checkpoints"]
    assert marks == cli._default_checkpoints(40000)
    assert (len(marks), marks[0], marks[-1]) == (10, 400, 40000)
    assert "rounded up to a 32768-pulse chunk" in " ".join(_help(["simulate"], capsys).split())


def test_simulate_is_deterministic_at_the_byte_level(tmp_path, capsys):
    for d in ("a", "b"):
        code, _, _ = run_cli(
            ["--seed", "9", "--out", str(tmp_path / d), "simulate", "--state", "w",
             "--pulses", "80000", "--pool", "mermin16"], capsys
        )
        assert code == 0
    assert (tmp_path / "a" / "record.json").read_bytes() == (tmp_path / "b" / "record.json").read_bytes()
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


def test_analyze_produces_report_and_figures(tmp_path, capsys):
    run_cli(
        ["--seed", "3", "--out", str(tmp_path), "simulate", "--state", "ghz",
         "--pulses", "150000"], capsys
    )
    code, _, _ = run_cli(
        ["--out", str(tmp_path), "analyze", str(tmp_path / "record.json"),
         "--epsilon", "0.014"], capsys
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"]["sigma"]["label"].startswith("violates")
    assert report["similarity"]["F"] > 0.9
    fig3 = list(csv.DictReader((tmp_path / "fig3.csv").read_text().splitlines()))
    assert len(fig3) == 40
    fig4 = list(csv.DictReader((tmp_path / "fig4.csv").read_text().splitlines()))
    assert [r["quantity"] for r in fig4] == ["sigma", "S"]


def test_analyze_reads_epsilon_file(tmp_path, capsys):
    run_cli(
        ["--seed", "4", "--out", str(tmp_path), "simulate", "--state", "ghz",
         "--pulses", "100000"], capsys
    )
    (tmp_path / "eps.json").write_text(json.dumps({"epsilon": 0.012}))
    code, _, _ = run_cli(
        ["--out", str(tmp_path), "analyze", str(tmp_path / "record.json"),
         "--epsilon-file", str(tmp_path / "eps.json")], capsys
    )
    assert code == 0
    assert json.loads((tmp_path / "report.json").read_text())["verdict"]["epsilon"] == 0.012


@pytest.mark.parametrize("state,groups,S", [
    ("ghz", [2, 3, 4, 5], 4.0),
    ("prod", [3, 4, 5], 1.5),    # no Mermin ray of group 2 overlaps prod, so F leaves it out
], ids=["ghz", "prod"])
def test_analyze_a_mermin16_record(tmp_path, capsys, state, groups, S):
    run_cli(
        ["--seed", "5", "--out", str(tmp_path), "simulate", "--state", state,
         "--pool", "mermin16", "--pulses", "100000"], capsys
    )
    code, _, err = run_cli(
        ["--out", str(tmp_path), "analyze", str(tmp_path / "record.json"),
         "--epsilon", "0.014"], capsys
    )
    assert code == 0, err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"]["sigma"] is None
    assert report["verdict"]["S"]["quantum_value"] == S
    assert sorted(int(i) for i in report["estimates"]["probabilities"]) == list(mermin_subset())
    assert [int(b) for b in report["similarity"]["per_basis"]] == groups
    fig4 = list(csv.DictReader((tmp_path / "fig4.csv").read_text().splitlines()))
    assert [r["quantity"] for r in fig4] == ["S"]


# all eight counts of group 2 are 0, though prod reaches it through ray 9
DARK_GROUP_RUN = ["--seed", "0", "simulate", "--state", "prod", "--pulses", "600", "--mu", "0.5"]
# report.json of `analyze --global-F` on that record: the global F keeps group 2's zeros as
# a discrepancy, so leaving a dark group out of the per-basis F changes none of its bytes
DARK_GROUP_GLOBAL_F_DIGEST = "ee19fe414740bb90933fcfd8cec14fd8fb0c338cca72e7117b10b87cfdbd6746"


def test_analyze_leaves_a_group_with_no_detections_out_of_the_per_basis_F(tmp_path, capsys):
    code, _, _ = run_cli(["--out", str(tmp_path), *DARK_GROUP_RUN], capsys)
    assert code == 0
    record = tmp_path / "record.json"
    assert not any(json.loads(record.read_text())["counts"][str(i)] for i in range(9, 17))
    code, _, err = run_cli(["--out", str(tmp_path / "a"), "analyze", str(record)], capsys)
    assert code == 0, err
    per_basis = json.loads((tmp_path / "a" / "report.json").read_text())["similarity"]["per_basis"]
    assert list(per_basis) == ["1", "3", "4"]
    code, _, err = run_cli(["--out", str(tmp_path / "g"), "analyze", "--global-F", str(record)], capsys)
    assert code == 0, err
    report = (tmp_path / "g" / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == DARK_GROUP_GLOBAL_F_DIGEST


def test_global_F_names_the_pooled_table_when_it_sums_to_zero(tmp_path, capsys):
    record = tmp_path / "record.json"
    record.write_text(_mermin16_ghz_record(counts={str(i): 0 for i in mermin_subset()}))
    code, _, err = run_cli(["--out", str(tmp_path), "analyze", "--global-F", str(record)], capsys)
    assert code == 2
    assert err == "error: the pooled table has zero total probability\n"


def test_simulate_survives_a_mask_that_drifts_dark(tmp_path, capsys):
    # at this amplitude jitter a one-slit mask (rays 9-16) drifts to t <= 0 within 2M pulses
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"amplitude_jitter": 0.5, "phase_jitter": 0.2, "background": 0.0,
                                 "efficiency": 0.5}))
    code, _, err = run_cli(["--seed", "0", "--out", str(tmp_path), "simulate", "--state", "ghz",
                            "--pulses", "2000000", "--noise", str(noise)], capsys)
    assert code == 0, err


def test_analyze_missing_record_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(["analyze", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert err


@pytest.mark.parametrize("corrupt,field", [
    (lambda r: r.pop("seed"), "seed"),
    (lambda r: r["counts"].update({"1": -1}), "counts"),
    (lambda r: r["counts"].update({"1": r["pulses_per_projector"]["1"] + 1}), "counts"),
    (lambda r: r["projector_pool"].pop(), "counts"),
    (lambda r: r["pulses_per_projector"].update({"41": r["pulses_per_projector"].pop("40")}),
     "pulses_per_projector"),
], ids=["missing-key", "negative-count", "count-above-pulses", "pool-mismatch", "index-out-of-range"])
def test_analyze_rejects_a_malformed_record(tmp_path, capsys, corrupt, field):
    run_cli(["--seed", "3", "--out", str(tmp_path), "simulate", "--state", "ghz",
             "--pulses", "40000"], capsys)
    record = json.loads((tmp_path / "record.json").read_text())
    corrupt(record)
    (tmp_path / "record.json").write_text(json.dumps(record))
    code, _, err = run_cli(["--out", str(tmp_path), "analyze", str(tmp_path / "record.json")], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"'{field}'" in err


def test_reproduce_summary_agrees_with_analyze_on_its_records(tmp_path, capsys):
    full = tmp_path / "full"
    code, _, _ = run_cli(["--seed", "42", "--out", str(full), "reproduce", "--pulses", "200000"],
                         capsys)
    assert code == 0
    rows = {(r["quantity"].lower(), r["state"]): r
            for r in json.loads((full / "summary.json").read_text())["rows"]}
    records = sorted((full / "records").glob("*.json"))
    assert sorted(f"{kind}_{state}.json" for kind, state in rows) == [p.name for p in records]
    for record in records:
        row = rows[tuple(record.stem.split("_"))]
        out = tmp_path / record.stem
        code, _, err = run_cli(["--out", str(out), "analyze", str(record),
                                "--epsilon-file", str(full / "eps.json")], capsys)
        assert code == 0, err
        report = json.loads((out / "report.json").read_text())
        v = report["verdict"][row["quantity"]]
        assert [row[k] for k in ("estimate", "error", "corrected_bound", "quantum_value")] == \
            [v[k] for k in ("value", "error", "corrected_bound", "quantum_value")], record.name
        assert row["violates"] == v["label"].startswith("violates"), record.name
        F = report["similarity"]["F"] if row["quantity"] == "sigma" else ""    # sigma rows only
        assert row["F"] == F, record.name


_SIMULATE_GHZ = ["simulate", "--state", "ghz", "--pulses", "1000", "--noise", "bad.json"]
_ANALYZE_WITH_EPS = ["analyze", "record.json", "--epsilon-file", "bad.json"]
# a noise config whose squared amplitudes would overflow to infinity
_NOISE_WITH_JITTER = ('{{"amplitude_jitter": {}, "phase_jitter": 0.2, "background": 0.0, '
                      '"efficiency": 0.5}}')
# a well-formed record on rays 1-8 alone: neither all 40 rays nor the 16 Mermin rays
_RECORD_ON_RAYS_1_TO_8 = json.dumps({
    "state": [0, 1, 1, 0, 1, 0, 0, -1], "projector_pool": list(range(1, 9)),
    "counts": {str(i): 10 for i in range(1, 9)},
    "pulses_per_projector": {str(i): 100 for i in range(1, 9)},
    "flux_calibration": {"1": 50}, "flux_pulses": {"1": 100}, "mu": 0.14, "seed": 0,
})
# a well-formed mermin16 record of a state orthogonal to all 16 Mermin rays: F compares no group
_MERMIN16_RECORD_OF_A_DARK_STATE = json.dumps({
    "state": [1, 0, 0, -1, 0, -1, -1, 0], "projector_pool": list(mermin_subset()),
    "counts": {str(i): 0 for i in mermin_subset()},
    "pulses_per_projector": {str(i): 2500 for i in mermin_subset()},
    "flux_calibration": {str(b): 300 for b in range(2, 6)},
    "flux_pulses": {str(b): 2500 for b in range(2, 6)}, "mu": 0.14, "seed": 0,
})


# a well-formed mermin16 record of GHZ that analyze judges, with the given fields replaced
def _mermin16_ghz_record(**fields) -> str:
    return json.dumps({
        "state": [1, 0, 0, 0, 0, 0, 0, 1], "projector_pool": list(mermin_subset()),
        "counts": {str(i): 300 for i in mermin_subset()},
        "pulses_per_projector": {str(i): 2500 for i in mermin_subset()},
        "flux_calibration": {str(b): 300 for b in range(2, 6)},
        "flux_pulses": {str(b): 2500 for b in range(2, 6)}, "mu": 0.14, "seed": 0, **fields,
    })


# the canonical set as a ray file, with entry [row][col] of `field` replaced by `value`
def _ray_file(field: str, row: int, col: int, value) -> str:
    data = canonical_set().to_json()
    data[field][row][col] = value
    return json.dumps(data)


# a valid eps.json of initial ray 1 and its 23 partners, with made-up numbers and no simulation,
# after `edit` has changed it; the probabilities are dyadic, so they add exactly in any order
def _ray_1_eps(edit=lambda doc: None) -> str:
    pairs = [{"initial": 1, "partner": j, "probability": k / 1024, "error": 1 / 512}
             for k, j in enumerate(build_graph(canonical_set()).neighbors(1))]
    doc = {"epsilon": sum(p["probability"] for p in pairs) / len(pairs), "n_pairs": len(pairs),
           "initial_rays": [1], "pairs": pairs}
    edit(doc)
    return json.dumps(doc)


# a calibrate output over three made-up search rows, after `edit` has changed it: the zero-noise
# row is nearer a zero target but rejected, and the config holds row 2, the accepted row nearest
# its target 0.014
def _calibrated(edit=lambda doc: None) -> str:
    def noise(phase_jitter: float) -> dict:
        return {"amplitude_jitter": 0.0, "phase_jitter": phase_jitter, "background": 0.002,
                "efficiency": 0.5}

    search = [{"noise": noise(0.0), "epsilon": 0.001, "F_GHZ": 0.999, "accepted": False},
              {"noise": noise(0.25), "epsilon": 0.0135, "F_GHZ": 0.97, "accepted": True},
              {"noise": noise(0.28), "epsilon": 0.0152, "F_GHZ": 0.96, "accepted": True}]
    doc = {"noise": noise(0.25), "search": search,
           "calibration": {"epsilon_simulated": 0.0135, "epsilon_target": 0.014,
                           "F_GHZ_simulated": 0.97, "pulses": 60000, "seed": 3}}
    edit(doc)
    return json.dumps(doc)


def _edit_calibration(**fields):
    return lambda doc: doc["calibration"].update(fields)


# the four loaders of a file: case prefix, a command that reads bad.json with it, its artifact's name
_FILE_ARTIFACTS = (("noise", _SIMULATE_GHZ, "noise config"), ("eps", _ANALYZE_WITH_EPS, "eps file"),
                   ("record", ["analyze", "bad.json"], "record"),
                   ("ray-file", ["verify", "--rays", "bad.json"], "ray file"))

# a value or key of a megabyte or so: its error line quotes the start of it, not all of it
LARGE_VALUE_ARTIFACTS = {
    "eps-epsilon-a-million-xs": ('{"epsilon": "%s"}' % ("x" * 10**6), _ANALYZE_WITH_EPS,
                                 "eps file field 'epsilon': 'xxxxxxxx"),
    "noise-amplitude-jitter-300000-zeros": (_NOISE_WITH_JITTER.format([0] * 300000), _SIMULATE_GHZ,
                                            "noise config field 'amplitude_jitter': [0, 0, 0"),
    "record-field-name-of-100000-characters": (_mermin16_ghz_record(**{"n" * 10**5: 0}),
                                               ["analyze", "bad.json"],
                                               "record: unexpected field 'nnnnnnnn"),
}

# case -> (content of bad.json, text or bytes, or None to make it a directory; command; what the
# error names)
MALFORMED_ARTIFACTS = {
    "noise-missing-field": ('{"phase_jitter": 0.1, "background": 0.0, "efficiency": 0.5}',
                            _SIMULATE_GHZ, "'amplitude_jitter'"),
    "noise-field-not-an-object": ('{"noise": 3}', _SIMULATE_GHZ, "noise config"),
    "noise-not-an-object": ("[1, 2]", _SIMULATE_GHZ, "noise config"),
    "noise-nan-jitter": ('{"amplitude_jitter": NaN, "phase_jitter": 0.1, "background": 0.0, '
                         '"efficiency": 0.5}', _SIMULATE_GHZ, "amplitude_jitter must be finite"),
    "noise-efficiency-a-bool": ('{"amplitude_jitter": 0.0, "phase_jitter": 0.1, "background": 0.0, '
                                '"efficiency": true}', _SIMULATE_GHZ,
                                "'efficiency': True is not a number"),
    "noise-jitter-a-string": ('{"amplitude_jitter": "0.1", "phase_jitter": 0.1, "background": 0.0, '
                              '"efficiency": 0.5}', _SIMULATE_GHZ,
                              "'amplitude_jitter': '0.1' is not a number"),
    "noise-amplitude-jitter-1e154": (_NOISE_WITH_JITTER.format(1e154), _SIMULATE_GHZ,
                                     "amplitude_jitter must be at most 1e+06, got 1e+154"),
    "noise-amplitude-jitter-1e308": (_NOISE_WITH_JITTER.format(1e308), _SIMULATE_GHZ,
                                     "amplitude_jitter must be at most 1e+06, got 1e+308"),
    "noise-calibrated-search-empty": (_calibrated(lambda d: d.update(search=[])), _SIMULATE_GHZ,
                                      "noise config field 'search': expected a non-empty list"),
    "noise-calibrated-epsilon-search-and-jitter-edited": (
        _calibrated(lambda d: (_edit_calibration(epsilon_simulated=0.5)(d), d.update(search=[]),
                               d["noise"].update(phase_jitter=0.0))),
        _SIMULATE_GHZ, "noise config field 'search'"),
    "noise-calibrated-epsilon-simulated-edited": (
        _calibrated(_edit_calibration(epsilon_simulated=0.5)), _SIMULATE_GHZ,
        "noise config field 'calibration.epsilon_simulated' is 0.5, but the search row chosen "
        "for epsilon_target 0.014 holds 0.0135"),
    "noise-calibrated-F_GHZ-simulated-edited": (
        _calibrated(_edit_calibration(F_GHZ_simulated=0.96)), _SIMULATE_GHZ,
        "noise config field 'calibration.F_GHZ_simulated' is 0.96"),
    "noise-calibrated-noise-of-a-row-not-chosen": (
        _calibrated(lambda d: d["noise"].update(phase_jitter=0.28)), _SIMULATE_GHZ,
        "noise config field 'noise'"),
    "noise-calibrated-target-chooses-another-row": (
        _calibrated(_edit_calibration(epsilon_target=0.016)), _SIMULATE_GHZ,
        "noise config field 'noise'"),
    "noise-calibrated-a-rejected-row-chosen": (
        _calibrated(lambda d: d["search"][1].update(accepted=False)), _SIMULATE_GHZ,
        "noise config field 'noise'"),
    "noise-calibrated-accepted-a-string": (
        _calibrated(lambda d: d["search"][2].update(accepted="yes")), _SIMULATE_GHZ,
        "'search': row 3 field 'accepted': 'yes' is not true or false"),
    "noise-calibrated-row-not-an-object": (
        _calibrated(lambda d: d["search"].insert(1, 3)), _SIMULATE_GHZ,
        "'search': row 2: expected a JSON object"),
    "noise-calibrated-row-noise-missing-a-field": (
        _calibrated(lambda d: d["search"][0]["noise"].pop("background")), _SIMULATE_GHZ,
        "'search': row 1 field 'noise': noise: missing field 'background'"),
    "noise-calibrated-calibration-missing": (
        _calibrated(lambda d: d.pop("calibration")), _SIMULATE_GHZ,
        "noise config field 'calibration': expected a JSON object"),
    "noise-calibrated-target-a-string": (
        _calibrated(_edit_calibration(epsilon_target="0.014")), _SIMULATE_GHZ,
        "'epsilon_target': '0.014' is not a number"),
    "noise-calibrated-pulses-a-string": (
        _calibrated(_edit_calibration(pulses="many")), _SIMULATE_GHZ,
        "noise config field 'calibration' field 'pulses': 'many' is not an integer"),
    "noise-calibrated-seed-not-an-integer": (
        _calibrated(_edit_calibration(seed=1.5)), _SIMULATE_GHZ,
        "noise config field 'calibration' field 'seed': 1.5 is not an integer"),
    "noise-calibrated-an-extra-field": (
        _calibrated(lambda d: d.update(note="by hand")), _SIMULATE_GHZ,
        "noise config: unexpected field 'note'"),
    "noise-calibrated-an-extra-calibration-field": (
        _calibrated(_edit_calibration(mu=0.14)), _SIMULATE_GHZ,
        "noise config field 'calibration': unexpected field 'mu'"),
    "noise-calibrated-row-an-extra-field": (
        _calibrated(lambda d: d["search"][2].update(note="by hand")), _SIMULATE_GHZ,
        "'search': row 3: unexpected field 'note'"),
    "noise-calibration-without-search": (
        _calibrated(lambda d: (d.pop("search"), d.update(calibration="made up", note="by hand"))),
        _SIMULATE_GHZ, "noise config field 'calibration': expected a JSON object"),
    "noise-bare-an-extra-field": (
        '{"amplitude_jitter": 0.0, "phase_jitter": 0.1, "background": 0.0, "efficiency": 0.5, '
        '"phase_jiter": 0.9}', _SIMULATE_GHZ, "noise config: unexpected field 'phase_jiter'"),
    "eps-missing-field": ('{"eps": 0.1}', _ANALYZE_WITH_EPS, "'epsilon'"),
    "eps-not-a-number": ('{"epsilon": "x"}', _ANALYZE_WITH_EPS, "'epsilon'"),
    "eps-a-string": ('{"epsilon": "0.02"}', _ANALYZE_WITH_EPS, "'epsilon': '0.02' is not a number"),
    "eps-epsilon-and-n_pairs-edited": (_ray_1_eps(lambda d: d.update(epsilon=0.02, n_pairs=7)),
                                       _ANALYZE_WITH_EPS, "eps file field 'epsilon' differs"),
    "eps-n_pairs-wrong": (_ray_1_eps(lambda d: d.update(n_pairs=24)), _ANALYZE_WITH_EPS,
                          "eps file field 'n_pairs' differs"),
    "eps-n_pairs-missing": (_ray_1_eps(lambda d: d.pop("n_pairs")), _ANALYZE_WITH_EPS,
                            "missing field 'n_pairs'"),
    "eps-partner-not-orthogonal": (_ray_1_eps(lambda d: d["pairs"][0].update(partner=10)),
                                   _ANALYZE_WITH_EPS, "'pairs': row 1 holds (1, 10)"),
    "eps-partner-41": (_ray_1_eps(lambda d: d["pairs"][22].update(partner=41)), _ANALYZE_WITH_EPS,
                       "'pairs': row 23 holds (1, 41)"),
    "eps-initial-not-an-initial-ray": (_ray_1_eps(lambda d: d["pairs"][5].update(initial=2)),
                                       _ANALYZE_WITH_EPS, "'pairs': row 6 holds (2, "),
    "eps-probability-a-string": (_ray_1_eps(lambda d: d["pairs"][3].update(probability="0.01")),
                                 _ANALYZE_WITH_EPS,
                                 "'pairs': row 4 field 'probability': '0.01' is not a number"),
    "eps-probability-nan": (_ray_1_eps(lambda d: d["pairs"][3].update(probability=math.nan)),
                            _ANALYZE_WITH_EPS,
                            "'pairs': row 4 field 'probability': nan is not a finite nonnegative number"),
    # row 1 holds 0 and row 2 1/1024: moving 1/8 from one to the other leaves the mean exact
    "eps-probability-negative": (
        _ray_1_eps(lambda d: (d["pairs"][0].update(probability=-0.125),
                              d["pairs"][1].update(probability=0.125 + 1 / 1024))),
        _ANALYZE_WITH_EPS, "'pairs': row 1 field 'probability': -0.125 is not a finite nonnegative number"),
    "eps-error-negative": (_ray_1_eps(lambda d: d["pairs"][3].update(error=-1)), _ANALYZE_WITH_EPS,
                           "'pairs': row 4 field 'error': -1 is not a finite nonnegative number"),
    "eps-error-infinite": (_ray_1_eps(lambda d: d["pairs"][3].update(error=math.inf)), _ANALYZE_WITH_EPS,
                           "'pairs': row 4 field 'error': inf is not a finite nonnegative number"),
    "eps-error-nan": (_ray_1_eps(lambda d: d["pairs"][3].update(error=math.nan)), _ANALYZE_WITH_EPS,
                      "'pairs': row 4 field 'error': nan is not a finite nonnegative number"),
    "eps-pairs-one-row-not-in-a-list": (_ray_1_eps(lambda d: d.update(pairs=d["pairs"][0])), _ANALYZE_WITH_EPS,
                                        "eps file field 'pairs': expected a list, got {'initial': 1"),
    "eps-pairs-a-number": (_ray_1_eps(lambda d: d.update(pairs=7)), _ANALYZE_WITH_EPS,
                           "eps file field 'pairs': "),
    "eps-initial_rays-a-number": (_ray_1_eps(lambda d: d.update(initial_rays=1)), _ANALYZE_WITH_EPS,
                                  "eps file field 'initial_rays': expected a list, got 1"),
    "eps-without-pairs": ('{"epsilon": 0.01, "n_pairs": 0, "initial_rays": [], "pairs": []}',
                          _ANALYZE_WITH_EPS, "'pairs': the probabilities of 0 pairs have no finite mean"),
    "eps-n_pairs-without-pairs": ('{"epsilon": 0.02, "n_pairs": 7}', _ANALYZE_WITH_EPS,
                                  "eps file: unexpected field 'n_pairs'"),
    "ray-file-basis_groups-misspelt": (
        json.dumps(canonical_set().to_json()).replace('"basis_groups"', '"basis_group"'),
        ["verify", "--rays", "bad.json"], "ray file: unexpected field 'basis_group'"),
    "ray-file-without-rays": ('{"basis_groups": []}', ["verify", "--rays", "bad.json"], "'rays'"),
    "ray-file-not-json": ("{rays: 1", ["verify", "--rays", "bad.json"], "ray file bad.json is not JSON"),
    "ray-file-entry-not-an-integer": (_ray_file("rays", 8, 0, 1.5), ["verify", "--rays", "bad.json"],
                                      "ray 9: 1.5 is not an integer"),
    "ray-file-entry-a-string": (_ray_file("rays", 8, 0, "1"), ["verify", "--rays", "bad.json"],
                                "ray 9: '1' is not an integer"),
    "ray-file-group-index-not-an-integer": (_ray_file("basis_groups", 0, 0, 1.9),
                                            ["verify", "--rays", "bad.json"],
                                            "'basis_groups': 1.9 is not an integer"),
    "ray-file-group-index-a-string": (_ray_file("basis_groups", 0, 0, "1"),
                                      ["verify", "--rays", "bad.json"],
                                      "'basis_groups': '1' is not an integer"),
    "record-is-a-directory": (None, ["analyze", "bad.json"], "bad.json"),
    "record-not-json": ("{counts: 1", ["analyze", "bad.json"], "record"),
    "record-pool-without-mermin-rays": (_RECORD_ON_RAYS_1_TO_8, ["analyze", "bad.json"],
                                        "'projector_pool': [1, 2, 3, 4, 5, 6, 7, 8]"),
    "record-of-a-state-no-pool-ray-sees": (_MERMIN16_RECORD_OF_A_DARK_STATE, ["analyze", "bad.json"],
                                           "[1, 0, 0, -1, 0, -1, -1, 0]"),
    "record-flux-pulses-not-an-integer": (
        _mermin16_ghz_record(flux_pulses={str(b): 1000.5 for b in range(2, 6)}),
        ["analyze", "bad.json"], "'flux_pulses': 1000.5 is not an integer"),
    "record-seed-not-an-integer": (_mermin16_ghz_record(seed=1.9), ["analyze", "bad.json"],
                                   "'seed': 1.9 is not an integer"),
    "record-seed-a-string": (_mermin16_ghz_record(seed="7"), ["analyze", "bad.json"],
                             "'seed': '7' is not an integer"),
    "record-counts-strings": (_mermin16_ghz_record(counts={str(i): "300" for i in mermin_subset()}),
                              ["analyze", "bad.json"], "'counts': '300' is not a number"),
    "record-mu-a-bool": (_mermin16_ghz_record(mu=True), ["analyze", "bad.json"],
                         "'mu': True is not a number"),
    "record-state-bool-and-string": (_mermin16_ghz_record(state=[True, 0, 0, 0, 0, 0, 0, "1"]),
                                     ["analyze", "bad.json"], "'state': True is not an integer"),
    "record-pulses-infinite": (
        _mermin16_ghz_record(pulses_per_projector={str(i): math.inf for i in mermin_subset()}),
        ["analyze", "bad.json"], "'pulses_per_projector': inf is not a finite nonnegative number"),
    "record-count-beyond-a-float": (_mermin16_ghz_record(counts={str(i): 10**400 for i in mermin_subset()}),
                                    ["analyze", "bad.json"], "'counts': int too large to convert to float"),
    "record-count-above-2**53": (
        _mermin16_ghz_record(counts={str(i): 1e308 for i in mermin_subset()},
                             pulses_per_projector={str(i): 1e308 for i in mermin_subset()}),
        ["analyze", "bad.json"], "'counts': 1e+308 is not a finite nonnegative number up to 2**53"),
    "record-count-one-above-2**53": (
        _mermin16_ghz_record(counts={str(i): 2**53 + 1 for i in mermin_subset()},
                             pulses_per_projector={str(i): 2**54 for i in mermin_subset()}),
        ["analyze", "bad.json"], "'counts': 9007199254740993 is not a finite nonnegative number up to 2**53"),
    "record-flux-pulses-above-2**53": (
        _mermin16_ghz_record(flux_pulses={"2": 1e308, "3": 2500, "4": 2500, "5": 2500}),
        ["analyze", "bad.json"], "'flux_pulses': 1e+308 is not a finite nonnegative number up to 2**53"),
    "record-flux-too-small-to-square": (
        _mermin16_ghz_record(flux_calibration={"2": 1e-300, "3": 300, "4": 300, "5": 300}),
        ["analyze", "bad.json"], "projector 10: 2500 pulses and calibration flux 1e-300 give no estimate"),
    "record-state-not-an-integer": (_mermin16_ghz_record(state=[1, 0, 0, 0, 0, 0, 0, 1.5]),
                                    ["analyze", "bad.json"], "'state': 1.5 is not an integer"),
    "record-state-a-name": (_mermin16_ghz_record(state="ghz"), ["analyze", "bad.json"],
                            "record field 'state': expected a list, got 'ghz'"),
    "record-pool-a-number": (_mermin16_ghz_record(projector_pool=5), ["analyze", "bad.json"],
                             "record field 'projector_pool': expected a list, got 5"),
    "record-flux-above-its-pulses": (
        _mermin16_ghz_record(flux_pulses={str(b): 100 for b in range(2, 6)}),
        ["analyze", "bad.json"], "'flux_calibration': basis group 2 has 300 counts but 100 pulses"),
    "record-flux-group-0": (
        _mermin16_ghz_record(flux_calibration={str(b): 300 for b in (0, 2, 3, 4, 5)},
                             flux_pulses={str(b): 2500 for b in (0, 2, 3, 4, 5)}),
        ["analyze", "bad.json"], "'flux_calibration': basis group 0 outside 1..5"),
    "record-flux-group-99": (
        _mermin16_ghz_record(flux_calibration={str(b): 300 for b in (2, 3, 4, 5, 99)},
                             flux_pulses={str(b): 2500 for b in (2, 3, 4, 5, 99)}),
        ["analyze", "bad.json"], "'flux_calibration': basis group 99 outside 1..5"),
    "record-with-no-detections-where-its-state-reaches": (
        _mermin16_ghz_record(counts={str(i): 0 for i in mermin_subset()}), ["analyze", "bad.json"],
        "record has no detections in any pool group its state reaches; the per-basis F is undefined"),
    "record-counts-key-with-a-leading-zero": (
        _mermin16_ghz_record(counts={**{str(i): 300 for i in mermin_subset()}, "010": 0}),
        ["analyze", "bad.json"], "'counts': key '010' is not an index in decimal form"),
    "record-counts-key-None": (
        _mermin16_ghz_record(counts={**{str(i): 300 for i in mermin_subset()}, "None": 0}),
        ["analyze", "bad.json"], "'counts': key 'None' is not an index in decimal form"),
    "record-flux-key-with-an-underscore": (
        _mermin16_ghz_record(flux_pulses={"2": 2500, "3": 2500, "4": 2500, "5_": 2500}),
        ["analyze", "bad.json"], "'flux_pulses': key '5_' is not an index in decimal form"),
    "record-pulses-key-with-an-underscore": (
        _mermin16_ghz_record(pulses_per_projector={**{str(i): 2500 for i in mermin_subset()},
                                                   "1_0": 2500}),
        ["analyze", "bad.json"], "'pulses_per_projector': key '1_0' is not an index in decimal form"),
    "record-counts-a-list": (_mermin16_ghz_record(counts=[1, 2]), ["analyze", "bad.json"],
                             "error: record field 'counts': expected a JSON object\n"),
    "record-an-extra-field": (_mermin16_ghz_record(note="lab run 3"), ["analyze", "bad.json"],
                              "record: unexpected field 'note'"),
    "record-mu-nan": (_mermin16_ghz_record(mu=math.nan), ["analyze", "bad.json"],
                      "'mu': nan is not a finite positive number"),
    "record-mu-infinite": (_mermin16_ghz_record(mu=math.inf), ["analyze", "bad.json"],
                           "'mu': inf is not a finite positive number"),
    "record-mu-negative": (_mermin16_ghz_record(mu=-0.5), ["analyze", "bad.json"],
                           "'mu': -0.5 is not a finite positive number"),
    # nesting past the parser's depth, or a byte that is not UTF-8, is named as the file is
    **{f"{name}-nested-100000-deep": ("[" * 100000 + "]" * 100000, argv,
                                      f"{what} bad.json is not JSON: maximum recursion depth exceeded")
       for name, argv, what in _FILE_ARTIFACTS},
    **{f"{name}-leading-0xff": (b"\xff{}", argv, f"{what} bad.json is not JSON: 'utf-8' codec can't "
                                "decode byte 0xff in position 0")
       for name, argv, what in _FILE_ARTIFACTS},
    # an integer past Python's 4300-digit limit on reading one from text
    **{f"{name}-seed-of-5000-digits": ('{"seed": %s}' % ("9" * 5000), argv,
                                       f"{what} bad.json is not JSON: Exceeds the limit (4300 digits)")
       for name, argv, what in _FILE_ARTIFACTS},
    "eps-partner-of-4000-digits": (_ray_1_eps(lambda d: d["pairs"][0].update(partner=int("9" * 4000))),
                                   _ANALYZE_WITH_EPS, "'pairs': row 1 holds (1, 99999"),
    **LARGE_VALUE_ARTIFACTS,
    "ray-flag-too-short": ("{}", ["predict", "--ray", "1,2,3"],
                           "--ray '1,2,3': expected 8 entries, got 3"),
    "ray-flag-all-zero": ("{}", ["predict", "--ray", "0 0 0 0 0 0 0 0"],
                          "--ray '0 0 0 0 0 0 0 0': zero ray"),
}


@pytest.mark.parametrize("case", list(MALFORMED_ARTIFACTS))
def test_malformed_artifact_is_a_one_line_usage_error(tmp_path, monkeypatch, capsys, case):
    content, argv, named = MALFORMED_ARTIFACTS[case]
    monkeypatch.chdir(tmp_path)
    if "record.json" in argv:
        run_cli(["--out", ".", "simulate", "--state", "ghz", "--pulses", "40000"], capsys)
    if content is None:
        Path("bad.json").mkdir()
    elif isinstance(content, bytes):
        Path("bad.json").write_bytes(content)
    else:
        Path("bad.json").write_text(content)
    code, _, err = run_cli(["--out", "out", *argv], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and len(err.encode()) < 500, err[:600]
    assert named in err


@pytest.mark.parametrize("case", list(LARGE_VALUE_ARTIFACTS))
def test_an_error_line_quotes_the_start_of_a_large_value(tmp_path, monkeypatch, capsys, case):
    content, argv, named = LARGE_VALUE_ARTIFACTS[case]
    monkeypatch.chdir(tmp_path)
    Path("record.json").write_text(_mermin16_ghz_record())
    Path("bad.json").write_text(content)
    code, _, err = run_cli(["--out", "out", *argv], capsys)
    assert code == 2
    assert err.count("\n") == 1 and named in err and len(err.encode()) < 500, err[:600]
    assert err.rstrip("\n").endswith(("...", "... is not a number"))


def test_analyze_refuses_a_literal_epsilon_and_a_file_together(tmp_path, capsys):
    # the pair is refused before the record or the file is opened; neither exists
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--out", str(tmp_path), "analyze", str(tmp_path / "record.json"),
                  "--epsilon", "0.1", "--epsilon-file", str(tmp_path / "eps.json")])
    assert exit_.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert "--epsilon-file" in last and last.endswith("--epsilon")
    assert not any(tmp_path.iterdir())


# case -> (command line, what the one error line names)
BAD_FLAG_VALUES = {
    "mu-nan": (["simulate", "--state", "ghz", "--pulses", "1000", "--mu", "nan"],
               "mu must be finite and positive, got nan"),
    "mu-inf": (["exclusivity", "--pulses", "1000", "--mu", "inf"],
               "mu must be finite and positive, got inf"),
    "initial-not-an-integer": (["exclusivity", "--pulses", "1000", "--initial", "1,x"],
                               "--initial takes comma-separated integers, got '1,x'"),
    "checkpoints-not-an-integer": (
        ["simulate", "--state", "ghz", "--pulses", "1000", "--checkpoints", "5,y"],
        "--checkpoints takes comma-separated integers, got '5,y'"),
    "workers-zero": (["reproduce", "--pulses", "1000", "--workers", "0"],
                     "--workers must be at least 1, got 0"),
    "workers-negative": (["reproduce", "--pulses", "1000", "--workers", "-2"],
                         "--workers must be at least 1, got -2"),
    "exclusivity-too-short-to-calibrate": (
        ["exclusivity", "--pulses", "1000", "--initial", "1,2", "--mu", "0.1"],
        "--pulses 1000 is too short for a flux calibration"),
    "calibrate-too-short-to-calibrate": (["calibrate", "--pulses", "1000"],
                                         "--pulses 1000 is too short for a flux calibration"),
    "reproduce-on-threads-too-short-to-calibrate": (
        ["reproduce", "--pulses", "1000", "--workers", "2"],
        "--pulses 1000 is too short for a flux calibration"),
    "simulate-too-short-to-calibrate": (
        ["simulate", "--state", "ghz", "--pulses", "100", "--checkpoints", "50"],
        "--pulses 100 is too short for a flux calibration"),
    "simulate-mu-too-small-to-calibrate": (
        ["simulate", "--state", "ghz", "--pulses", "40000", "--mu", "1e-300"], "at --mu 1e-300"),
    "predict-empty-ray": (["predict", "--ray", ""],
                          "--ray takes comma-separated integers, got ''"),
    "simulate-empty-ray": (["simulate", "--ray", "", "--pulses", "1000"],
                           "--ray takes comma-separated integers, got ''"),
    "initial-empty": (["exclusivity", "--pulses", "1000", "--initial", ""],
                      "--initial takes comma-separated integers, got ''"),
    "checkpoints-empty": (["simulate", "--state", "ghz", "--pulses", "1000", "--checkpoints", ""],
                          "--checkpoints takes comma-separated integers, got ''"),
    "checkpoints-only-separators": (
        ["simulate", "--state", "ghz", "--pulses", "1000", "--checkpoints", " , "],
        "--checkpoints takes comma-separated integers, got ' , '"),
    "checkpoints-beyond-pulses": (
        ["simulate", "--state", "ghz", "--pulses", "40000", "--checkpoints", "50000"],
        "--checkpoints mark 50000 is beyond --pulses 40000"),
    "calibrate-target-nan": (["calibrate", "--pulses", "1000", "--target", "nan"], "--target"),
    "calibrate-target-inf": (["calibrate", "--pulses", "1000", "--target", "inf"], "--target"),
    "calibrate-target-negative": (["calibrate", "--pulses", "1000", "--target", "-3"],
                                  "--target"),
    # past 2**53 a record's counts stop being exact; the whole run's chunk sizes once filled TiBs
    "pulses-above-2**53": (["simulate", "--state", "ghz", "--pulses", str(2**53 + 1)],
                           f"n_pulses must be in 1..2**53, got {2**53 + 1}"),
}


def test_simulate_too_short_for_its_flux_prints_the_error_of_a_record_of_its_counts(tmp_path, capsys):
    run = simulate.PulseRun(seed=0, n_pulses=100)
    with pytest.raises(ValueError) as want:
        trace_by_records("ghz", simulate.load_noise_config(None), run, cli._default_checkpoints(100))
    code, _, err = run_cli(["--out", str(tmp_path), "simulate", "--state", "ghz", "--pulses", "100"], capsys)
    assert code == 2
    assert err == f"error: --pulses 100 is too short for a flux calibration at --mu 0.14: {want.value}\n"


@pytest.mark.parametrize("case", list(BAD_FLAG_VALUES))
def test_bad_flag_value_is_a_one_line_usage_error(tmp_path, capsys, case):
    argv, named = BAD_FLAG_VALUES[case]
    code, _, err = run_cli(["--out", str(tmp_path), *argv], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert named in err
    assert not any(tmp_path.iterdir())


# ------------------------------------------------------------- exclusivity and calibrate

def test_exclusivity_bundle(tmp_path, capsys):
    code, _, _ = run_cli(
        ["--seed", "6", "--out", str(tmp_path), "exclusivity", "--pulses", "30000"], capsys
    )
    assert code == 0
    eps = json.loads((tmp_path / "eps.json").read_text())
    assert eps["n_pairs"] == 184
    assert len(eps["pairs"]) == 184
    assert 0.0 <= eps["epsilon"] < 0.05


def test_exclusivity_writes_the_campaign_document(tmp_path, capsys):
    from kp40.simulate import PulseRun, run_exclusivity_campaign

    code, _, _ = run_cli(["--seed", "6", "--out", str(tmp_path), "exclusivity", "--pulses", "30000",
                          "--initial", "1,9,17"], capsys)
    assert code == 0
    run = PulseRun(seed=6, n_pulses=30_000)
    doc = run_exclusivity_campaign(run, simulate.load_noise_config(None), (1, 9, 17))
    assert json.loads((tmp_path / "eps.json").read_text()) == doc


def test_exclusivity_rejects_a_repeated_initial_ray(tmp_path, capsys):
    code, _, err = run_cli(
        ["--out", str(tmp_path), "exclusivity", "--pulses", "30000", "--initial", "1,9,1"], capsys
    )
    assert code == 2
    assert err.splitlines() == ["error: initial ray 1 is repeated"]
    assert not (tmp_path / "eps.json").exists()


def test_calibrate_closed_loop(tmp_path, capsys):
    import math

    from kp40.simulate import NoiseModel, PulseRun, run_exclusivity_campaign

    cfg = tmp_path / "noise.json"
    code, out, _ = run_cli(
        ["--seed", "1", "--out", str(tmp_path), "calibrate", "--pulses", "60000",
         "--config-out", str(cfg)], capsys
    )
    assert code == 0
    data = json.loads(cfg.read_text())
    assert set(data) == {"noise", "calibration", "search"}
    assert 0.010 <= data["calibration"]["epsilon_simulated"] <= 0.018
    assert 0.90 <= data["calibration"]["F_GHZ_simulated"] <= 0.99
    assert (tmp_path / "manifest.json").exists()
    # the zero-noise grid point can never pass the epsilon window
    zero = [p for p in data["search"]
            if p["noise"]["phase_jitter"] == 0.0 and p["noise"]["background"] == 0.0
            and p["noise"]["amplitude_jitter"] == 0.0]
    assert zero and all(not p["accepted"] for p in zero)
    assert any(p["accepted"] for p in data["search"])

    # closed loop: a fresh campaign with the written config lands on the recorded
    # epsilon within twice the combined counting error
    noise = NoiseModel.from_json(data["noise"])
    rerun = PulseRun(seed=2, n_pulses=data["calibration"]["pulses"])
    doc = run_exclusivity_campaign(noise=noise, run=rerun)
    eps, pairs = doc["epsilon"], doc["pairs"]
    sd = math.sqrt(sum(p["error"] ** 2 for p in pairs)) / len(pairs)
    assert abs(eps - data["calibration"]["epsilon_simulated"]) <= 2 * math.sqrt(2) * sd


def test_calibrate_creates_a_new_out_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["--out", "newdir/sub", "calibrate", "--pulses", "60000",
                            "--config-out", "cfg.json"], capsys)
    assert code == 0, err
    assert (tmp_path / "cfg.json").exists()
    manifest = json.loads((tmp_path / "newdir" / "sub" / "manifest.json").read_text())
    assert manifest["command"] == "calibrate" and manifest["outputs"] == ["../../cfg.json"]


def test_calibrate_writes_nothing_when_no_grid_point_is_accepted(tmp_path, monkeypatch, capsys):
    # the grid's zero-noise point alone, whose epsilon is far below the target window
    monkeypatch.setattr(simulate, "CALIBRATION_GRID", {
        "phase_jitter": (0.0,), "amplitude_jitter": (0.0,), "background": (0.0,),
        "efficiency": (0.5,),
    })
    code, _, err = run_cli(["--out", str(tmp_path / "out"), "calibrate", "--pulses", "60000",
                            "--config-out", str(tmp_path / "cfg.json")], capsys)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: no grid point meets the target window")
    assert not any(tmp_path.iterdir())    # neither the config nor a manifest


@pytest.mark.parametrize("config_out", ["manifest.json", "link.json"])
def test_calibrate_refuses_a_config_out_that_is_its_own_manifest(tmp_path, monkeypatch, capsys,
                                                                 config_out):
    # one grid point, the one a 60000-pulse search accepts
    monkeypatch.setattr(simulate, "CALIBRATION_GRID", {
        "phase_jitter": (0.28,), "amplitude_jitter": (0.0,), "background": (0.002,),
        "efficiency": (0.5,),
    })
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.json").symlink_to("manifest.json")    # dangling until a manifest exists
    code, _, err = run_cli(["calibrate", "--pulses", "60000", "--config-out", config_out], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: output ") and config_out in err
    assert [p.name for p in tmp_path.iterdir()] == ["link.json"]    # nothing written


# one grid point, the one a 60000-pulse search accepts
_ONE_ACCEPTED_GRID_POINT = {"phase_jitter": (0.28,), "amplitude_jitter": (0.0,),
                            "background": (0.002,), "efficiency": (0.5,)}


def test_calibrate_writes_through_a_symlinked_config_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(simulate, "CALIBRATION_GRID", _ONE_ACCEPTED_GRID_POINT)
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "elsewhere" / "noise.json"
    target.parent.mkdir()
    target.write_text("{}" * 10_000)    # longer than the config, so a kept tail would show
    Path("out").mkdir()
    Path("out/noise.json").symlink_to(target)
    code, _, err = run_cli(["--out", "out", "calibrate", "--pulses", "60000",
                            "--config-out", "out/noise.json"], capsys)
    assert code == 0, err
    assert Path("out/noise.json").is_symlink() and Path("out/noise.json").resolve() == target
    config = json.loads(target.read_text())
    assert set(config) == {"noise", "calibration", "search"}
    assert json.loads(Path("out/manifest.json").read_text())["outputs"] == ["noise.json"]
    # the written config, search and all, loads as the noise it chose
    assert simulate.load_noise_config("out/noise.json") == simulate.NoiseModel(**config["noise"])


def test_calibrate_into_a_config_out_that_is_a_directory_is_a_usage_error(tmp_path, monkeypatch,
                                                                         capsys):
    monkeypatch.setattr(simulate, "CALIBRATION_GRID", _ONE_ACCEPTED_GRID_POINT)
    monkeypatch.chdir(tmp_path)
    Path("cfg").mkdir()
    code, _, err = run_cli(["--out", "out", "calibrate", "--pulses", "60000",
                            "--config-out", "cfg"], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "Is a directory" in err and str(tmp_path / "cfg") in err
    assert not Path("out/manifest.json").exists()


def test_a_failed_write_leaves_no_manifest_of_the_previous_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["--out", "o", "simulate", "--state", "ghz", "--pulses", "100000"], capsys)[0] == 0
    Path("o/trace.csv").unlink()
    Path("o/trace.csv").mkdir()
    code, _, err = run_cli(["--out", "o", "simulate", "--state", "ghz", "--pulses", "40000"], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "o/trace.csv" in err
    assert not Path("o/manifest.json").exists()


def test_a_hard_linked_output_keeps_its_inode_and_both_names_read_the_new_bytes(tmp_path, monkeypatch,
                                                                               capsys):
    monkeypatch.chdir(tmp_path)

    def simulate(out: str, pulses: str) -> list[str]:
        return ["--seed", "3", "--out", out, "simulate", "--state", "ghz", "--pulses", pulses]

    assert run_cli(simulate("o", "100000"), capsys)[0] == 0
    os.link("o/trace.csv", "other.csv")
    inode, old = os.stat("o/trace.csv").st_ino, Path("other.csv").read_bytes()
    assert run_cli(simulate("o", "40000"), capsys)[0] == 0
    assert run_cli(simulate("fresh", "40000"), capsys)[0] == 0
    new = Path("fresh/trace.csv").read_bytes()
    assert new != old
    assert (os.stat("o/trace.csv").st_ino, os.stat("o/trace.csv").st_nlink) == (inode, 2)
    assert Path("o/trace.csv").read_bytes() == Path("other.csv").read_bytes() == new


_ONE_FILE = "error: outputs o/record.json and o/trace.csv are one file; name another file"


@pytest.mark.parametrize("first,second,how,line", [
    ("o/manifest.json", "o/record.json", "hard",
     "error: output o/record.json would be overwritten by the bundle's manifest.json; "
     "name another file"),
    ("o/record.json", "o/trace.csv", "symlink", _ONE_FILE),
    ("o/record.json", "o/trace.csv", "hard", _ONE_FILE),
], ids=["output-hard-linked-to-the-manifest", "output-symlinked-to-another-output",
        "two-outputs-hard-linked"])
def test_two_bundle_paths_that_are_one_file_are_refused_before_anything_is_written(
        tmp_path, monkeypatch, capsys, first, second, how, line):
    monkeypatch.chdir(tmp_path)
    argv = ["--out", "o", "simulate", "--state", "ghz", "--pulses", "40000"]
    assert run_cli(argv, capsys)[0] == 0
    Path(second).unlink()    # then make it name the file `first` names, both in o/
    if how == "hard":
        os.link(first, second)
    else:
        Path(second).symlink_to(Path(first).name)
    before = {p: (p.is_symlink(), p.read_bytes()) for p in sorted(Path("o").iterdir())}
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err.splitlines()) == (2, "", [line])
    assert {p: (p.is_symlink(), p.read_bytes()) for p in sorted(Path("o").iterdir())} == before


def test_a_dangling_link_onto_another_output_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("o").mkdir()
    Path("o/trace.csv").symlink_to("record.json")    # dangling until the record exists
    code, _, err = run_cli(["--out", "o", "simulate", "--state", "ghz", "--pulses", "40000"], capsys)
    assert code == 2
    assert err.splitlines() == [_ONE_FILE]
    assert [p.name for p in Path("o").iterdir()] == ["trace.csv"]


def test_a_directory_that_cannot_be_created_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--out", "o", "reproduce", "--pulses", "200000"]
    assert run_cli(argv, capsys)[0] == 0
    shutil.rmtree("o/records")
    Path("o/records").write_text("")
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.splitlines() == ["error: [Errno 17] File exists: 'o/records'"]
    assert not Path("o/manifest.json").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to fail every write")
def test_a_write_that_finds_no_space_names_its_output(tmp_path, monkeypatch, capsys):
    # /dev/full opens, and every write to it fails with ENOSPC, an error that names no file
    monkeypatch.chdir(tmp_path)
    Path("o").mkdir()
    Path("o/trace.csv").symlink_to("/dev/full")
    code, _, err = run_cli(["--out", "o", "simulate", "--state", "ghz", "--pulses", "40000"], capsys)
    assert code == 2
    assert err.splitlines() == ["error: [Errno 28] No space left on device: 'o/trace.csv'"]
    assert not Path("o/manifest.json").exists()


# command -> its argv after --out; analyze reads the record a short simulate wrote first
MANIFEST_CASES = {
    "simulate": ["simulate", "--state", "w", "--pulses", "40000"],
    "exclusivity": ["exclusivity", "--pulses", "30000", "--initial", "1,9"],
    "analyze": ["analyze", "sim/record.json", "--epsilon", "0.01"],
    "reproduce": ["reproduce", "--pulses", "40000"],
    "calibrate": ["calibrate", "--pulses", "60000", "--config-out", "cfg/noise.json"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
def test_a_manifest_lists_exactly_what_its_command_wrote(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--out", "sim", "simulate", "--state", "ghz", "--pulses", "40000"]) == 0

    def files() -> set[Path]:
        return {p.resolve() for p in tmp_path.rglob("*") if p.is_file()}

    before = files()
    code, _, err = run_cli(["--out", "bundle/sub", *MANIFEST_CASES[command]], capsys)
    assert code == 0, err
    manifest = (tmp_path / "bundle" / "sub" / "manifest.json").resolve()
    listed = json.loads(manifest.read_text())["outputs"]
    # each listed name resolves from the manifest's own directory
    assert {(manifest.parent / name).resolve() for name in listed} == files() - before - {manifest}


def test_reproduce_says_when_pulses_are_too_few_to_calibrate(tmp_path, capsys):
    code, _, err = run_cli(["--out", str(tmp_path), "reproduce", "--pulses", "10"], capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert "--pulses 10 is too short for a flux calibration" in err
    assert not (tmp_path / "summary.json").exists()


def test_reproduce_runs_every_leg_in_this_process(tmp_path, monkeypatch, capsys):
    from kp40 import simulate

    pids = []
    real = simulate.run_ks_experiment
    monkeypatch.setattr(simulate, "run_ks_experiment",
                        lambda *a: pids.append(os.getpid()) or real(*a))
    code, _, err = run_cli(["--out", str(tmp_path), "reproduce", "--pulses", "40000",
                            "--workers", "2"], capsys)
    assert code == 0, err
    # 7 records, and one leg per initial ray of the exclusivity campaign
    assert pids == [os.getpid()] * (7 + len(simulate.DEFAULT_INITIAL_RAYS))


def test_reproduce_starts_no_more_workers_than_legs(tmp_path, monkeypatch, capsys):
    import concurrent.futures

    sizes = []

    class SerialExecutor:
        """Records its size and runs `map` in the caller's thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    # both pool kinds: a real pool must never start for this command line
    for name in ("ThreadPoolExecutor", "ProcessPoolExecutor"):
        monkeypatch.setattr(concurrent.futures, name, SerialExecutor)
    code, _, err = run_cli(["--out", str(tmp_path), "reproduce", "--pulses", "40000",
                            "--workers", "64"], capsys)
    assert code == 0, err
    assert sizes == [len(simulate.REPRODUCE_LEGS)]


def test_reproduce_without_config_names_calibrate(tmp_path, capsys):
    code, _, err = run_cli(
        ["--out", str(tmp_path), "reproduce", "--pulses", "1000",
         "--noise", str(tmp_path / "missing.json")], capsys
    )
    assert code == 2
    assert "calibrate" in err


def test_cli_only_re_exports_the_noise_config_loader_of_simulate():
    assert "load_noise_config" not in vars(cli)
    assert cli.load_noise_config is simulate.load_noise_config
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_cli_default_mu_is_the_simulator_default():
    from kp40.simulate import DEFAULT_MU

    assert cli.DEFAULT_MU == DEFAULT_MU


# ------------------------------------------------------------- package and imports

@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    assert argv[0] == "kp40"
    args = cli.parse_args(argv[1:])    # parses only; runs nothing
    assert args.command == argv[1]


def test_readme_commands_run_as_written_in_order(tmp_path, monkeypatch, capsys):
    # analyze reads the bundles that simulate and exclusivity wrote before it, and
    # verify --rays reads myset.json, which holds the built-in set
    monkeypatch.chdir(tmp_path)
    Path("myset.json").write_text(json.dumps(canonical_set().to_json()))
    commands = _readme_commands()
    assert {argv[1] for argv in commands} == set(cli.COMMANDS)
    for argv in commands:
        assert run_cli(argv[1:], capsys)[0] == 0, argv


def test_star_import_yields_every_public_name():
    namespace: dict = {}
    exec("from kp40 import *", namespace)
    assert set(kp40.__all__) <= set(namespace)
    assert namespace["canonical_set"] is kp40.ksset.canonical_set
    assert namespace["simulate"] is kp40.simulate


def _src_env() -> dict:
    """The environment with this tree's kp40 first on PYTHONPATH."""
    src = str(Path(kp40.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# case -> code run in a fresh interpreter
EXACT_RUNS = {
    **{argv[0]: f"from kp40.cli import main; assert main({argv!r}) == 0"
       for argv in (["bounds"], ["verify"], ["octads"], ["predict", "--state", "ghz"])},
    "canonical_set": "import kp40; kp40.canonical_set()",
    # a command that reads a record and draws nothing
    "analyze": "import pathlib, tempfile\nfrom kp40.cli import main\n"
               "with tempfile.TemporaryDirectory() as d:\n"
               f"    pathlib.Path(d, 'record.json').write_text({_mermin16_ghz_record()!r})\n"
               "    assert main(['--out', d, 'analyze', str(pathlib.Path(d, 'record.json'))]) == 0",
    # the same, judged against an eps.json with pairs, which builds the orthogonality graph
    "analyze-epsilon-file": "import pathlib, tempfile\nfrom kp40.cli import main\n"
                            "with tempfile.TemporaryDirectory() as d:\n"
                            f"    pathlib.Path(d, 'record.json').write_text({_mermin16_ghz_record()!r})\n"
                            f"    pathlib.Path(d, 'eps.json').write_text({_ray_1_eps()!r})\n"
                            "    assert main(['--out', d, 'analyze', str(pathlib.Path(d, 'record.json')),\n"
                            "                 '--epsilon-file', str(pathlib.Path(d, 'eps.json'))]) == 0",
    "CountRecord": "import kp40; kp40.CountRecord; kp40.judge",
    # the package's __main__ module, as `python -m kp40 verify` runs it
    "python-m-kp40-verify": "import runpy\nsys.argv = ['kp40', 'verify']\n"
                            "try:\n    runpy.run_module('kp40', run_name='__main__')\n"
                            "except SystemExit as e:\n    assert e.code == 0, e.code",
}


# modules a fresh run is checked for: NumPy and its random package, the stdlib
# modules that declaring the value types with `dataclasses` used to load, the
# exact rationals (`fractions` pulls in `decimal`), `csv`, and the two exact
# layers that not every exact command needs
WATCHED_MODULES = ("numpy", "numpy.random", "dataclasses", "inspect", "fractions", "decimal",
                   "csv", "kp40.bounds", "kp40.states")


@functools.lru_cache(maxsize=None)
def _modules_loaded_by(code: str) -> frozenset:
    """The WATCHED_MODULES in sys.modules after running `code` in a fresh interpreter."""
    probe = (f"import sys\n{code}\n"
             f"print(*[m for m in {WATCHED_MODULES!r} if m in sys.modules], file=sys.stderr)")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=_src_env())
    assert res.returncode == 0, res.stderr
    return frozenset(res.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("case", list(EXACT_RUNS))
def test_exact_path_never_imports_numpy(case):
    assert "numpy" not in _modules_loaded_by(EXACT_RUNS[case]), "numpy was imported"


@pytest.mark.parametrize("case", list(EXACT_RUNS))
def test_exact_path_loads_neither_dataclasses_nor_inspect(case):
    assert not _modules_loaded_by(EXACT_RUNS[case]) & {"dataclasses", "inspect"}


# the EXACT_RUNS that print JSON and build no rational
JSON_EXACT_RUNS = ("verify", "bounds", "octads", "canonical_set", "python-m-kp40-verify")


@pytest.mark.parametrize("case", JSON_EXACT_RUNS)
def test_a_json_exact_path_loads_no_rationals_csv_or_states(case):
    loaded = _modules_loaded_by(EXACT_RUNS[case])
    assert not loaded & {"fractions", "decimal", "csv", "kp40.states"}
    if case != "bounds":    # only bounds checks the noncontextual bounds' certificates
        assert "kp40.bounds" not in loaded


def test_predict_loads_rationals_and_csv():
    # the control for the test above: a watched module that is loaded is seen
    assert {"fractions", "csv"} <= _modules_loaded_by(EXACT_RUNS["predict"])


def test_importing_the_simulator_loads_no_numpy_random():
    # numpy.random is about 6 MB and 12 ms; only a run that draws needs it
    assert "numpy.random" not in _modules_loaded_by("import kp40.cli, kp40.simulate")


def test_a_short_simulate_loads_no_dataclasses(tmp_path):
    code = (f"from kp40.cli import main\nassert main(['--out', {str(tmp_path)!r}, 'simulate', "
            "'--state', 'ghz', '--pulses', '40000']) == 0")
    assert "dataclasses" not in _modules_loaded_by(code)


def test_no_module_imports_a_private_name_of_another():
    # an underscore name stays inside the kp40 module that defines it; dunders are public
    private = []
    for path in sorted(Path(kp40.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "kp40"):
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_") and not re.fullmatch(r"__\w+__", a.name)]
    assert not private


def test_no_module_reads_a_private_name_of_another():
    # `ksset._derived` read from states is the same breach as `from .ksset import _derived`
    package = Path(kp40.__file__).parent
    modules = {p.stem for p in package.glob("*.py")}

    def dotted(node) -> str:
        if isinstance(node, ast.Attribute):
            return f"{dotted(node.value)}.{node.attr}"
        return node.id if isinstance(node, ast.Name) else ""

    private = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        others = {f"kp40.{m}" for m in modules}    # and below, the names the file binds to them
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level and not node.module
                                                     or node.module == "kp40"):
                others |= {a.asname or a.name for a in node.names if a.name in modules}
            elif isinstance(node, ast.Import):
                others |= {a.asname for a in node.names if a.asname and a.name.startswith("kp40.")}
        private += [f"{path.name}: {dotted(node)}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and dotted(node.value) in others
                    and node.attr.startswith("_") and not re.fullmatch(r"__\w+__", node.attr)]
    assert not private


def test_no_module_caches_a_value_derived_from_the_canonical_set_but_ksset_kept():
    # an lru_cache outlives `canonical_set.cache_clear()`; ksset.kept goes with the set
    readers = {"canonical_set", "canonical_graph", "canonical_octads"}
    cached = []
    for path in sorted(Path(kp40.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name == "canonical_set":
                continue
            decorators = {ast.unparse(d.func if isinstance(d, ast.Call) else d)
                          for d in node.decorator_list}
            if decorators & {"lru_cache", "cache", "functools.lru_cache", "functools.cache"}:
                called = {ast.unparse(c.func).split(".")[-1] for c in ast.walk(node)
                          if isinstance(c, ast.Call)}
                cached += [f"{path.name}: {node.name} calls {name}" for name in called & readers]
    assert not cached


def test_console_script_is_installed(tmp_path):
    # The suite runs from a checkout with no install, so build the launcher
    # that pip would write for [project.scripts] and run it from a PATH
    # whose first entry is its directory. Any other kp40 on PATH is ignored.
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        entry = tomllib.load(f)["project"]["scripts"]["kp40"]
    module, _, attr = entry.partition(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "kp40"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n"
    )
    launcher.chmod(0o755)

    src = str(Path(kp40.__file__).resolve().parents[1])
    env = dict(os.environ)
    for var, first in (("PATH", str(bindir)), ("PYTHONPATH", src)):
        env[var] = os.pathsep.join(filter(None, [first, env.get(var)]))
    exe = shutil.which("kp40", path=env["PATH"])
    assert exe, f"kp40 entry point not on PATH (declared as {entry!r})"
    assert Path(exe) == launcher
    res = subprocess.run([exe, "bounds"], capture_output=True, text=True, env=env)
    assert res.returncode == 0, f"kp40 bounds ({entry}) failed:\n{res.stderr}"
    assert json.loads(res.stdout)["sigma_nchv"] == 4
