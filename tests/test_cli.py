import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linhyper import asymptotics, cli, exact_oracle, switching_engine
from linhyper.bigraph_core import BipartiteGraph, classify
from linhyper.cli import _involution_spot_check, build_parser, main
from linhyper.exact_oracle import (
    DEFAULT_MAX_SPACE,
    _first_switchable,
    _slice_starts,
    _subset_masks,
    _without_zeros,
    canonical_battery,
    random_guarded_instances,
)
from linhyper.degree_model import new_degree_sequence
from linhyper.errors import NonConforming, NotASwitching
from linhyper.switching_engine import _forward_tuples, apply_forward, forward_candidates
from support import reference_spot_graphs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_json(capsys):
    code, out, _ = run_cli(capsys, "exact", "-r", "3", "-k", "1,1,1,1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count_l"] == "10" and payload["count_b"] == "20"
    assert payload["cd_profile"][0] == "20"


def test_exact_second_instance(capsys):
    code, out, _ = run_cli(capsys, "exact", "-r", "3", "-k", "3,3,3,3")
    payload = json.loads(out)
    assert code == 0 and payload["count_h"] == "1" and payload["count_l"] == "0"


def test_exact_not_divisible_exits_2(capsys):
    code, _, err = run_cli(capsys, "exact", "-r", "3", "-k", "1,1,1,1")
    assert code == 2 and "divide" in err


def test_exact_guard_exits_2(capsys):
    code, _, err = run_cli(capsys, "exact", "-r", "3", "-k", "3,3,3,3,3,3")
    assert code == 2 and "guard" in err


def test_missing_degree_sequence_exits_2(capsys):
    code, _, err = run_cli(capsys, "estimate")
    assert code == 2 and "degree sequence" in err


def test_estimate_json(capsys):
    code, out, _ = run_cli(capsys, "estimate", "-r", "3", "-k", "1,1,1,1,1,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["estimates"]["linear"]["value"] == pytest.approx(10.0)
    assert payload["estimates"]["simple"]["value"] == pytest.approx(10.0)
    assert payload["estimates"]["bigraph"]["value"] == pytest.approx(20.0)
    assert payload["estimates"]["girth6"]["value"] == 1.0


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_estimate_json_writes_null_for_an_overflowed_value(capsys):
    # the counts of k=2^3000 overflow a float: value is null, log_value kept;
    # the CSV still prints inf
    k = ",".join(["2"] * 3000)
    code, out, _ = run_cli(capsys, "estimate", "-r", "3", "-k", k)
    estimates = _strict_json(out)["estimates"]
    assert code == 0
    for name in ("linear", "simple", "bigraph"):
        assert estimates[name]["value"] is None
        assert estimates[name]["log_value"] > 27000
    assert estimates["girth6"]["value"] == pytest.approx(2.718281828459045 ** -1)
    code, out, _ = run_cli(capsys, "estimate", "-r", "3", "-k", k, "--format", "csv")
    assert code == 0 and out.split("\r\n")[1] == "linear,27330.8723684,inf,1.08"
    with pytest.raises(ValueError):
        cli._emit_json({"value": float("nan")})


def test_estimate_csv_is_rfc4180(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "-r", "3", "-k", "1,1,1,1,1,1", "--format", "csv"
    )
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "formula,log_value,value,error_scale"
    assert lines[1].startswith("linear,")
    assert len([ln for ln in lines if ln]) == 5


def test_degree_sequence_file_input(capsys, tmp_path):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"r": 3, "k": [1, 1, 1, 1, 1, 1]}))
    code, out, _ = run_cli(capsys, "exact", "--input", str(path))
    assert code == 0 and json.loads(out)["count_l"] == "10"


def test_inline_wins_over_input(capsys, tmp_path):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"r": 3, "k": [3, 3, 3, 3]}))
    code, out, _ = run_cli(
        capsys, "exact", "--input", str(path), "-r", "3", "-k", "1,1,1,1,1,1"
    )
    assert code == 0 and json.loads(out)["count_l"] == "10"


def test_classify_graph_file(capsys, tmp_path, demo_graph):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(demo_graph.to_json_dict()))
    code, out, _ = run_cli(capsys, "classify", "--input", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["d"] == 2 and payload["in_bplus"] is True
    assert payload["four_cycles"] == [
        {"left": [1, 2], "right": [1, 2]},
        {"left": [5, 6], "right": [3, 4]},
    ]


def test_classify_checks_r_against_the_graph(capsys, tmp_path, demo_graph):
    # without -k, -r must equal the graph's right degree (3 here)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(demo_graph.to_json_dict()))
    _, plain, _ = run_cli(capsys, "classify", "--input", str(path))
    code, out, _ = run_cli(capsys, "classify", "--input", str(path), "-r", "3")
    assert code == 0 and out == plain
    code, out, err = run_cli(capsys, "classify", "--input", str(path), "-r", "5")
    assert code == 2 and out == ""
    assert "-r 5" in err and "right degree 3" in err


def test_classify_help_names_the_graph_file(capsys):
    # --input is the graph; -r/-k give the degrees it is checked against
    with pytest.raises(SystemExit) as info:
        main(["classify", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert info.value.code == 0
    assert '--input INPUT bipartite-graph JSON file, 1-based: {"n_left"' in out
    assert "degree-sequence JSON" not in out and "overrides --input" not in out
    assert "-k K comma-separated degrees to check the graph against" in out


def test_sample_replay_is_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "sample", "-r", "3", "-k", "2,2,2,2,2,2", "--seed", "7")
    code2, out2, _ = run_cli(capsys, "sample", "-r", "3", "-k", "2,2,2,2,2,2", "--seed", "7")
    assert code1 == code2 == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["meta"]["seed"] == 7
    assert payload["meta"]["d_trajectory"][-1] == 0


def test_girth_replay_and_seed_report(capsys):
    args = ["girth", "-r", "3", "-k", "2,2,2,2,2,2", "--seed", "11", "--trials", "300"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 11 and payload["trials"] == 300
    assert 0 <= payload["p_hat"] <= 1
    assert payload["predicted"] == pytest.approx(2.718281828459045 ** -1, rel=1e-12)
    # pinned replay: the (seed, workers) substream split and the random stream
    # of the pairing draws are part of the output contract
    k12 = ",".join(["2"] * 12)
    for workers, p_hat, rejections in (
        ("1", 0.23333333333333334, 558),
        ("3", 0.30333333333333334, 594),
    ):
        code, out, _ = run_cli(capsys, "girth", "-r", "3", "-k", k12, "--seed", "11",
                               "--trials", "300", "--workers", workers)
        payload = json.loads(out)
        assert code == 0
        assert (payload["p_hat"], payload["rejections"]) == (p_hat, rejections)


def test_verify_default_battery(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-space", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["identities"] == "ok"
    assert payload["instances"] == len(payload["rows"]) > 0
    assert payload["involution_spot_checks"] >= 1


def test_verify_ratio_check_columns(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-space", "9", "--ratio-check")
    payload = json.loads(out)
    assert code == 0
    row = payload["rows"][0]
    assert "c0" in row and "c1" in row and "switching_ratio_d1" in row


def test_verify_empty_battery_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-space", "2")
    assert code == 2 and "empty" in err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exit_2(capsys, workers):
    code, _, err = run_cli(capsys, "exact", "-r", "3", "-k", "1,1,1,1,1,1",
                           "--workers", workers)
    assert code == 2 and "workers" in err
    code, _, err = run_cli(capsys, "verify", "--max-space", "9", "--workers", workers)
    assert code == 2 and "workers" in err


@pytest.mark.parametrize("command", ["girth", "sample"])
def test_negative_seed_exit_2(capsys, command):
    code, out, err = run_cli(capsys, command, "-r", "3", "-k", "2,2,2,2,2,2", "--seed", "-1")
    assert code == 2 and out == ""
    assert "argument --seed: must be a non-negative integer, got -1" in err


def test_verify_spot_check_counts_pinned(capsys):
    # the spot check skips instances with no well-behaved graph it could
    # switch and stops at its tenth graph; neither may change the count
    for argv, want in (
        (("-r", "2"), 0),
        (("-r", "3", "--ratio-check"), 8),
        (("-r", "3"), 8),
        (("-r", "4"), 0),
        (("-r", "5"), 0),
    ):
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0 and json.loads(out)["involution_spot_checks"] == want


def test_spot_check_graphs_match_labeled_enumeration():
    # the spot check's graphs are those the labeled enumeration visits first,
    # in the same order, whatever the limit
    instances = canonical_battery(rs=(2, 3, 4)) + random_guarded_instances(
        41, seed=20261018, max_space=12
    )
    for ds in instances:
        for limit in (1, 3, 10):
            assert _first_switchable(ds, limit) == reference_spot_graphs(ds, limit), (
                ds, limit
            )


def test_spot_check_runs_one_multiset_sweep(monkeypatch, capsys):
    # one multiset sweep per instance: no separate counting sweeps
    sweeps = []
    sweep = exact_oracle._sweep

    def recording(*args, **kwargs):
        sweeps.append(args[:3])
        sweep(*args, **kwargs)

    monkeypatch.setattr(exact_oracle, "_sweep", recording)
    battery = canonical_battery(rs=(3,))
    for ds in battery:
        sweeps.clear()
        _involution_spot_check(ds, DEFAULT_MAX_SPACE)
        assert len(sweeps) <= 1, ds
    sweeps.clear()
    code, out, _ = run_cli(capsys, "verify", "-r", "3")
    assert code == 0 and json.loads(out)["involution_spot_checks"] == 8
    # at most one sweep for full_report and one for the spot check, per instance
    assert len(sweeps) <= 2 * len(battery)


def test_spot_check_lister_stops_rooting_at_its_limit(monkeypatch):
    # no graph of a later root comes before one already kept, so the lister
    # roots no further once it holds ``limit`` graphs
    pulled = []
    sweep = exact_oracle._sweep

    def counting(ds, leaf, prefixes):
        sweep(ds, leaf, (pulled.append(prefix) or prefix for prefix in prefixes))

    monkeypatch.setattr(exact_oracle, "_sweep", counting)
    ds = new_degree_sequence((3, 3, 3, 2, 2, 2), 3)  # C(6, 3) = 20 candidates
    assert len(_first_switchable(ds, 10)) == 10
    assert pulled == [((0b000111,), 1), ((0b001011,), 1)]


def test_spot_check_skips_only_non_switchings(monkeypatch):
    # a tuple that is not a switching is skipped; any other error from the
    # switch is a bug and reaches the caller
    ds = new_degree_sequence((3, 2, 2, 2, 2, 1), 3)
    assert _involution_spot_check(ds, DEFAULT_MAX_SPACE) == 8

    def failing(error):
        def apply(graph, t):
            raise error("injected")
        return apply

    monkeypatch.setattr(cli, "apply_forward", failing(NotASwitching))
    assert _involution_spot_check(ds, DEFAULT_MAX_SPACE) == 0
    monkeypatch.setattr(cli, "apply_forward", failing(NonConforming))
    with pytest.raises(NonConforming, match="injected"):
        _involution_spot_check(ds, DEFAULT_MAX_SPACE)


def test_spot_check_round_trips_the_classified_candidates(monkeypatch):
    # the spot check reads 4-cycles without classifying; graph by graph it
    # must still try the tuples forward_candidates lists from a classification,
    # up to and including the first switching that applies
    tried = []

    def recording(graph, t):
        tried.append((graph.cols, t))
        return apply_forward(graph, t)

    monkeypatch.setattr(cli, "apply_forward", recording)
    total = 0
    for ds in canonical_battery(rs=(2, 3, 4)):
        tried.clear()
        checks = _involution_spot_check(ds, DEFAULT_MAX_SPACE)
        want, applied = [], 0
        for cols in _first_switchable(ds, 10):
            graph = BipartiteGraph(ds.n, ds.edge_count(), cols)
            for t in forward_candidates(graph, classify(graph, ds)):
                want.append((graph.cols, t))
                try:
                    apply_forward(graph, t)
                except NotASwitching:
                    continue
                applied += 1
                break
        assert tried == want and checks == applied, ds
        total += checks
    assert total == 8


def test_spot_check_builds_no_index_and_classifies_nothing(monkeypatch, capsys):
    # the round trip needs the 4-cycles and the tuples in order, not a
    # classification or the walk's counted index
    def refuse(*args, **kwargs):
        raise AssertionError("not on the spot check's path")

    monkeypatch.setattr(switching_engine, "_CandidateIndex", refuse)
    monkeypatch.setattr(cli, "classify", refuse)
    code, out, _ = run_cli(capsys, "verify", "-r", "3")
    assert code == 0 and json.loads(out)["involution_spot_checks"] == 8


@pytest.mark.parametrize("argv", [
    ("verify", "-r", "3", "--ratio-check"),
    ("estimate", "-r", "3", "-k", "0,8,0,2,2,1,0,3,1,1,2,4"),
    ("estimate", "-r", "4", "-k", "1,1,1,1", "--format", "csv"),
    ("girth", "-r", "3", "-k", ",".join(["2"] * 30), "--seed", "5", "--trials", "40"),
], ids=["verify-ratio", "estimate-json", "estimate-csv", "girth"])
def test_closed_forms_build_no_fraction(monkeypatch, capsys, argv):
    # the closed forms are int pairs divided once: no Fraction is built on
    # these commands' paths, and their output is what it is without the guard
    _, want, _ = run_cli(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built")

    with monkeypatch.context() as patched:
        patched.setattr(Fraction, "__new__", refuse)
        patched.setattr(asymptotics, "Fraction", refuse)
        code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out == want and not err


def test_verify_builds_each_candidate_list_once(capsys):
    # the candidate masks and their slice starts are shared by every sweep
    # of one (n, r)
    _subset_masks.cache_clear()
    _slice_starts.cache_clear()
    code, _, _ = run_cli(capsys, "verify", "-r", "3")
    assert code == 0
    shapes = {(_without_zeros(ds).n, ds.r) for ds in canonical_battery(rs=(3,))}
    assert _subset_masks.cache_info().misses == len(shapes)
    assert _slice_starts.cache_info().misses == len(shapes)


@pytest.mark.parametrize("argv, digest", [
    (("-r", "2"),
     "6528cc9fb974beabba953a8d12e8f32204c3616b08db30e268cafc30bdcdd4e4"),
    (("-r", "3", "--ratio-check"),
     "6971c2e4980dbeccb075b3e99110c4e3803e191e5947aece602e365a1352b157"),
    (("-r", "3", "--format", "csv"),
     "fcae0615d203cfd9ff5c47df1b3d16a6f994ba30908d155c8ad94168e3d173dd"),
    (("-r", "4"),
     "eec2b22fa3cb0c72adcb372b3f1e7f2311cac76934298c47753869876dd0853e"),
    (("-r", "5"),
     "e5b3762bf20cadf092f64dbf287c0ba1d230412bbc0a864c39154187b21fc21b"),
], ids=["r2-json", "r3-json-ratio", "r3-csv", "r4-json", "r5-json"])
def test_verify_stdout_pinned(capsys, argv, digest):
    # byte for byte: every count, estimate, ratio and the spot-check count
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("k, seed, digest", [
    ("3^30", 3, "267cb4dc5639f53ce17b8cf571450ce9ce8471353aabc560ca9aaa8090325f9f"),
    ("2^90", 3, "9492beebfca3400572f876e672f8d85fb8023fd736fda4de59b0b6eb19681499"),
    ("3^30", 17, "b852e75ac59213d3d42821ef56060ca89cd9d14f153b3db56f8ed3446c9df37d"),
    ("2^90", 17, "743c0ab0a4174e21f034efbe46c52656653e5f8e5595442e6eb7307ffeb8401f"),
], ids=["3^30-s3", "2^90-s3", "3^30-s17", "2^90-s17"])
def test_sample_stdout_pinned(capsys, k, seed, digest):
    # byte for byte: the walk's draws, the graph's edge order and the text
    degree, count = k.split("^")
    code, out, _ = run_cli(capsys, "sample", "-r", "3", "-k", ",".join([degree] * int(count)),
                           "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def has_room(ds, report):
    """Whether some well-behaved graph has d >= 1 4-cycles and, their right
    pairs being disjoint, at least two of its m columns off them."""
    m = ds.edge_count()
    return any(count and m - 2 * d >= 2 for d, count in enumerate(report.cd_profile) if d)


def test_verify_spot_checks_only_switchable_instances(monkeypatch, capsys):
    # verify sweeps for spot-check graphs only where some well-behaved graph
    # has a 4-cycle and two free columns to switch its edges to
    calls = []

    def recording(ds, limit, max_space=DEFAULT_MAX_SPACE):
        calls.append(ds)
        return _first_switchable(ds, limit, max_space)

    monkeypatch.setattr(cli, "_first_switchable", recording)
    # (r, spot checks, switchable instances of the battery's 28 and 21)
    for r, want, n_switchable in ((3, 8, 1), (4, 0, 0)):
        calls.clear()
        code, out, _ = run_cli(capsys, "verify", "-r", str(r))
        assert code == 0 and json.loads(out)["involution_spot_checks"] == want
        switchable = [
            ds for ds in canonical_battery(rs=(r,))
            if has_room(ds, exact_oracle.full_report(ds))
        ]
        assert calls == switchable and len(calls) == n_switchable, r


def test_spot_check_graphs_are_the_checked_ones(monkeypatch):
    # the spot check builds its graphs without the constructor's checks;
    # each must equal the checked graph on the sweep's columns
    swept, built = [], []

    def listing(ds, limit, max_space=DEFAULT_MAX_SPACE):
        found = _first_switchable(ds, limit, max_space)
        swept.extend((ds, cols) for cols in found)
        return found

    def recording(graph, cycles):
        built.append(graph)
        return _forward_tuples(graph, cycles)

    monkeypatch.setattr(cli, "_first_switchable", listing)
    monkeypatch.setattr(cli, "_forward_tuples", recording)
    for ds in canonical_battery(rs=(2, 3, 4, 5)):
        if has_room(ds, exact_oracle.full_report(ds)):
            _involution_spot_check(ds, DEFAULT_MAX_SPACE)
    assert len(built) == len(swept) == 10
    for (ds, cols), graph in zip(swept, built):
        checked = BipartiteGraph(ds.n, ds.edge_count(), cols)
        assert graph == checked and graph.n_right == checked.n_right
        assert type(graph.cols) is tuple and {type(c) for c in graph.cols} == {int}


def test_instances_verify_skips_have_no_switching():
    # where some well-behaved graph has a 4-cycle but none has room, every
    # spot-check graph has fewer than two columns off its 4-cycles, so it
    # has no forward tuple and the skipped spot check would round-trip none
    space = 20
    instances = canonical_battery(rs=(2, 3, 4, 5)) + random_guarded_instances(
        8000, seed=20261021, max_n=8, k_max=4, rs=(2, 3, 4, 5), max_space=space
    )
    skipped, graphs = set(), 0
    for ds in instances:
        report = exact_oracle.full_report(ds, max_space=space)
        if report.count_bplus == report.cd_profile[0] or has_room(ds, report):
            continue
        skipped.add((ds.k, ds.r))
        assert _involution_spot_check(ds, space) == 0, ds
        m = ds.edge_count()
        for cols in _first_switchable(ds, 10, space):
            graph = BipartiteGraph(ds.n, m, cols)
            cycles = graph.four_cycles()
            assert m - len({i for c in cycles for i in c.right_pair}) < 2, ds
            assert next(_forward_tuples(graph, cycles), None) is None, ds
            graphs += 1
    # the check is not vacuous: 81 distinct skipped instances, 668 graphs
    assert (len(skipped), graphs) == (81, 668)


def test_cached_parser_matches_fresh_parser(capsys):
    # main() reuses one parser per process; outputs and exit codes must be
    # those of a parser built for the call
    runs = [
        ("exact", "-r", "3", "-k", "1,1,1,1,1,1"),
        ("sample", "-r", "3", "-k", "2,2,2,2,2,2", "--seed", "7"),
        ("exact", "-r", "3", "-k", "1,1,1,1,1,1", "--workers", "0"),
    ]
    build_parser.cache_clear()
    cached = [run_cli(capsys, *argv) for argv in runs]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 2]


@pytest.mark.parametrize("k", ["2,2", "1,1,2,2"])
def test_exact_r2_equal_columns_are_not_well_behaved(capsys, k):
    # for r = 2 two equal columns form one 4-cycle passing properties (i)-(v);
    # well-behaved also requires distinct columns, so |B+| <= |B0| holds
    code, out, _ = run_cli(capsys, "exact", "-r", "2", "-k", k)
    payload = json.loads(out)
    assert code == 0
    assert int(payload["count_bplus"]) <= int(payload["count_b0"])
    assert payload["count_bplus"] == payload["cd_profile"][0]


def test_verify_r2_exits_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "-r", "2")
    assert code == 0 and json.loads(out)["identities"] == "ok"


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("girth", "-r", "3", "-k", "2,2,2,2,2,2", "--trials"),
    ("girth", "-r", "3", "-k", "2,2,2,2,2,2", "--workers"),
    ("exact", "-r", "3", "-k", "1,1,1,1,1,1", "--workers"),
    ("verify", "--max-space", "9", "--workers"),
], ids=["girth-trials", "girth-workers", "exact-workers", "verify-workers"])
def test_positive_options_exit_2(capsys, argv, value):
    # rejected while parsing, before any work, with the option named
    code, out, err = run_cli(capsys, *argv, value)
    assert code == 2 and out == ""
    assert f"argument {argv[-1]}: must be a positive integer, got {value}" in err


def test_library_value_error_is_an_internal_error(monkeypatch, capsys):
    # a bare ValueError from the library is a bug, not bad input
    from linhyper import cli

    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(cli, "full_report", broken)
    code, out, err = run_cli(capsys, "exact", "-r", "3", "-k", "1,1,1,1,1,1")
    assert code == 1 and out == ""
    assert "internal error: ValueError: injected" in err


@pytest.mark.parametrize("argv, message", [
    (("exact", "-r", "3", "-k", "1,x,1"), "argument -k"),
    (("exact", "-r", "3", "-k", "1,,1,1"), "expected comma-separated integers"),
    (("exact", "-r", "3", "-k", "1,1,1,"), "expected comma-separated integers"),
    (("exact", "-r", "3", "-k", "1,1,1", "--max-space", "-1"),
     "argument --max-space: must be a non-negative integer, got -1"),
    (("verify", "--max-space", "-1"),
     "argument --max-space: must be a non-negative integer, got -1"),
    (("verify", "-r", "0"), "edge size r must be >= 2, got 0"),
    (("exact", "-r", "3", "-k", "1,1,1", "--format", "csv"), "JSON only"),
    (("classify",), "requires --input"),
], ids=["bad-k", "empty-k-field", "trailing-k-comma", "exact-max-space",
        "verify-max-space", "verify-r0", "exact-csv", "classify"])
def test_malformed_arguments_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and message in err


@pytest.mark.parametrize("text", [
    '{"r": 3, "k": [1, 1,', '{"k": [1, 2]}', '{"r": 3, "k": 5}', '[3]', '{"r": "x", "k": [1]}',
], ids=["truncated", "no-r", "k-not-list", "not-object", "r-not-int"])
def test_malformed_input_file_exit_2(capsys, tmp_path, text):
    path = tmp_path / "ds.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "exact", "--input", str(path))
    assert code == 2 and out == "" and "invalid input file" in err


@pytest.mark.parametrize("doc", [
    {"r": 3.9, "k": [2.7, 2, 2, True, True, True]},
    {"r": 3, "k": [2.7, 2, 2, 1, 1, 1]},
    {"r": 3, "k": [2, 2, 2, True, 1, 1]},
], ids=["float-r", "float-degree", "bool-degree"])
def test_non_integer_degree_file_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "exact", "--input", str(path))
    assert code == 2 and out == "" and "expected an integer" in err


@pytest.mark.parametrize("edge", [[True, 1], [1.0, 1]], ids=["bool", "float"])
def test_non_integer_graph_file_exits_2(capsys, tmp_path, edge):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n_left": 2, "n_right": 1, "edges": [edge, [2, 1]]}))
    code, out, err = run_cli(capsys, "classify", "--input", str(path))
    assert code == 2 and out == "" and "invalid input file" in err


def test_csv_cells_pinned(capsys):
    # recorded before the cell formatting moved into one function: floats
    # as .12g (girth6's log is -0.0), lists space-joined, None empty, ints
    _, out, _ = run_cli(capsys, "verify", "-r", "4", "--ratio-check", "--format", "csv")
    assert out.split("\r\n")[:3] == [
        "k,r,count_l,estimate_linear,ratio,error_scale,c0,c1,ratio_c1_c0,switching_ratio_d1",
        "3 3 3 3,4,0,2.73787240281e-05,0,12096,0,0,,9",
        "3 3 3 3 3 1,4,0,0.00744760599043,0,9072,0,0,,7.91015625",
    ]
    _, out, _ = run_cli(capsys, "girth", "-r", "3", "-k", ",".join(["2"] * 12),
                        "--seed", "11", "--trials", "50", "--format", "csv")
    assert out == ("p_hat,ci_halfwidth,trials,predicted,seed\r\n"
                   "0.32,0.129298216491,50,0.367879441171,11\r\n")
    _, out, _ = run_cli(capsys, "estimate", "-r", "3", "-k", "1,1,1", "--format", "csv")
    assert out.split("\r\n")[4] == "girth6,0,1,108"


def _dumps(obj):
    return json.dumps(obj, indent=2, allow_nan=False)


@pytest.mark.parametrize("argv", [
    ("exact", "-r", "3", "-k", "2,2,2,2,2,2"),
    ("estimate", "-r", "3", "-k", "1,1,1,1,1,1"),
    ("estimate", "-r", "3", "-k", ",".join(["2"] * 3000)),
    ("classify",),
    ("sample", "-r", "3", "-k", ",".join(["2"] * 90), "--seed", "5"),
    ("girth", "-r", "3", "-k", "2,2,2,2,2,2", "--seed", "11", "--trials", "50"),
    ("verify", "--max-space", "9", "--ratio-check"),
], ids=["exact", "estimate", "estimate-null", "classify", "sample", "girth", "verify"])
def test_every_json_output_is_json_dumps(monkeypatch, capsys, tmp_path, demo_graph, argv):
    # each command's stdout, written by the writer and by json.dumps
    if argv == ("classify",):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(demo_graph.to_json_dict()))
        argv += ("--input", str(path))
    code, out, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_emit_json", lambda obj: print(_dumps(obj)))
    assert run_cli(capsys, *argv) == (code, out, "") and code == 0


@pytest.mark.parametrize("obj", [
    {}, [], {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[]]], {"a": {"b": {}}},
    "", "héllo ☃ \U0001f600", "\x00\x1f\x7f\"\\/\n\t", {"é\n": "\u2028"},
    -0.0, 1e300, 1e-300, 5e-324, 0.1, 1e16, 10 ** 400, -(10 ** 400), [10 ** 400, 1],
    [True, 1], [[1, True]], [[1, 2, 3]], [[1, 2], [3]], [[1, 2], [3, 4.0]], [[1, 2], (3, 4)],
    [1, 2.0], [1, None], [[-1, 0], [2, 10 ** 30]], [3, -3, 0],
    (1, 2), {"a": (1, [2])}, {1: "a"}, {"a": 1, 2: "b"}, {True: 1}, {None: 1},
    None, True, False, 0, "x", 1.5,
], ids=repr)
def test_json_writer_edge_cases(obj):
    assert cli._json_text(obj) == _dumps(obj)


def test_json_writer_falls_back_on_subclasses():
    import enum

    class Level(enum.IntEnum):
        LOW = 1

    class Text(str):
        pass

    class Ratio(float):
        def __repr__(self):
            return "Ratio"

    for obj in ([Level.LOW, 2], [[Level.LOW, 2]], {Text("k"): Text("v")}, [Ratio(0.5)]):
        assert cli._json_text(obj) == _dumps(obj)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner)
    | st.lists(st.lists(st.integers(), min_size=2, max_size=2)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_dumps(obj):
    assert cli._json_text(obj) == _dumps(obj)


def test_json_writer_raises_what_dumps_raises():
    loop = [1]
    loop.append(loop)
    for bad in (float("nan"), [1.0, float("inf")], {"a": [[-float("inf")]]}, loop):
        with pytest.raises(ValueError) as info:
            cli._json_text(bad)
        with pytest.raises(ValueError) as want:
            _dumps(bad)
        assert str(info.value) == str(want.value)
    for bad in ({"a": object()}, [{1, 2}], [[1, b"2"]]):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json_text(bad)
