import json
import os
import re
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from actionlim import DiscreteMeasure
from actionlim.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestVerify:
    def test_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "norms")
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_json_records(self, capsys):
        code, out = run(capsys, "--json", "verify", "--suite", "self_adjoint")
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert all(r["pass"] is True for r in recs)

    def test_out_option_refused(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "norms", "--out", str(tmp_path / "records.jsonl")])
        assert exc.value.code == 2
        assert not (tmp_path / "records.jsonl").exists()


# pairs of 1-d measures, as (point, weight) atoms, on which the flow engine and the oracle must
# give the same bits: the flow engine sorts a pair with |A||B| <= 2(|A| + |B|) from Python lists
# and a larger one with numpy (5+5 atoms lie above that bound, 4+4 on it and 9+1 below it);
# round_up's distance-0 edge leaves 1/s unmatched with float(1/s) below 1/s, so the flow
# engine's ceiling must round up; underflow's atoms 1e-200 from 0 are at distance 0.0
AGREEING_PAIRS = {
    "five": ([(0, "5/13"), (0.25, "1/13"), (0.5, "4/13"), (0.75, "1/13"), (1, "2/13")],
             [(0.125, "1/11"), (0.375, "6/11"), (0.625, "1/11"), (0.875, "1/11"), (1.125, "2/11")]),
    "four": ([(0, "4/22"), (0.125, "9/22"), (0.25, "3/22"), (0.5, "6/22")],
             [(0, "8/19"), (0.1875, "2/19"), (0.25, "1/19"), (0.625, "8/19")]),
    "nine_one": ([(k / 8, f"{w}/36") for k, w in enumerate([3, 1, 4, 1, 5, 9, 2, 6, 5])], [(0.4375, "1/1")]),
    "round_up": ([(0, "1/1")], [(0, "2147483639/2147483640"), (0.015625, "1/2147483640")]),
    "underflow": ([(0, "1/1")], [(1e-200, "7/8"), (0.5, "1/8")]),
}


class TestProfileAndDist:
    def test_profile_then_distances(self, capsys, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        code, _ = run(capsys, "profile", "--graph", "star:12", "-k", "1", "--count", "3", "--out", str(dir_a))
        assert code == 0
        code, _ = run(capsys, "profile", "--graph", "broadcast:12:0", "-k", "1", "--count", "3", "--out", str(dir_b))
        assert code == 0
        manifest = json.loads((dir_a / "manifest.json").read_text())
        assert len(manifest["files"]) == 5
        mu = DiscreteMeasure.from_json((dir_a / manifest["files"][0]).read_text())
        assert mu.dim == 2

        code, out = run(capsys, "--json", "dist", "lp", str(dir_a / "measure_0000.json"), str(dir_b / "measure_0000.json"))
        assert code == 0
        assert json.loads(out)["metric"] == "lp"

        code, out = run(capsys, "--json", "dist", "hausdorff", str(dir_a), str(dir_b))
        assert code == 0
        payload = json.loads(out)
        assert payload["metric"] == "hausdorff"
        assert 0.0 <= payload["value"] <= 1.0
        # the witness names one file of each directory, whose distance is the value
        file_a, file_b = payload["witness"]
        assert file_a in manifest["files"]
        assert file_b in json.loads((dir_b / "manifest.json").read_text())["files"]
        code, out = run(capsys, "--json", "dist", "lp", str(dir_a / file_a), str(dir_b / file_b))
        assert json.loads(out)["value"] == payload["value"]
        # deterministic counters of the Hausdorff loop, no timings
        counts = payload["counts"]
        assert set(counts) == {"candidates", "tv_ends", "gap_skips", "pairs", "prunes", "exact",
                               "pushes", "augmentations", "rebuilds", "breakpoints", "edges_sorted"}
        assert counts["candidates"] == counts["tv_ends"] + counts["gap_skips"] + counts["pairs"]
        assert counts["pairs"] == counts["prunes"] + counts["exact"] > 0
        # a tree is built only by a search, and each max flow (one per breakpoint tested, one
        # for the distance-0 edges) searches at most once more than it augments
        assert counts["rebuilds"] <= counts["breakpoints"] + counts["pairs"] + counts["augmentations"]

    @pytest.mark.parametrize("profiles, value, witness, counts", [
        # star against broadcast settles by direct pushes: no search tree
        ((["star:32", "-k", "2", "--count", "8"], ["broadcast:32:0", "-k", "2", "--count", "8"]), 0.03125, 0,
         dict(candidates=19, tv_ends=9, gap_skips=8, pairs=2, prunes=1, exact=1, pushes=2, augmentations=0,
              rebuilds=0, breakpoints=2, edges_sorted=0)),
        # the apex against its limit, probed at the apex and at vertex 0: one augmentation along
        # a tree path, and one tree per search
        ((["gplus:cycle:32", "--probe-vertex", "32", "-k", "1", "--count", "16"],
          ["signed:+1:0:cycle:33", "--probe-vertex", "0", "-k", "1", "--count", "16"]), 0.12121212121212122, 11,
         dict(candidates=69, tv_ends=7, gap_skips=21, pairs=41, prunes=30, exact=11, pushes=419, augmentations=1,
              rebuilds=25, breakpoints=237, edges_sorted=255)),
    ], ids=["star", "apex"])
    def test_hausdorff_counts_pinned(self, capsys, tmp_path, profiles, value, witness, counts):
        # the in-process twin of the console-script step's two `dist hausdorff` checks
        dirs = [tmp_path / "a", tmp_path / "b"]
        for (graph, *flags), out in zip(profiles, dirs):
            code, _ = run(capsys, "profile", "--graph", graph, *flags, "--seed", "7", "--out", str(out))
            assert code == 0
        code, out = run(capsys, "--json", "dist", "hausdorff", *map(str, dirs))
        assert code == 0
        payload = json.loads(out)
        assert (payload["value"], payload["argmax_side"]) == (value, "left")
        assert payload["witness"] == [f"measure_{witness:04d}.json"] * 2
        assert list(payload["counts"].items()) == list(counts.items())

    def test_vertex_probe_defaults_to_last_vertex(self, capsys, tmp_path):
        code, _ = run(capsys, "profile", "--graph", "gplus:cycle:4", "--kind", "vertex_probe", "--count", "2",
                      "--out", str(tmp_path))
        assert code == 0
        # gplus:cycle:4 has 5 vertices; the apex, vertex 4, is probed, as in `experiment`
        assert json.loads((tmp_path / "manifest.json").read_text())["strategy"].endswith(":v4:g9")

    def test_brute_force_flag_agrees(self, capsys, tmp_path):
        f1 = tmp_path / "m1.json"
        f2 = tmp_path / "m2.json"
        f1.write_text(json.dumps({"dim": 1, "atoms": [{"p": [0.0], "w": "1/1"}]}))
        f2.write_text(json.dumps({"dim": 1, "atoms": [{"p": [0.5], "w": "1/1"}]}))
        _, out_flow = run(capsys, "--json", "dist", "lp", str(f1), str(f2))
        _, out_bf = run(capsys, "--json", "dist", "lp", str(f1), str(f2), "--brute-force")
        assert json.loads(out_flow)["value"] == json.loads(out_bf)["value"] == 0.5

    @pytest.mark.parametrize("pair", AGREEING_PAIRS)
    def test_flow_and_brute_force_give_the_same_bits(self, capsys, tmp_path, pair):
        for name, atoms in zip("ab", AGREEING_PAIRS[pair]):
            payload = {"dim": 1, "atoms": [{"p": [p], "w": w} for p, w in atoms]}
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        for x, y in ("ab", "ba"):  # the oracle enumerates the smaller side's unions only
            files = [str(tmp_path / f"{x}.json"), str(tmp_path / f"{y}.json")]
            _, flow = run(capsys, "--json", "dist", "lp", *files)
            _, brute = run(capsys, "--json", "dist", "lp", *files, "--brute-force")
            assert repr(json.loads(flow)["value"]) == repr(json.loads(brute)["value"])

    def test_overflowing_distances_give_one(self, capsys, tmp_path):
        # cdist overflows to inf between the two diracs; every engine answers 1.0, and the
        # output is JSON a strict parser accepts (no Infinity)
        def strict(text):
            return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in {text!r}"))

        for name, point in (("a", [1e200, 0]), ("b", [0, 1e200])):
            (tmp_path / name).mkdir()
            (tmp_path / name / "m.json").write_text(json.dumps({"dim": 2, "atoms": [{"p": point, "w": "1/1"}]}))
        a, b = str(tmp_path / "a" / "m.json"), str(tmp_path / "b" / "m.json")
        for argv in (["lp", a, b], ["lp", b, a, "--brute-force"], ["hausdorff", str(tmp_path / "a"), str(tmp_path / "b")]):
            code, out = run(capsys, "--json", "dist", *argv)
            assert code == 0
            assert strict(out)["value"] == 1.0


class TestActionDist:
    def test_estimate(self, capsys):
        code, out = run(capsys, "--json", "actiondist", "--a", "star:8", "--b", "broadcast:8:0", "-K", "2", "--count", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["truncation_k"] == 2
        assert payload["value"] > 0.0

    def test_probe_vertices(self, capsys):
        code, out = run(
            capsys, "--json", "actiondist", "--a", "gplus:cycle:4", "--b", "signed:+1:0:cycle:5",
            "-K", "1", "--count", "3", "--probe-a", "4", "--probe-b", "0",
        )
        assert code == 0
        assert "vertex_probe" in json.loads(out)["strategy"]

    def test_vertex_probe_defaults_to_each_operators_last_vertex(self, capsys):
        # gplus:cycle:4 has 5 vertices and cycle:4 has 4: each operator is probed at its own
        # last vertex, as in `experiment`, not at operator a's
        code, out = run(capsys, "--json", "actiondist", "--a", "gplus:cycle:4", "--b", "cycle:4",
                        "--kind", "vertex_probe", "-K", "1", "--count", "2")
        assert code == 0
        assert json.loads(out)["strategy"] == "vertex_probe:2:0:v4:g9|vertex_probe:2:0:v3:g9"

    def test_seed_outside_int64_refused_before_sampling(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["actiondist", "--a", "star:4", "--b", "broadcast:4:0", "--seed", str(2**63)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "actionlim actiondist: error: seed 9223372036854775808 is outside the signed 64-bit range")


class TestMalformedSpec:
    @pytest.mark.parametrize("argv", [
        ["limit", "star:x"],
        ["profile", "--graph", "star:x", "--out", "OUT"],
        ["actiondist", "--a", "star:x", "--b", "broadcast:4:0"],
        ["actiondist", "--a", "star:4", "--b", "star:x"],
    ])
    def test_usage_error_names_the_spec(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([str(out) if arg == "OUT" else arg for arg in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # argparse names the argument: the positional `spec` of limit, else the option before the spec
        arg = "spec" if argv[0] == "limit" else argv[argv.index("star:x") - 1]
        assert err.splitlines()[-1] == (
            f"actionlim {argv[0]}: error: argument {arg}: "
            "operator spec 'star:x': vertex count 'x' is not an integer")
        assert not out.exists()

    @pytest.mark.parametrize("name, text, reason", [
        ("no_matrix.json", '{"n": 2}', "operator JSON must be an object with a 'matrix'"),
        ("list.json", "[1, 2]", "operator JSON must be an object with a 'matrix'"),
        ("missing_op.json", None, "No such file or directory"),
        ("int_name.json", '{"matrix": [[1]], "name": 5}', "operator 'name' must be a string, got 5"),
    ])
    def test_bad_operator_json_is_a_usage_error(self, capsys, tmp_path, monkeypatch, name, text, reason):
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / name).write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["limit", name])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"actionlim limit: error: argument spec: operator spec '{name}': ")
        assert reason in last


class TestBadInput:
    """Each bad input is a usage error (exit 2) whose last line names it, not a traceback."""

    @pytest.mark.parametrize("argv, last", [
        (["dist", "lp", "missing.json", "other.json"],
         "actionlim dist lp: error: argument file_a: measure file 'missing.json': "
         "[Errno 2] No such file or directory: 'missing.json'"),
        (["dist", "lp", "six.json", "six.json", "--brute-force"],
         "actionlim dist lp: error: combined support too large for brute force (max 10 atoms)"),
        (["experiment", "--config", "missing.cfg"],
         "actionlim experiment: error: argument --config: config file 'missing.cfg': No such file or directory"),
        (["experiment", "--set", "sizes=x"],
         "actionlim experiment: error: argument --set: config key 'sizes' needs integers, got 'x'"),
        (["profile", "--graph", "star:4", "--probe-vertex", "9", "--out", "out"],
         "actionlim profile: error: argument --probe-vertex: probe vertex 9 out of range for n=4"),
        (["dist", "lp", "six.json", "plane.json"], "actionlim dist lp: error: dimension mismatch: 1 vs 2"),
        (["dist", "hausdorff", "empty", "empty"],
         "actionlim dist hausdorff: error: argument dir_a: no measure files in 'empty'"),
        (["dist", "hausdorff", "no_atoms", "no_atoms"],
         "actionlim dist hausdorff: error: argument dir_a: "
         "measure file 'no_atoms/m.json': measure JSON has no 'atoms'"),
        (["experiment", "--config", "sizes_x.cfg"],
         "actionlim experiment: error: argument --config: config file 'sizes_x.cfg': "
         "config key 'sizes' needs integers, got 'x'"),
        (["experiment", "--config", "unknown_key.cfg"],
         "actionlim experiment: error: argument --config: config file 'unknown_key.cfg': unknown config key 'colour'"),
        # its n x n float64 matrix asks for 8 EiB, which numpy refuses at once with a MemoryError
        (["limit", "star:1000000000"],
         "actionlim limit: error: argument spec: operator spec 'star:1000000000': Unable to allocate 6.94 EiB "
         "for an array with shape (1000000000, 1000000000) and data type float64"),
    ], ids=["missing_measure", "brute_force_guard", "missing_config", "set_not_integers", "probe_out_of_range",
            "dim_mismatch", "hausdorff_empty_dir", "hausdorff_no_atoms", "config_not_integers", "config_unknown_key",
            "limit_matrix_too_large"])
    def test_usage_error(self, capsys, tmp_path, monkeypatch, argv, last):
        monkeypatch.chdir(tmp_path)
        six = {"dim": 1, "atoms": [{"p": [x / 8], "w": "1/6"} for x in range(6)]}
        (tmp_path / "six.json").write_text(json.dumps(six))
        (tmp_path / "plane.json").write_text(json.dumps({"dim": 2, "atoms": [{"p": [0, 0], "w": "1/1"}]}))
        (tmp_path / "empty").mkdir()
        (tmp_path / "no_atoms").mkdir()
        (tmp_path / "no_atoms" / "m.json").write_text(json.dumps({"dim": 1}))
        (tmp_path / "sizes_x.cfg").write_text("sizes=x\n")
        (tmp_path / "unknown_key.cfg").write_text("colour=red\n")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == last
        assert not (tmp_path / "out").exists()


EXPERIMENT = ["experiment", "--set", "sizes=4", "--set", "count=2", "--set", "K=1", "--out", "out"]
ACTIONDIST = ["actiondist", "--a", "star:4", "--b", "broadcast:4:0"]
PROFILE = ["profile", "--graph", "star:4", "--out", "out"]


class TestRefusedByTheLibrary:
    """An input the library refuses, or an --out that names a file, is a usage error of the
    command given it (main turns the ValueError or OSError into one), and no --out is made."""

    @pytest.mark.parametrize("argv, message", [
        (EXPERIMENT + ["--set", "sizes="], "config key 'sizes' is empty: an experiment needs at least one size"),
        (EXPERIMENT + ["--set", "sizes=4 4"], "config key 'sizes' repeats size 4: each size writes one report"),
        (EXPERIMENT + ["--set", "K=0"], "truncation K must be >= 1"),
        (EXPERIMENT + ["--set", "count=-1"], "count must be >= 0"),
        (EXPERIMENT + ["--set", "strategy=nope"],
         "unknown strategy kind 'nope'; choose from "
         "('mixed', 'iid_uniform', 'rademacher', 'block_step', 'indicator', 'vertex_probe')"),
        (EXPERIMENT + ["--set", "probe_a=x"], "probe 'x' must be a vertex index or 'last'"),
        (EXPERIMENT + ["--set", "probe_a=9"], "probe vertex 9 out of range for n=4"),
        (EXPERIMENT + ["--set", "graph_a=star:{m}"],
         "config key 'graph_a' may use only the tokens {n} and {n1}, got 'star:{m}'"),
        (["experiment", "--config", "template.cfg", "--out", "out"],
         "argument --config: config file 'template.cfg': "
         "config key 'graph_b' may use only the tokens {n} and {n1}, got 'star:{m}'"),
        (EXPERIMENT + ["--out", "file.txt"], "[Errno 17] File exists: 'file.txt'"),
        (ACTIONDIST + ["--seed", str(2**63)], "seed 9223372036854775808 is outside the signed 64-bit range"),
        (ACTIONDIST + ["--count", "-1"], "count must be >= 0"),
        (ACTIONDIST + ["-K", "0"], "truncation K must be >= 1"),
        (PROFILE + ["--seed", str(-2**63 - 1)], "seed -9223372036854775809 is outside the signed 64-bit range"),
        (PROFILE + ["-k", "0"], "k must be >= 1"),
        (PROFILE + ["--count", "-1"], "count must be >= 0"),
        (PROFILE + ["--out", "file.txt"], "[Errno 17] File exists: 'file.txt'"),
        # JSON 1e400 reads as inf, and 1.5 is no dimension
        (["dist", "lp", "dim_inf.json", "line.json"],
         "argument file_a: measure file 'dim_inf.json': dim must be an integer, got inf"),
        (["dist", "lp", "dim_half.json", "line.json"],
         "argument file_a: measure file 'dim_half.json': dim must be an integer, got 1.5"),
        (["dist", "lp", "line.json", "weight_inf.json"],
         "argument file_b: measure file 'weight_inf.json': weight 0 is inf: weights must be finite numbers"),
        (["limit", "op_weight_inf.json"],
         "argument spec: operator spec 'op_weight_inf.json': weight 1 is inf: weights must be finite numbers"),
        # JSON true is no weight, though Fraction(True) is 1
        (["dist", "lp", "line.json", "weight_bool.json"],
         "argument file_b: measure file 'weight_bool.json': weight 0 is True: weights must be finite numbers"),
        (["limit", "op_weight_bool.json"],
         "argument spec: operator spec 'op_weight_bool.json': weight 0 is True: weights must be finite numbers"),
        # np.asarray would read true and "1" as 1.0 and null as nan
        (["dist", "lp", "coord_bool.json", "line.json"],
         "argument file_a: measure file 'coord_bool.json': atom 0 coordinate 0 is True: coordinates must be numbers"),
        (["dist", "lp", "line.json", "coord_null.json"],
         "argument file_b: measure file 'coord_null.json': atom 0 coordinate 0 is None: coordinates must be numbers"),
        (["limit", "op_entry_string.json"],
         "argument spec: operator spec 'op_entry_string.json': "
         "matrix row 0 column 0 is '1': matrix entries must be numbers"),
        # a JSON value of the wrong shape is refused by the key it lacks or holds wrongly
        (["dist", "lp", "line.json", "no_w.json"], "argument file_b: measure file 'no_w.json': atom 0 has no 'w'"),
        (["dist", "lp", "list.json", "line.json"],
         "argument file_a: measure file 'list.json': measure JSON must be an object, got list"),
        (["limit", "op_n.json"],
         "argument spec: operator spec 'op_n.json': operator 'n' is 7, but its matrix is 1 x 1"),
        (["limit", "edge_list:5"], "argument spec: operator spec 'edge_list:5': unknown graph kind 'edge_list'"),
    ], ids=["sizes_empty", "sizes_repeated", "K_0", "count_negative", "strategy_unknown", "probe_not_int",
            "probe_out_of_range", "template_token", "template_token_in_config", "experiment_out_is_a_file",
            "actiondist_seed", "actiondist_count", "actiondist_K", "profile_seed", "profile_k", "profile_count",
            "profile_out_is_a_file", "measure_dim_overflows", "measure_dim_fractional", "measure_weight_overflows",
            "operator_weight_overflows", "measure_weight_bool", "operator_weight_bool", "measure_coordinate_bool",
            "measure_coordinate_null", "operator_entry_string", "measure_atom_no_w", "measure_list", "operator_n",
            "graph_kind_edge_list"])
    def test_usage_error(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "template.cfg").write_text("graph_b=star:{m}\nsizes=4\ncount=2\nK=1\n")
        (tmp_path / "file.txt").write_text("")
        dirac = '[{"p": [0], "w": "1/1"}]'
        (tmp_path / "line.json").write_text(f'{{"dim": 1, "atoms": {dirac}}}')
        (tmp_path / "dim_inf.json").write_text(f'{{"dim": 1e400, "atoms": {dirac}}}')
        (tmp_path / "dim_half.json").write_text(f'{{"dim": 1.5, "atoms": {dirac}}}')
        (tmp_path / "weight_inf.json").write_text('{"dim": 1, "atoms": [{"p": [0], "w": 1e400}]}')
        (tmp_path / "op_weight_inf.json").write_text('{"matrix": [[0, 1], [1, 0]], "weights": [0.5, 1e400]}')
        (tmp_path / "weight_bool.json").write_text('{"dim": 1, "atoms": [{"p": [0], "w": true}]}')
        (tmp_path / "op_weight_bool.json").write_text('{"matrix": [[1]], "weights": [true]}')
        (tmp_path / "coord_bool.json").write_text('{"dim": 1, "atoms": [{"p": [true], "w": 1}]}')
        (tmp_path / "coord_null.json").write_text('{"dim": 1, "atoms": [{"p": [null], "w": 1}]}')
        (tmp_path / "op_entry_string.json").write_text('{"matrix": [["1"]]}')
        (tmp_path / "no_w.json").write_text('{"dim": 1, "atoms": [{"p": [0]}]}')
        (tmp_path / "list.json").write_text(f'[{dirac}]')
        (tmp_path / "op_n.json").write_text('{"n": 7, "matrix": [[1]]}')
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        command = " ".join(argv[:2]) if argv[0] == "dist" else argv[0]  # `dist lp` is one subcommand
        assert err.splitlines()[-1] == f"actionlim {command}: error: {message}"
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


# argv fragments, valid and bad; no size or count is large, so every valid argv runs in milliseconds
SPECS = ["star:4", "gplus:cycle:3", "star:x", "cycle:2", "er:5", "missing.json"]
NUMBERS = ["-1", "0", "1", "2", "9"]
SEEDS = NUMBERS + [str(2**63), str(-2**63 - 1)]
# a missing file, an existing file, an empty directory, malformed JSON, measures of dims 1 and 2
PATHS = ["missing.json", "line.json", "empty", "malformed.json", "plane.json"]
SET_ITEMS = (["sizes=", "sizes=4 4", "K=0", "count=-1", "strategy=nope", "graph_a=star:{m}", "probe_a=x",
              "probe_a=9", "colour=red"]
             + [f"{key}={v}" for key in ("sizes", "K", "count", "probe_a") for v in NUMBERS]
             + [f"seed={v}" for v in SEEDS] + [f"graph_a={spec}" for spec in SPECS])


def _options(*choices):
    """One `FLAG VALUE` fragment, for (flag, values) pairs."""
    return st.one_of(*(st.tuples(st.just(flag), st.sampled_from(values)) for flag, values in choices)).map(list)


def _command(base, fragment):
    """A cheap valid base argv with 0-4 fragments appended; a later fragment overrides an earlier one."""
    return st.lists(fragment, max_size=4).map(lambda frags: base + [word for f in frags for word in f])


ARGVS = st.one_of(
    _command(EXPERIMENT, _options(("--set", SET_ITEMS), ("--config", PATHS), ("--out", ["line.json", "empty"]))),
    _command(ACTIONDIST + ["--count", "2", "-K", "1"], _options(
        ("--a", SPECS + PATHS), ("--b", SPECS), ("--count", NUMBERS), ("-K", NUMBERS), ("--seed", SEEDS),
        ("--probe-a", NUMBERS), ("--probe-b", NUMBERS))),
    _command(PROFILE + ["--count", "2"], _options(
        ("--graph", SPECS + PATHS), ("-k", NUMBERS), ("--count", NUMBERS), ("--seed", SEEDS),
        ("--probe-vertex", NUMBERS), ("--out", ["line.json", "empty"]))),
    st.tuples(st.sampled_from(PATHS), st.sampled_from(PATHS), st.sampled_from([[], ["--brute-force"]])).map(
        lambda t: ["dist", "lp", t[0], t[1], *t[2]]),
    st.tuples(*[st.sampled_from(["lines", "planes", "bad", "empty", "missing", "line.json"])] * 2).map(
        lambda t: ["dist", "hausdorff", *t]),
    st.sampled_from(SPECS + PATHS).map(lambda spec: ["limit", spec]),
)


class TestNoTraceback:
    @given(ARGVS)
    @settings(max_examples=150, deadline=None)
    def test_exit_0_or_usage_error(self, argv):
        """Whatever the fragments, main returns 0 or exits 2; a refused argv leaves no fresh --out."""
        line = json.dumps({"dim": 1, "atoms": [{"p": [0.5], "w": "1/1"}]})
        plane = json.dumps({"dim": 2, "atoms": [{"p": [0, 0], "w": "1/1"}]})
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            root = Path(tmp)
            for name, text in [("line.json", line), ("plane.json", plane), ("malformed.json", "{"),
                               ("lines/m.json", line), ("planes/m.json", plane), ("bad/m.json", "{")]:
                (root / name).parent.mkdir(exist_ok=True)
                (root / name).write_text(text)
            (root / "empty").mkdir()
            os.chdir(root)
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                assert not (root / "out").exists(), argv
            else:
                assert code == 0, argv
            finally:
                os.chdir(cwd)


class TestLimit:
    def test_broadcast_stdout(self, capsys):
        code, out = run(capsys, "limit", "broadcast:3:1")
        assert code == 0
        d = json.loads(out)
        assert d["matrix"] == [[0.0, 1.0, 0.0]] * 3

    def test_signed_to_file(self, capsys, tmp_path):
        # stdout is the one output: `actionlim limit SPEC > op.json` writes the file, which is a spec again
        path = tmp_path / "op.json"
        code, out = run(capsys, "limit", "signed:-:0:cycle:5")
        assert code == 0
        path.write_text(out)
        d = json.loads(path.read_text())
        assert d["n"] == 5
        assert d["matrix"][0][0] == -1.0
        assert run(capsys, "limit", str(path)) == (0, out)
        with pytest.raises(SystemExit) as exc:
            main(["limit", "signed:-:0:cycle:5", "--out", str(tmp_path / "other.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "other.json").exists()


class TestExperiment:
    def test_config_run(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("sizes=4 6\ncount=2\nK=1\n")
        outdir = tmp_path / "results"
        code, out = run(capsys, "--json", "experiment", "--config", str(cfg), "--out", str(outdir), "--set", "seed=3")
        assert code == 0
        assert json.loads(out)["out"] == str(outdir)
        rows = (outdir / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_apex_sweep_via_set(self, capsys, tmp_path):
        outdir = tmp_path / "apex"
        argv = ["--json", "experiment", "--out", str(outdir)]
        for item in (
            "graph_a=gplus:cycle:{n}", "graph_b=signed:+1:0:cycle:{n1}", "strategy=vertex_probe",
            "probe_a=last", "probe_b=0", "sizes=4", "count=2", "K=1",
        ):
            argv += ["--set", item]
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {"out": str(outdir)}
        report = json.loads((outdir / "report_n4.json").read_text())
        # the apex of gplus:cycle:4 is vertex 4; both operators act on 5 coordinates
        assert report["strategy"] == "vertex_probe:2:7:v4:g9|vertex_probe:2:7:v0:g9"
        assert (outdir / "trajectory.csv").read_text().splitlines()[1].startswith("4,")

    def test_empty_sizes_refused(self, capsys, tmp_path):
        # an empty sweep used to exit 0 with a header-only trajectory.csv
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--set", "sizes=", "--out", str(tmp_path / "none")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "actionlim experiment: error: config key 'sizes' is empty: an experiment needs at least one size")
        assert not (tmp_path / "none").exists()

    def test_bad_set_syntax(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--set", "sizes"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "actionlim experiment: error: argument --set: expected KEY=VALUE, got 'sizes'")


class TestReadme:
    def test_cli_examples_parse(self):
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
        lines = [line.strip() for b in blocks for line in b.replace("\\\n", " ").splitlines()]
        examples = [line for line in lines if line.startswith("actionlim ")]
        assert examples
        parser = build_parser()
        for line in examples:
            words = shlex.split(line, comments=True)[1:]
            if ">" in words:  # stdout redirection is the shell's, not the command's
                words = words[:words.index(">")]
            try:
                parser.parse_args(words)
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")
