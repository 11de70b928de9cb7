import json

import pytest

from actionlim import DiscreteMeasure
from actionlim.cli import main


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
        assert set(counts) == {"candidates", "bound_skips", "gap_skips", "pairs", "prunes", "exact",
                               "pushes", "augmentations", "rebuilds", "breakpoints"}
        assert counts["candidates"] == counts["bound_skips"] + counts["gap_skips"] + counts["pairs"]
        assert counts["pairs"] == counts["prunes"] + counts["exact"] > 0
        assert counts["rebuilds"] >= counts["pairs"]  # each pair builds its first tree

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
        with pytest.raises(ValueError, match="seed 9223372036854775808 "):
            main(["actiondist", "--a", "star:4", "--b", "broadcast:4:0", "--seed", str(2**63)])


class TestLimit:
    def test_broadcast_stdout(self, capsys):
        code, out = run(capsys, "limit", "broadcast", "--n", "3", "--i", "1")
        assert code == 0
        d = json.loads(out)
        assert d["matrix"] == [[0.0, 1.0, 0.0]] * 3

    def test_signed_to_file(self, capsys, tmp_path):
        path = tmp_path / "op.json"
        code, _ = run(capsys, "limit", "signed", "--graph", "cycle:5", "--i", "0", "--sign", "-", "--out", str(path))
        assert code == 0
        d = json.loads(path.read_text())
        assert d["n"] == 5
        assert d["matrix"][0][0] == -1.0


class TestExperiment:
    def test_config_run(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("sizes=4 6\ncount=2\nK=1\n")
        outdir = tmp_path / "results"
        code, out = run(capsys, "--json", "experiment", "--config", str(cfg), "--out", str(outdir), "--seed", "3")
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

    def test_bad_set_syntax(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "--set", "sizes"])
