import json
import re
import shutil
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from actionlim import GraphSpec, adjacency, broadcast, harness
from actionlim.harness import CLAIMS, ExperimentConfig, VerificationRecord, run_experiment, run_verify
from actionlim.operators import load_edge_list, parse_operator_spec


class TestOperatorSpecs:
    @pytest.mark.parametrize(
        "spec,n",
        [
            ("star:6", 6),
            ("cycle:5", 5),
            ("complete:4", 4),
            ("path:3", 3),
            ("empty:2", 2),
            ("gplus:cycle:4", 5),
            ("broadcast:5", 5),
            ("broadcast:5:2", 5),
            ("signed:+1:0:cycle:4", 4),
            ("signed:-:1:star:6", 6),
            ("er:10:0.3:1", 10),
        ],
    )
    def test_specs_parse(self, spec, n):
        assert parse_operator_spec(spec).n == n

    def test_broadcast_spec_column(self):
        op = parse_operator_spec("broadcast:5:2")
        assert np.array_equal(op.matrix, broadcast(5, 2).matrix)

    def test_signed_spec_matches_library(self):
        got = parse_operator_spec("signed:-1:1:cycle:4")
        base = adjacency(GraphSpec("cycle", 4))
        assert np.array_equal(got.matrix, base.matrix - broadcast(4, 1).matrix)

    @pytest.mark.parametrize("spec", ["hypercube:8", "er:10", "broadcast:5:2:9", "signed:+:0",
                                      "star:5:3", "star:", "broadcast:0", "edge_list:5", "erdos_renyi:5",
                                      "cycle:2", "er:5:x", "er:5:1.5", "signed:+:9:cycle:4",
                                      "no_matrix.json", "list.json", "bad_weights.json", "missing_op.json",
                                      # an 8 EiB matrix, which numpy refuses at once with a MemoryError
                                      "gplus:cycle:1000000000"])
    def test_bad_spec_raises(self, spec, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "no_matrix.json").write_text('{"n": 2}')
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "bad_weights.json").write_text('{"matrix": [[1]], "weights": 5}')
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            parse_operator_spec(spec)

    def test_operator_json_round_trip(self, tmp_path):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(adjacency(GraphSpec("star", 5)).to_dict()))
        assert parse_operator_spec(str(path)).n == 5

    def test_edge_list_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# triangle plus pendant\n0 1\n1 2\n2 0\n2 3\n")
        spec = load_edge_list(path)
        assert spec.n == 4
        A = adjacency(spec)
        assert A.matrix.sum() == 8.0
        assert np.array_equal(parse_operator_spec(f"edgelist:{path}").matrix, A.matrix)

    def test_edge_list_malformed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="malformed"):
            load_edge_list(path)


class TestVerify:
    def test_single_suite_passes(self):
        records = run_verify("norms")
        assert records
        assert all(r.passed is True for r in records)

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_verify("nope")

    def test_claims_registry(self, monkeypatch):
        assert [c.number for c in CLAIMS] == list(range(1, 12))
        assert len({c.suite for c in CLAIMS}) == len(CLAIMS)
        # stub runners that report which suite ran, so dispatch is checked without the cost
        stubs = tuple(replace(c, run=lambda s=c.suite: [VerificationRecord(s, "", "", "", True)]) for c in CLAIMS)
        monkeypatch.setattr(harness, "CLAIMS", stubs)
        for c in CLAIMS:
            assert [r.id for r in run_verify(c.suite)] == [c.suite]

    def test_records_written_as_json_lines(self):
        lines = [json.dumps(r.to_dict()) for r in run_verify("self_adjoint")]
        assert len(lines) >= 2
        rec = json.loads(lines[0])
        assert set(rec) == {"id", "anchor", "expected", "measured", "pass"}
        # no timings: a rerun gives the same lines
        assert [json.dumps(r.to_dict()) for r in run_verify("self_adjoint")] == lines

    def test_numpy_verdict_stored_as_bool(self):
        rec = VerificationRecord("x", "", "", "", np.float64(1.0) > 0)
        assert rec.passed is True
        assert json.loads(json.dumps(rec.to_dict()))["pass"] is True


class TestExperiment:
    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("# comment\nsizes = 4, 6\ncount = 2\nseed = 5\n")
        cfg = ExperimentConfig.from_file(cfg_path, {"count": "3"})
        assert cfg.sizes == (4, 6)
        assert cfg.count == 3
        assert cfg.seed == 5

    def test_repeated_size_refused(self):
        # each size writes its own report_n{size}.json and trajectory row
        with pytest.raises(ValueError, match="'sizes' repeats size 4"):
            ExperimentConfig.from_mapping({"sizes": "4 8 4"})

    def test_shared_configs_frozen(self):
        with pytest.raises(FrozenInstanceError):
            harness.STAR.sizes = (4,)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_mapping({"wat": "1"})

    @pytest.mark.parametrize("key, value", [("sizes", "4 x"), ("K", "x"), ("count", "2.5"), ("seed", "")])
    def test_non_integer_value_named(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' needs integers, got '{value}'"):
            ExperimentConfig.from_mapping({key: value})

    @pytest.mark.parametrize("cfg", [harness.STAR, harness.APEX], ids=["star", "apex"])
    def test_config_reads_back_its_own_dict(self, cfg):
        assert ExperimentConfig.from_mapping(cfg.to_dict()) == cfg

    def test_manifest_config_replays(self, tmp_path):
        cfg = ExperimentConfig(sizes=(4, 6), K=1, count=2, seed=3, out=str(tmp_path / "m"))
        manifest = json.loads((run_experiment(cfg) / "manifest.json").read_text())
        assert ExperimentConfig.from_mapping(manifest["config"]) == cfg

    @pytest.mark.parametrize("key, value, refused", [
        ("seed", 1.5, "config key 'seed' must be an integer, got 1.5"),
        ("K", 2.9, "config key 'K' must be an integer, got 2.9"),
        ("count", True, "config key 'count' must be an integer, got True"),
        ("sizes", [8, 32.0], "config key 'sizes' entry 1 must be an integer, got 32.0"),
        ("sizes", (8, False), "config key 'sizes' entry 1 must be an integer, got False"),
        ("sizes", 8.0, "config key 'sizes' must be an integer, got 8.0"),
    ])
    def test_non_string_non_integer_refused_by_key(self, key, value, refused):
        # JSON floats and bools were truncated by int(): seed 1.5 ran as seed 1
        with pytest.raises(ValueError, match=re.escape(refused)):
            ExperimentConfig.from_mapping({key: value})

    def test_non_string_integers_taken_at_their_value(self):
        cfg = ExperimentConfig.from_mapping({"sizes": [4, np.int64(6)], "K": np.int32(2), "count": 5, "seed": 9})
        assert (cfg.sizes, cfg.K, cfg.count, cfg.seed) == ((4, 6), 2, 5, 9)
        assert ExperimentConfig.from_mapping({"sizes": 8}).sizes == (8,)

    @pytest.mark.parametrize("probe", [1.7, True, 1.0])
    def test_non_string_probe_read_as_an_integer(self, probe):
        # int() probed vertex 1 for 1.7 and for True
        with pytest.raises(ValueError, match=re.escape(f"probe must be an integer, got {probe!r}")):
            harness._strategy_for(harness.STAR, parse_operator_spec("star:5"), probe)
        assert harness._strategy_for(harness.STAR, parse_operator_spec("star:5"), np.int64(2)).probe_vertex == 2

    def test_bad_probe_named(self, tmp_path):
        cfg = ExperimentConfig(sizes=(4,), K=1, count=2, probe_a="x", out=str(tmp_path / "p"))
        with pytest.raises(ValueError, match="probe 'x' must be a vertex index or 'last'"):
            run_experiment(cfg)

    def test_failed_size_writes_nothing(self, tmp_path):
        # cycle:2 fails only at the second size: every size is computed before the directory is made
        cfg = ExperimentConfig(graph_a="cycle:{n}", sizes=(4, 2), K=1, count=2, out=str(tmp_path / "never"))
        with pytest.raises(ValueError, match="cycle requires n >= 3"):
            run_experiment(cfg)
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("template", ["star:{m}", "star:{n:x}", "star:{n!r}", "star:{}", "star:{n[0]}",
                                          "star:{n", "star:}"])
    @pytest.mark.parametrize("key", ["graph_a", "graph_b"])
    def test_template_fields_other_than_n_and_n1_refused(self, key, template):
        # {n:x} and {n!r} would format without error and build an operator of the wrong size
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(**{key: template})
        assert str(exc.value) == f"config key {key!r} may use only the tokens {{n}} and {{n1}}, got {template!r}"

    def test_template_refused_from_a_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("graph_a=star:{m}\n")
        with pytest.raises(ValueError, match="config key 'graph_a' may use only the tokens"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize("template", ["star:{n}", "broadcast:{n}:0", "gplus:cycle:{n}", "signed:+1:0:cycle:{n1}",
                                          "star:8", "{n}{n1}"])
    def test_templates_in_use_accepted(self, template):
        # the STAR and APEX templates, which README and perfbench use too, a fixed spec, and both tokens
        assert ExperimentConfig(graph_a=template, graph_b=template).graph_b == template

    def test_run_and_replay_identical(self, tmp_path):
        cfg = ExperimentConfig(sizes=(4, 8), K=2, count=2, seed=1, out=str(tmp_path / "a"))
        outdir = run_experiment(cfg)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["sizes"] == [4, 8]
        files = ["manifest.json"] + manifest["files"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(files)
        first = {name: (outdir / name).read_bytes() for name in files}
        shutil.rmtree(outdir)
        run_experiment(cfg)
        assert {name: (outdir / name).read_bytes() for name in files} == first

    def test_probe_template_experiment(self, tmp_path):
        cfg = ExperimentConfig(
            graph_a="gplus:cycle:{n}",
            graph_b="signed:+1:0:cycle:{n1}",
            sizes=(4,),
            K=1,
            count=3,
            seed=1,
            strategy="vertex_probe",
            probe_a="last",
            probe_b="0",
            out=str(tmp_path / "b"),
        )
        outdir = run_experiment(cfg)
        rows = (outdir / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "n,action_distance,norm_a,norm_b"
        assert rows[1].startswith("4,")
