"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        assert list(sub.choices) == [
            "info", "query", "serve", "cluster", "client", "trace",
            "table1", "sessions", "incremental", "obsbench", "ablate",
            "frontier", "workload",
        ]

    @pytest.mark.parametrize("retired", [
        "scaling", "granularity", "root", "primitives", "overhead",
        "heuristics",
    ])
    def test_retired_subcommands_are_parse_errors(self, retired):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([retired])
        assert exc.value.code == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.threads == "1,2,4,8"
        assert args.cases is None
        assert args.networks is None
        assert args.out == "BENCH_table1.json"

    def test_invalid_network_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--networks", "alarm", "--out", ""])
        assert "unknown networks ['alarm']" in str(excinfo.value)

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7421
        assert args.max_batch == 64
        # The flush timer is gone: max_batch is the batcher's one flag.
        assert not [name for name in vars(args) if "wait" in name]
        for command in ("serve", "cluster"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--max-wait-ms", "2"])
        assert args.mode == "seq"

    @pytest.mark.parametrize("command", [["query", "asia"], ["serve"]])
    @pytest.mark.parametrize("flag,value", [
        ("--mode", "warp"), ("--backend", "gpu"), ("--backend", "process"),
    ])
    def test_unknown_mode_or_backend_is_a_parse_error(self, capsys, command,
                                                      flag, value):
        from repro.core.config import BACKENDS, MODES

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: invalid choice: '{value}'" in err
        for accepted in (MODES if flag == "--mode" else BACKENDS):
            assert f"'{accepted}'" in err

    @pytest.mark.parametrize("command", [["query", "asia"], ["serve"]])
    def test_every_mode_and_backend_parses(self, command):
        from repro.core.config import BACKENDS, MODES

        for mode in MODES:
            for backend in BACKENDS:
                args = build_parser().parse_args(
                    [*command, "--mode", mode, "--backend", backend])
                assert (args.mode, args.backend) == (mode, backend)

    def test_client_defaults(self):
        args = build_parser().parse_args(["client", "asia"])
        assert args.op == "query"
        assert args.port == 7421
        assert not args.json
        # health/stats need no network argument
        args = build_parser().parse_args(["client", "--op", "health"])
        assert args.network is None

    def test_serve_sessions_flag(self):
        """Sessions have no mode switch: what a session holds follows from
        the model's engine, so ``serve`` takes no ``--sessions``."""
        assert not hasattr(build_parser().parse_args(["serve"]), "sessions")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--sessions", "cold"])

    def test_obsbench_defaults(self):
        args = build_parser().parse_args(["obsbench"])
        assert args.network == "asia"
        assert args.requests == 100
        assert args.repeats == 24
        assert args.out == "BENCH_obs.json"

    def test_workload_defaults(self):
        args = build_parser().parse_args(["workload"])
        assert args.seed == 2023
        assert args.requests == 240
        assert args.out == "traffic.json"
        assert not args.record
        assert args.pace == 0.0

    def test_ablate_defaults(self):
        args = build_parser().parse_args(["ablate"])
        assert args.trace == ""
        assert args.repeats == 3
        assert args.concurrency == 8
        assert args.out == "BENCH_ablation.json"

    def test_workload_bad_mix_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["workload", "--mix", "zipf", "--out", ""])
        assert "stream=fraction" in str(excinfo.value)
        with pytest.raises(SystemExit) as excinfo:
            main(["workload", "--mix", "zipf=lots", "--out", ""])
        assert "bad mix fraction" in str(excinfo.value)

    def test_ablate_unknown_component_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["ablate", "--components", "telepathy", "--out", ""])
        assert "unknown components" in str(excinfo.value)

    def test_workload_bad_dense_grid_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["workload", "--dense-grid", "big", "--out", ""])
        assert "ROWSxCOLS" in str(excinfo.value)

    def test_workload_per_stream_networks(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        rc = main(["workload", "--seed", "5", "--requests", "20",
                   "--zipf-network", "cancer", "--dense-grid", "4x4x2",
                   "--mix", "zipf=0.5,dense=0.5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["networks"]["cancer"] == {"kind": "named",
                                                 "name": "cancer"}
        assert payload["networks"]["dense"]["rows"] == 4

    def test_workload_generates_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        rc = main(["workload", "--seed", "3", "--requests", "12",
                   "--mix", "zipf=0.6,session=0.4", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "fastbni-traffic-v1"
        assert len(payload["events"]) == 12
        assert "mix:" in capsys.readouterr().out

    def test_ablate_smoke(self, capsys, tmp_path):
        out = tmp_path / "ablation.json"
        rc = main(["ablate", "--seed", "3", "--requests", "16",
                   "--repeats", "1", "--concurrency", "2",
                   "--mix", "zipf=0.6,session=0.4",
                   "--components", "cache", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "fastbni-bench-ablation-v1"
        assert [r["component"] for r in payload["components"]] == ["cache"]
        agree = payload["components"][0]["agreement"]
        assert agree["checked"] > 0
        assert agree["max_abs_diff"] <= 1e-9
        assert "x-off" in capsys.readouterr().out


class TestCommands:
    def test_info_bundled(self, capsys):
        assert main(["info", "asia"]) == 0
        out = capsys.readouterr().out
        assert "8 nodes" in out
        assert "num_cliques" in out

    def test_info_analog(self, capsys):
        assert main(["info", "hailfinder"]) == 0
        assert "56 nodes" in capsys.readouterr().out

    def test_query_with_evidence(self, capsys):
        rc = main([
            "query", "asia",
            "--evidence", json.dumps({"smoke": "yes"}),
            "--targets", "lung",
            "--mode", "seq", "--workers", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P(lung | e)" in out
        assert "log P(e)" in out

    def test_query_parallel_mode(self, capsys):
        rc = main(["query", "sprinkler", "--evidence", '{"WetGrass": "yes"}',
                   "--targets", "Rain", "--workers", "2"])
        assert rc == 0
        assert "P(Rain | e)" in capsys.readouterr().out

    def test_query_soft_evidence_end_to_end(self, capsys):
        """A list value in --evidence is a likelihood vector (soft evidence)."""
        from repro.bn.datasets import load_dataset
        from repro.core import FastBNI

        rc = main([
            "query", "asia",
            "--evidence", json.dumps({"smoke": "yes", "xray": [0.7, 0.3]}),
            "--targets", "lung",
            "--mode", "seq", "--workers", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        with FastBNI(load_dataset("asia"), mode="seq") as engine:
            want = engine.infer({"smoke": "yes"},
                                soft_evidence={"xray": [0.7, 0.3]})
        assert f"yes={want.posteriors['lung'][0]:.4f}" in out
        assert f"{want.log_evidence:.6f}" in out

    def test_query_malformed_likelihood_reports_clearly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "asia",
                  "--evidence", '{"xray": [0.7]}',
                  "--mode", "seq", "--workers", "1"])
        message = str(excinfo.value)
        assert "error" in message
        assert "likelihood" in message and "xray" in message

    def test_query_bad_evidence_type_reports_clearly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "asia",
                  "--evidence", '{"xray": 1.5}',
                  "--mode", "seq", "--workers", "1"])
        assert "likelihood vector" in str(excinfo.value)

    def test_query_invalid_json_reports_clearly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "asia", "--evidence", "{not json",
                  "--mode", "seq", "--workers", "1"])
        assert "not valid JSON" in str(excinfo.value)

    def test_query_non_object_evidence_reports_clearly(self):
        for bad in ('"yes"', "42", '["smoke"]'):
            with pytest.raises(SystemExit) as excinfo:
                main(["query", "asia", "--evidence", bad,
                      "--mode", "seq", "--workers", "1"])
            assert "must be a JSON object" in str(excinfo.value)

    def test_query_accepts_bif_path(self, capsys, tmp_path):
        """Local query/info resolve .bif paths, same as the service."""
        from repro.bn import io_bif
        from repro.bn.datasets import load_dataset

        path = tmp_path / "asia_copy.bif"
        io_bif.dump(load_dataset("asia"), path)
        rc = main(["query", str(path), "--evidence", '{"smoke": "yes"}',
                   "--targets", "lung", "--mode", "seq", "--workers", "1"])
        assert rc == 0
        assert "P(lung | e)" in capsys.readouterr().out

    def test_unknown_network_reports_clearly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["info", "not-a-network"])
        assert "unknown network" in str(excinfo.value)

    def test_query_batch_with_soft_evidence_falls_back(self, capsys):
        """A batched evidence list may mix hard and soft cases."""
        rc = main([
            "query", "asia",
            "--evidence", json.dumps([
                {"smoke": "yes"},
                {"smoke": "no", "xray": [0.7, 0.3]},
            ]),
            "--targets", "lung",
            "--mode", "seq", "--workers", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "batched 2 cases" in out
        assert "per-case fallback" in out
        assert "case 1" in out
