"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, render_parameters
from repro.version import package_version


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_experiments_documented(self):
        assert set(EXPERIMENTS) == {
            "E1", "E2", "E3", "E4", "F1", "F2", "F7", "F8", "F9", "F10",
            "O1", "O2", "R1", "R2", "T2",
        }


class TestServeParsers:
    def test_serve_subcommand_parses(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--jobs", "3", "--queue-limit", "5"]
        )
        assert args.port == 0 and args.jobs == 3 and args.queue_limit == 5

    def test_request_subcommand_parses(self):
        args = build_parser().parse_args(
            ["request", "simulate", "--design", "static", "--json"]
        )
        assert args.what == "simulate" and args.design == "static"

    def test_serve_cluster_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--workers", "4", "--shard-id", "shard-9",
             "--shared-cache", "/tmp/tier", "--cache", "/tmp/cache"]
        )
        assert args.workers == 4
        assert args.shard_id == "shard-9"
        assert args.shared_cache == "/tmp/tier"

    def test_serve_workers_must_be_positive(self, capsys):
        assert main(["serve", "--workers", "0", "--port", "0"]) == 2
        assert "--workers must be at least 1" in capsys.readouterr().err

    def test_serve_cluster_requires_the_store(self, capsys):
        assert main(["serve", "--workers", "2", "--no-cache",
                     "--port", "0"]) == 2
        assert "read-through tier" in capsys.readouterr().err

    def test_request_cluster_parses(self):
        args = build_parser().parse_args(["request", "cluster", "--json"])
        assert args.what == "cluster"

    def test_request_job_requires_id(self, capsys):
        assert main(["request", "job", "--json"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert "--id" in payload["error"]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {package_version()}"

    def test_package_dunder_matches(self):
        import repro

        assert repro.__version__ == package_version()

    @pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
    def test_pyproject_reads_the_one_version(self):
        import repro

        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        root = Path(repro.__file__).resolve().parents[2]
        config = pyprojecttoml.read_configuration(
            str(root / "pyproject.toml"), expand=True)
        assert config["project"]["version"] == repro.__version__
        assert not any(dep.startswith("networkx")
                       for dep in config["project"]["dependencies"])

    def test_import_leaves_networkx_out(self):
        """networkx is a test-only oracle, never a runtime import."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.cli; print('networkx' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert probe.stdout.strip() == "False"


class TestErrorContract:
    """Bad input: exit 2, and under ``--json`` one JSON line on stderr."""

    def test_json_error_is_single_line_on_stderr(self, capsys):
        assert main(["run", "F99", "--fast", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert "F99" in payload["error"]
        assert payload["version"] == package_version()

    def test_plain_error_goes_to_stderr(self, capsys):
        assert main(["run", "F99", "--fast"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")

    def test_simulate_unknown_workload(self, capsys):
        assert main(["simulate", "--workload", "nope", "--fast",
                     "--json"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert "nope" in payload["error"]

    def test_sweep_bad_width(self, capsys):
        assert main(["sweep", "--styles", "baseline", "--widths", "wide",
                     "--workloads", "uniform", "--fast", "--json"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert "width" in payload["error"]

    def test_sweep_unknown_style(self, capsys):
        assert main(["sweep", "--styles", "warp", "--widths", "16",
                     "--workloads", "uniform", "--fast"]) == 2
        assert "warp" in capsys.readouterr().err

    def test_campaign_unknown_spec(self, capsys, tmp_path):
        assert main(["campaign", "run", "--spec", "no-such-campaign",
                     "--dir", str(tmp_path / "c"),
                     "--cache", str(tmp_path / "cache"), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert "no-such-campaign" in payload["error"]
        assert payload["version"] == package_version()

    def test_campaign_invalid_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('styles = ["warp-drive"]\n')
        assert main(["campaign", "run", "--spec", str(path),
                     "--dir", str(tmp_path / "c"),
                     "--cache", str(tmp_path / "cache"), "--json"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert "warp-drive" in payload["error"]

    def test_campaign_report_without_manifest(self, capsys, tmp_path):
        assert main(["campaign", "report", "--spec", "smoke",
                     "--dir", str(tmp_path / "nowhere"), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err.strip())
        assert "no campaign manifest" in payload["error"]

    def test_campaign_status_plain_error(self, capsys, tmp_path):
        assert main(["campaign", "status", "--spec", "smoke",
                     "--dir", str(tmp_path / "nowhere")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestParams:
    def test_render_mentions_key_numbers(self):
        text = render_parameters()
        assert "10x10 mesh" in text
        assert "64 cores" in text
        assert "43 lines" in text
        assert "0.75 pJ/bit" in text

    def test_params_command(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "Network Simulation Parameters" in out


class TestFloorplan:
    @staticmethod
    def grid(out: str) -> str:
        return "\n".join(out.splitlines()[1:])  # drop the legend line

    def test_default_fifty_points(self, capsys):
        assert main(["floorplan"]) == 0
        grid = self.grid(capsys.readouterr().out)
        assert grid.count("*") == 50
        assert grid.count("M") == 4

    def test_custom_count(self, capsys):
        assert main(["floorplan", "--access-points", "25"]) == 0
        assert self.grid(capsys.readouterr().out).count("*") == 25


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out


class TestWorkloads:
    def test_characterizes_all(self, capsys):
        assert main(["workloads", "--cycles", "1500"]) == 0
        out = capsys.readouterr().out
        assert "1Hotspot" in out and "bodytrack" in out
        # The hotspot column reproduces the pattern definitions.
        for line in out.splitlines():
            if line.startswith("4Hotspot"):
                assert line.split()[-1] == "4"


class TestRun:
    def test_unknown_experiment(self, capsys):
        assert main(["run", "F99", "--fast"]) == 2

    def test_runs_f2_and_writes_file(self, tmp_path, capsys):
        assert main(["run", "F2", "--fast", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert (tmp_path / "f2.txt").exists()

    def test_runs_t2(self, capsys):
        assert main(["run", "T2", "--fast"]) == 0
        assert "Table 2" in capsys.readouterr().out


class TestSimulate:
    def test_baseline_cell(self, capsys):
        assert main([
            "simulate", "--design", "baseline", "--width", "16",
            "--workload", "uniform", "--fast",
        ]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "power" in out

    def test_trace_alias_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--help"])
        help_text = capsys.readouterr().out
        assert "--workload" in help_text
        assert "--trace " not in help_text and "--trace\n" not in help_text

    @pytest.mark.parametrize("argv", [
        ["simulate", "--trace", "x", "--fast"],
        ["sweep", "--traces", "x", "--fast"],
    ])
    def test_removed_aliases_are_refused(self, argv, tmp_path, monkeypatch):
        """No shim and no prefix match: argparse itself exits 2.

        With abbreviations allowed ``--trace x`` would silently become
        ``--trace-events x`` and write an event file named ``x``.
        """
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_heatmap_flag(self, capsys):
        assert main([
            "simulate", "--design", "baseline", "--workload", "1Hotspot",
            "--fast", "--heatmap",
        ]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 12  # report + 10-row heatmap

    def test_json_output(self, capsys):
        assert main([
            "simulate", "--design", "static", "--fast", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "static-16B"
        assert payload["avg_latency"] > 0
        assert len(payload["provenance"]) == 64

    def test_trace_events_emits_valid_jsonl(self, tmp_path, capsys):
        """Acceptance: traced events validate and reconcile with activity."""
        from repro.obs import read_jsonl

        path = tmp_path / "events.jsonl"
        assert main([
            "simulate", "--design", "static", "--fast",
            "--trace-events", str(path), "--json",
        ]) == 0
        events = read_jsonl(path)       # read_jsonl validates every event
        assert events
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_events"] == str(path)
        # Per-router flit counts sum to the ActivityCounts totals.
        per_router: dict[int, int] = {}
        for event in events:
            if event.kind in ("hop", "rf"):
                per_router[event.router] = per_router.get(event.router, 0) + 1
        import repro

        result = repro.simulate("static", "uniform", fast=True, metrics=False)
        activity = result.stats.activity
        assert sum(per_router.values()) == (
            activity.mesh_flit_hops + activity.rf_flits
        )

    def test_out_writes_full_result(self, tmp_path):
        out = tmp_path / "result.json"
        assert main([
            "simulate", "--design", "baseline", "--fast",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["design"] == "baseline-16B"
        assert "metrics" in payload


class TestJsonEverywhere:
    """Every subcommand honors ``--json``."""

    def test_params_json(self, capsys):
        assert main(["params", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["Topology"] == "10x10 mesh"
        assert payload["version"] == package_version()

    def test_floorplan_json(self, capsys):
        assert main(["floorplan", "--access-points", "25", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["access_points"]) == 25

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == set(EXPERIMENTS) | {"version"}

    def test_workloads_json(self, capsys):
        assert main(["workloads", "--cycles", "1000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == package_version()
        by_name = {row["workload"]: row for row in payload["items"]}
        assert by_name["4Hotspot"]["hotspots"] == 4

    def test_run_json(self, capsys):
        assert main(["run", "T2", "--fast", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T2"]["experiment"] == "T2"


class TestSweepCommand:
    def test_sweep_json(self, tmp_path, capsys):
        assert main([
            "sweep", "--styles", "baseline", "--widths", "16",
            "--workloads", "uniform", "--fast", "--json",
            "--cache", str(tmp_path / "cache"),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["jobs"] == 1
        job = payload["jobs"][0]
        assert job["result"]["design"] == "baseline-16B"
        assert job["result"]["provenance"] == job["digest"]

    def test_sweep_trace_events_dir(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main([
            "sweep", "--styles", "baseline", "--widths", "16",
            "--workloads", "uniform", "--fast", "--json",
            "--trace-events", str(trace_dir),
        ]) == 0
        assert len(list(trace_dir.glob("*.jsonl"))) == 1


class TestKernelsCommand:
    """``repro kernels list`` + the registry-driven ``--kernel`` choices."""

    def test_lists_registry_rows(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        # Exactly the two registered kernels, default marked and first.
        rows = [line.split("[")[0].split()
                for line in out.splitlines() if "[" in line]
        assert rows == [["*", "batch"], ["reference"]]

    def test_json_rows_match_registry(self, capsys):
        from repro.noc.kernel import list_kernels

        assert main(["kernels", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["items"] == list_kernels()
        assert [row["name"] for row in payload["items"]] == \
               ["batch", "reference"]

    def test_kernel_choices_track_registry(self):
        """Every registered kernel is accepted by ``--kernel``."""
        from repro.noc.kernel import list_kernels

        parser = build_parser()
        for row in list_kernels():
            args = parser.parse_args(
                ["simulate", "--kernel", row["name"], "--fast"])
            assert args.kernel == row["name"]
        with pytest.raises(SystemExit):
            parser.parse_args(["simulate", "--kernel", "warp"])
