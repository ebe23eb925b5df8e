"""In-process tests for the ``python -m repro`` CLI, plus subprocess
regression tests pinning the exit-code contract (success 0, command
failure 1, usage error 2)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.topology import random_topology

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def saved_topology(tmp_path):
    topo = random_topology(8, 3, 3, np.random.default_rng(0), permute_prob=0.5)
    topo.name = "cli-test"
    path = tmp_path / "topo.json"
    topo.save(path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_search_requires_window(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search"])


class TestInfo:
    def test_lists_pdks_and_windows(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "AMF" in out and "AIM" in out
        assert "[240, 300]" in out
        assert "Table 2" in out


class TestExport(object):
    def test_export_writes_netlist(self, saved_topology, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert main(["export", str(saved_topology), "--out", str(out)]) == 0
        report = capsys.readouterr().out
        assert out.exists()
        data = json.loads(out.read_text())
        assert data["k"] == 8
        assert "floorplan" in report
        assert "legend" in report

    def test_export_default_out_path(self, saved_topology, capsys):
        assert main(["export", str(saved_topology)]) == 0
        expected = saved_topology.with_suffix(".netlist.json")
        assert expected.exists()

    def test_export_aim_pdk(self, saved_topology, capsys):
        assert main(["export", str(saved_topology), "--pdk", "aim"]) == 0
        assert "AIM" in capsys.readouterr().out

    def test_export_svg(self, saved_topology, tmp_path, capsys):
        svg = tmp_path / "plan.svg"
        assert main(["export", str(saved_topology), "--svg", str(svg)]) == 0
        assert svg.exists()
        assert svg.read_text().startswith("<svg")


class TestRobustness:
    def test_sweep_prints_rows(self, saved_topology, capsys):
        rc = main(["robustness", str(saved_topology),
                   "--sigmas", "0.02", "0.1", "--n-trials", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.020" in out and "0.100" in out
        # Fidelity at mild noise must exceed fidelity at harsh noise.
        rows = [line.split() for line in out.splitlines()
                if line.strip().startswith("0.")]
        fid = {float(r[0]): float(r[1]) for r in rows}
        assert fid[0.02] > fid[0.1]


class TestBaselineSearch:
    def test_random_saves_feasible_topology(self, tmp_path, capsys):
        out = tmp_path / "best.json"
        rc = main(["baseline-search", "--method", "random", "--budget", "4",
                   "--f-min", "240", "--f-max", "300", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        report = capsys.readouterr().out
        assert "random search" in report
        data = json.loads(out.read_text())
        assert data["k"] == 8

    def test_evolutionary_runs(self, capsys):
        rc = main(["baseline-search", "--method", "evolutionary",
                   "--budget", "6", "--f-min", "240", "--f-max", "300"])
        assert rc == 0
        assert "evolutionary search" in capsys.readouterr().out


class TestEvaluate:
    def test_baseline_requires_k(self, capsys):
        rc = main(["evaluate", "mzi"])
        assert rc == 2
        assert "--k is required" in capsys.readouterr().err

    def test_evaluate_topology_fast(self, saved_topology, capsys, monkeypatch):
        # Shrink the budget so this runs in seconds.
        from repro.experiments import common

        rc = main(["evaluate", str(saved_topology), "--epochs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-test" in out and "%" in out


def _run_cli(*argv, cwd=None):
    """Invoke ``python -m repro`` as a real subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO_ROOT,
        timeout=120,
    )


class TestExitCodes:
    """Subprocess regression tests: failures must not exit 0."""

    def test_no_command_is_usage_error(self):
        proc = _run_cli()
        assert proc.returncode == 2

    def test_unknown_command_is_usage_error(self):
        proc = _run_cli("frobnicate")
        assert proc.returncode == 2

    def test_submit_without_root_is_usage_error(self):
        proc = _run_cli("submit", "evaluate")
        assert proc.returncode == 2
        assert "--root" in proc.stderr

    def test_unknown_job_kind_fails(self, tmp_path):
        proc = _run_cli("submit", "nope", "--root", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "unknown job kind" in proc.stderr

    def test_export_missing_file_fails(self, tmp_path):
        proc = _run_cli("export", str(tmp_path / "missing.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_export_corrupt_topology_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = _run_cli("export", str(bad))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_submit_invalid_params_json_fails(self, tmp_path):
        proc = _run_cli("submit", "evaluate", "--root", str(tmp_path),
                        "--params", "{broken")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_status_missing_job_fails(self, tmp_path):
        proc = _run_cli("status", "deadbeef", "--root", str(tmp_path))
        assert proc.returncode == 1
        assert "no such job" in proc.stderr

    def test_status_kinds_succeeds(self):
        proc = _run_cli("status", "--kinds")
        assert proc.returncode == 0
        listed = {line.split()[0] for line in proc.stdout.splitlines()
                  if line.strip()}
        assert {"robustness-grid", "campaign", "recalibrate"} <= listed
        # The Fig. 4/5 studies run as campaign cells; their per-study
        # job kinds are gone.
        assert not listed & {"fig4-part", "fig5a", "fig5b"}

    def test_info_succeeds(self):
        proc = _run_cli("info")
        assert proc.returncode == 0

    def test_chip_without_subcommand_is_usage_error(self):
        proc = _run_cli("chip")
        assert proc.returncode == 2
        assert "chip_command" in proc.stderr

    def test_chip_unknown_subcommand_is_usage_error(self):
        proc = _run_cli("chip", "frobnicate")
        assert proc.returncode == 2

    def test_chip_serve_missing_design_fails(self, tmp_path):
        proc = _run_cli("chip", "serve", "--design",
                        str(tmp_path / "missing.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_chip_bench_zero_requests_fails(self):
        proc = _run_cli("chip", "bench", "--requests", "0")
        assert proc.returncode == 1
        assert "error:" in proc.stderr


class TestLintCLI:
    """Subprocess tests pinning the ``repro lint`` exit contract."""

    BAD = 'with open("out.json", "w") as f:\n    f.write("{}")\n'

    def test_clean_tree_exits_zero(self):
        # The checked-in baseline grandfathers only RL009 findings
        # (the frozen pre-campaign sweep oracles).
        proc = _run_cli("lint", "src/repro", "--baseline", "lint-baseline.json")
        assert proc.returncode == 0
        assert "0 finding(s)" in proc.stdout
        assert "grandfathered" in proc.stdout

    def test_findings_exit_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        proc = _run_cli("lint", str(bad))
        assert proc.returncode == 1
        assert "RL005" in proc.stdout

    def test_unknown_format_is_usage_error(self):
        proc = _run_cli("lint", "--format", "xml", "src/repro")
        assert proc.returncode == 2

    def test_unknown_rule_fails(self):
        proc = _run_cli("lint", "--rules", "RL999", "src/repro")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "RL999" in proc.stderr

    def test_missing_path_fails(self, tmp_path):
        proc = _run_cli("lint", str(tmp_path / "nope"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_json_output_round_trips(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        proc = _run_cli("lint", "--format", "json", str(bad))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["n_findings"] == 1
        assert report["findings"][0]["rule"] == "RL005"
        assert report["findings"][0]["path"].endswith("bad.py")

    def test_list_rules(self):
        proc = _run_cli("lint", "--list-rules")
        assert proc.returncode == 0
        assert "RL001" in proc.stdout and "RL008" in proc.stdout

    def test_baseline_round_trip(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        baseline = tmp_path / "baseline.json"
        proc = _run_cli("lint", str(bad), "--write-baseline", str(baseline))
        assert proc.returncode == 0
        assert baseline.exists()
        proc = _run_cli("lint", str(bad), "--baseline", str(baseline))
        assert proc.returncode == 0
        assert "grandfathered" in proc.stdout


class TestCampaignCLI:
    """Subprocess tests for ``repro campaign run/status/report``."""

    @pytest.fixture()
    def spec_path(self, tmp_path):
        from repro.campaign.studies import fig5a_spec

        spec = fig5a_spec(k=4, n_blocks=2, steps=12,
                          rho0_values=(1e-7, 1e-6), seed=0,
                          name="cli-alm-scan")
        path = tmp_path / "campaign.json"
        spec.save(path)
        return path

    def test_run_inline_writes_artifacts(self, spec_path, tmp_path):
        out = tmp_path / "artifacts"
        proc = _run_cli("campaign", "run", str(spec_path), "--out", str(out))
        assert proc.returncode == 0
        assert "cli-alm-scan (alm-scan" in proc.stdout
        assert "2 cell(s)" in proc.stdout
        for name in ("campaign.json", "result.json", "cells.csv",
                     "report.md"):
            assert (out / name).exists()

    def test_status_before_run_is_an_error(self, spec_path, tmp_path):
        proc = _run_cli("campaign", "status", str(spec_path),
                        "--root", str(tmp_path / "svc"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "has not been submitted" in proc.stderr

    def test_sharded_run_status_report_round_trip(self, spec_path, tmp_path):
        root = tmp_path / "svc"
        inline_out = tmp_path / "inline"
        proc = _run_cli("campaign", "run", str(spec_path),
                        "--out", str(inline_out))
        assert proc.returncode == 0

        proc = _run_cli("campaign", "run", str(spec_path),
                        "--root", str(root), "--workers", "1")
        assert proc.returncode == 0
        proc = _run_cli("campaign", "status", str(spec_path),
                        "--root", str(root))
        assert proc.returncode == 0
        assert "done" in proc.stdout

        # `report` renders from the queue without recomputing, and the
        # artifacts match the inline run byte for byte.
        report_out = tmp_path / "from-service"
        proc = _run_cli("campaign", "report", str(spec_path),
                        "--root", str(root), "--out", str(report_out))
        assert proc.returncode == 0
        for path in sorted(inline_out.iterdir()):
            assert (report_out / path.name).read_bytes() == path.read_bytes()

    def test_invalid_spec_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        proc = _run_cli("campaign", "run", str(bad))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_unknown_kind_fails(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "kind": "no-such-kind", '
                       '"axes": {"a": [1]}}')
        proc = _run_cli("campaign", "run", str(bad))
        assert proc.returncode == 1
        assert "unknown campaign kind" in proc.stderr


class TestChipCommands:
    def test_bench_reports_speedup(self, capsys):
        rc = main(["chip", "bench", "--requests", "48", "--k", "6",
                   "--blocks", "3", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "micro-batching virtual-time speedup" in out
        assert "one-at-a-time" in out

    def test_serve_writes_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["chip", "serve", "--requests", "48", "--k", "6",
                   "--blocks", "3", "--seed", "2", "--drift-std", "0.05",
                   "--calib-steps", "30", "--window", "4",
                   "--out", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "calibrated" in out and "served 48 requests" in out
        report = json.loads(report_path.read_text())
        assert report["n_requests"] == 48
        assert len(report["fidelity_trace"]) == report["n_batches"]

    def test_serve_accepts_saved_topology(self, saved_topology, capsys):
        rc = main(["chip", "serve", "--design", str(saved_topology),
                   "--requests", "16", "--calib-steps", "10",
                   "--drift-std", "0.0"])
        assert rc == 0
        assert "served 16 requests" in capsys.readouterr().out


@pytest.fixture()
def cli_job_kind():
    """Register a tiny deterministic job kind for in-process CLI tests."""
    from repro.service import JobType, register_job_type

    def expand(params):
        return [{"v": v} for v in params["values"]]

    def run_shard(params, shard):
        if params.get("explode"):
            raise RuntimeError("boom")
        return {"doubled": shard["v"] * 2}

    def aggregate(params, results):
        return {"doubled": [r["doubled"] for r in results]}

    register_job_type(JobType(
        kind="cli-double",
        expand=expand,
        run_shard=run_shard,
        aggregate=aggregate,
        description="test kind",
    ))
    return "cli-double"


class TestServiceCommands:
    """In-process submit -> serve -> status round-trip."""

    def test_submit_serve_status(self, tmp_path, capsys, cli_job_kind):
        root = str(tmp_path / "svc")
        rc = main(["submit", cli_job_kind, "--root", root,
                   "--params", '{"values": [1, 2, 3]}'])
        assert rc == 0
        out = capsys.readouterr().out
        match = re.search(r"job ([0-9a-f]{32}) \((\d+) shards\)", out)
        assert match and match.group(2) == "3"
        job_id = match.group(1)

        # Idempotent resubmit: same params -> same content-addressed id.
        assert main(["submit", cli_job_kind, "--root", root,
                     "--params", '{"values": [1, 2, 3]}']) == 0
        assert job_id in capsys.readouterr().out

        assert main(["serve", "--root", root, "--workers", "0",
                     "--until-idle"]) == 0
        capsys.readouterr()

        assert main(["status", "--root", root]) == 0
        assert job_id in capsys.readouterr().out

        assert main(["status", job_id, "--root", root, "--result"]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert json.loads(out[out.index("{"):]) == {"doubled": [2, 4, 6]}

    def test_status_of_failed_job_exits_nonzero(
        self, tmp_path, capsys, cli_job_kind
    ):
        root = str(tmp_path / "svc")
        assert main(["submit", cli_job_kind, "--root", root, "--params",
                     '{"values": [1], "explode": true}']) == 0
        out = capsys.readouterr().out
        job_id = re.search(r"job ([0-9a-f]{32})", out).group(1)
        assert main(["serve", "--root", root, "--workers", "0",
                     "--until-idle", "--max-attempts", "1"]) == 0
        capsys.readouterr()
        assert main(["status", job_id, "--root", root]) == 1
        assert "failed" in capsys.readouterr().out

    def test_submit_conflicting_param_sources(self, tmp_path, capsys,
                                              cli_job_kind):
        pfile = tmp_path / "p.json"
        pfile.write_text('{"values": [1]}')
        rc = main(["submit", cli_job_kind, "--root", str(tmp_path),
                   "--params", "{}", "--params-file", str(pfile)])
        assert rc == 1
        assert "not both" in capsys.readouterr().err


class TestSearch:
    def test_search_tiny_budget(self, tmp_path, capsys):
        out = tmp_path / "searched.json"
        rc = main(["search", "--k", "8", "--f-min", "240", "--f-max", "300",
                   "--epochs", "2", "--n-train", "96", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        report = capsys.readouterr().out
        assert "saved" in report
        data = json.loads(out.read_text())
        assert data["k"] == 8
        assert len(data["blocks_u"]) >= 1
