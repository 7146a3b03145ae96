"""The service CLI surface (serve / jobs / catalog) and the
normalized flag conventions."""

import json

import pytest

from repro.cli import main
from repro.programs import tomcatv_source


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "tomcatv.hpf"
    path.write_text(tomcatv_source(n=10, niter=1, procs=2))
    return path


def _submit(program, tmp_path, *extra):
    service_dir = str(tmp_path / "svc")
    code = main([
        "jobs", "submit", str(program), "--procs", "2", "4",
        "--service-dir", service_dir, *extra,
    ])
    return code, service_dir


class TestJobsLifecycle:
    def test_submit_serve_status_watch(self, program, tmp_path, capsys):
        code, service_dir = _submit(program, tmp_path, "--name", "grid")
        assert code == 0
        assert "submitted job 1" in capsys.readouterr().out

        assert main(["serve", "--service-dir", service_dir, "--once"]) == 0
        assert "served 1 shard(s)" in capsys.readouterr().out

        assert main([
            "jobs", "status", "1", "--service-dir", service_dir, "--json",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema"] == "repro.result/2"
        assert record["kind"] == "job"
        assert record["state"] == "done" and record["done"] == 2

        assert main([
            "jobs", "watch", "1", "--service-dir", service_dir,
            "--timeout", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "submitted" in out and "done" in out

    def test_status_lists_all_jobs(self, program, tmp_path, capsys):
        _, service_dir = _submit(program, tmp_path)
        _submit(program, tmp_path)
        capsys.readouterr()
        assert main(["jobs", "status", "--service-dir", service_dir]) == 0
        out = capsys.readouterr().out
        assert out.count("queued") == 2

        assert main([
            "jobs", "status", "7", "--service-dir", service_dir,
        ]) == 1
        assert "no job 7" in capsys.readouterr().err

    def test_cancel(self, program, tmp_path, capsys):
        _, service_dir = _submit(program, tmp_path)
        assert main(["jobs", "cancel", "1", "--service-dir", service_dir]) == 0
        assert main(["jobs", "cancel", "1", "--service-dir", service_dir]) == 1
        capsys.readouterr()
        assert main([
            "jobs", "watch", "1", "--service-dir", service_dir,
            "--timeout", "5",
        ]) == 1  # terminal-but-not-done exits 1

    def test_submit_wait_runs_inline(self, program, tmp_path, capsys):
        code, _ = _submit(program, tmp_path, "--wait")
        assert code == 0
        out = capsys.readouterr().out
        assert "2 points" in out

    def test_submit_json_emits_job_record(self, program, tmp_path, capsys):
        code, _ = _submit(program, tmp_path, "--json")
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kind"] == "job" and record["points"] == 2


class TestCatalogCli:
    def test_ls_show_gc(self, program, tmp_path, capsys):
        _, service_dir = _submit(program, tmp_path, "--wait")
        capsys.readouterr()

        assert main([
            "catalog", "ls", "--service-dir", service_dir, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["results"]["entries"] == 2
        assert payload["stats"]["results"]["evaluations"] == 2
        point_key = next(
            row["point_key"]
            for row in payload["rows"]
            if row["table"] == "results"
        )

        assert main([
            "catalog", "show", point_key[:12],
            "--service-dir", service_dir, "--json",
        ]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["point_key"] == point_key
        assert record["record"]["schema"] == "repro.result/2"

        assert main([
            "catalog", "show", "ffffffff", "--service-dir", service_dir,
        ]) == 1
        capsys.readouterr()

        assert main([
            "catalog", "gc", "--dry-run", "--service-dir", service_dir,
        ]) == 0
        assert "would remove 0 orphan(s)" in capsys.readouterr().out


class TestFlagConventions:
    def test_measure_exec_canonical_and_aliases(self, program, capsys):
        assert main([
            "sweep", str(program), "--procs", "2",
            "--measure", "estimate", "--exec", "batched",
        ]) == 0
        assert "total" in capsys.readouterr().out
        # the old spellings are gone: argparse rejects them
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", str(program), "--procs", "2",
                "--sweep-mode", "estimate",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sweep-mode" in (
            capsys.readouterr().err
        )

    def test_hidden_aliases_not_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        help_text = capsys.readouterr().out
        assert "--measure" in help_text and "--exec" in help_text
        assert "--sweep-mode" not in help_text
        assert "--mode " not in help_text

    def test_json_out_writes_file(self, program, tmp_path, capsys):
        out = tmp_path / "results.json"
        assert main([
            "sweep", str(program), "--procs", "2",
            "--measure", "estimate", "--json", str(out),
        ]) == 0
        records = json.loads(out.read_text())
        assert records[0]["schema"] == "repro.result/2"
        assert records[0]["kind"] == "sweep-point"

    def test_run_json_record(self, program, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main([
            "run", str(program), "--procs", "2", "--json", str(out),
        ]) == 0
        record = json.loads(out.read_text())
        assert record["kind"] == "run" and record["ok"]
        assert "elapsed_s" in record and "canonical_stats" in record
