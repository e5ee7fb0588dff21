"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.core.backends.registry import resolve_backend_name


def run_cli(args: list[str]) -> tuple[int, str]:
    """Run the CLI with captured stdout."""
    buffer = io.StringIO()
    code = main(args, out=buffer)
    return code, buffer.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestInfo:
    def test_reports_thresholds_and_regime(self):
        code, output = run_cli(["info", "--tau", "0.45", "--horizon", "2"])
        assert code == 0
        assert "tau1" in output
        assert "exponential_monochromatic" in output
        assert "a(tau)" in output
        assert "unhappy probability" in output

    def test_closed_form_values(self):
        code, output = run_cli(["info", "--tau", "0.45", "--horizon", "3"])
        assert code == 0
        lines = [line.strip() for line in output.splitlines()]
        assert "tau1 = 0.432997   tau2 = 0.343750" in lines
        assert "threshold 23/49, exact initial unhappy probability 0.235440" in output

    def test_static_tau_omits_exponents(self):
        code, output = run_cli(["info", "--tau", "0.1"])
        assert code == 0
        assert "static" in output
        assert "a(tau)" not in output


class TestSimulate:
    def test_runs_and_reports_metrics(self, tmp_path):
        csv_path = tmp_path / "run.csv"
        code, output = run_cli(
            [
                "simulate",
                "--side", "30",
                "--horizon", "2",
                "--tau", "0.45",
                "--seed", "3",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert "terminated=True" in output
        assert "final_local_homogeneity" in output
        assert csv_path.exists()

    def test_ascii_rendering(self):
        code, output = run_cli(
            ["simulate", "--side", "24", "--horizon", "1", "--tau", "0.4", "--ascii"]
        )
        assert code == 0
        assert "#" in output or "." in output

    def test_max_flips_budget(self):
        code, output = run_cli(
            [
                "simulate",
                "--side", "30",
                "--horizon", "2",
                "--tau", "0.45",
                "--max-flips", "5",
            ]
        )
        assert code == 0
        assert "flips=5" in output
        assert "terminated=False" in output


class TestSimulateVariants:
    BASE_ARGS = [
        "simulate",
        "--side", "20",
        "--horizon", "1",
        "--tau", "0.4",
        "--seed", "2",
    ]

    def test_two_sided_variant_runs_with_max_steps(self):
        code, output = run_cli(
            self.BASE_ARGS + ["--variant", "two-sided", "--max-steps", "50"]
        )
        assert code == 0
        assert "variant=two_sided[tau_high=0.8000]" in output
        # A 50-step budget cannot exhaust a 400-site grid's unhappiness:
        # the flag must report the honest outcome.
        assert "terminated=False" in output

    def test_variant_gets_default_step_budget(self):
        # No --max-steps: the CLI must cap the non-terminating variants
        # itself instead of hanging.
        code, output = run_cli(self.BASE_ARGS + ["--variant", "two-sided"])
        assert code == 0
        assert "terminated=" in output

    def test_asymmetric_variant_runs(self):
        code, output = run_cli(
            self.BASE_ARGS + ["--variant", "asymmetric", "--tau-minus", "0.3"]
        )
        assert code == 0
        assert "variant=asymmetric[tau_minus=0.3000]" in output

    def test_base_variant_unbudgeted_run_reports_termination(self):
        code, output = run_cli(self.BASE_ARGS)
        assert code == 0
        assert "terminated=True" in output

    def test_inapplicable_variant_parameter_rejected(self):
        # Exactly the sweep subcommand's rejection rules.
        code, _ = run_cli(self.BASE_ARGS + ["--tau-high", "0.9"])
        assert code == 2
        code, _ = run_cli(
            self.BASE_ARGS + ["--variant", "asymmetric", "--tau-high", "0.9"]
        )
        assert code == 2
        code, _ = run_cli(
            self.BASE_ARGS + ["--variant", "two-sided", "--tau-minus", "0.2"]
        )
        assert code == 2

    def test_tau_high_below_tau_rejected(self):
        code, _ = run_cli(
            self.BASE_ARGS + ["--variant", "two-sided", "--tau-high", "0.3"]
        )
        assert code == 2

    def test_invalid_tau_high_rejected(self):
        code, _ = run_cli(
            self.BASE_ARGS + ["--variant", "two-sided", "--tau-high", "1.4"]
        )
        assert code == 2

    def test_nonpositive_max_steps_rejected(self):
        code, _ = run_cli(self.BASE_ARGS + ["--max-steps", "0"])
        assert code == 2


class TestSweep:
    def test_sweep_with_explicit_taus(self, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, output = run_cli(
            [
                "sweep",
                "--horizon", "1",
                "--taus", "0.35,0.45",
                "--replicates", "2",
                "--side", "24",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        assert "0.35" in output and "0.45" in output
        assert csv_path.exists()
        assert csv_path.read_text().count("\n") >= 3

    def test_bad_taus_returns_error_code(self):
        code, _ = run_cli(["sweep", "--taus", "0.4,banana", "--horizon", "1"])
        assert code == 2

    def test_workers_and_ensemble_flags(self):
        code, output = run_cli(
            [
                "sweep",
                "--horizon", "1",
                "--taus", "0.4,0.45",
                "--replicates", "2",
                "--side", "20",
                "--workers", "2",
                "--ensemble", "2",
            ]
        )
        assert code == 0
        assert "workers=2, ensemble=2" in output
        assert "0.45" in output

    def test_execution_flags_match_serial_aggregates(self, tmp_path):
        """The vectorized/parallel path writes the same aggregates as serial."""
        args = [
            "sweep",
            "--horizon", "1",
            "--taus", "0.4",
            "--replicates", "2",
            "--side", "20",
        ]
        serial_csv = tmp_path / "serial.csv"
        fast_csv = tmp_path / "fast.csv"
        code, _ = run_cli(args + ["--csv", str(serial_csv)])
        assert code == 0
        code, _ = run_cli(
            args + ["--csv", str(fast_csv), "--workers", "2", "--ensemble", "2"]
        )
        assert code == 0
        assert serial_csv.read_text() == fast_csv.read_text()

    def test_nonpositive_workers_rejected(self):
        code, _ = run_cli(
            ["sweep", "--taus", "0.4", "--horizon", "1", "--side", "20", "--workers", "0"]
        )
        assert code == 2


class TestBackendSelection:
    """An unknown backend fails cleanly, whether named by flag or env var."""

    COMMANDS = {
        "simulate": ["simulate", "--side", "10", "--horizon", "1"],
        "sweep": [
            "sweep", "--side", "10", "--horizon", "1", "--taus", "0.4",
            "--replicates", "1", "--ensemble", "2",
        ],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unknown_env_backend_exits_two(self, command, monkeypatch, capsys):
        # numba was a backend once; the registry no longer knows the name.
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        code, output = run_cli(self.COMMANDS[command])
        assert code == 2
        assert output == ""
        err = capsys.readouterr().err
        assert "error: unknown backend 'numba'" in err
        assert "known backends: auto, numpy, cffi" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unknown_backend_flag_rejected_by_parser(self, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(self.COMMANDS[command] + ["--backend", "numba"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("backend", ["numpy", "cffi"])
    def test_known_env_backend_runs(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        code, output = run_cli(self.COMMANDS["simulate"])
        assert code == 0
        assert f"Backend: {resolve_backend_name(backend)}" in output

    @pytest.mark.parametrize("backend", ["numpy", "cffi"])
    def test_pinned_simulate_matches_scalar_run(self, backend):
        # A pinned backend routes simulate through a one-replica ensemble;
        # apart from naming the backend, its report is the scalar run's.
        args = self.COMMANDS["simulate"] + ["--seed", "5"]
        code, scalar = run_cli(args)
        assert code == 0
        code, pinned = run_cli(args + ["--backend", backend])
        assert code == 0
        lines = pinned.splitlines()
        assert f"Backend: {resolve_backend_name(backend)}" in lines
        lines.remove(f"Backend: {resolve_backend_name(backend)}")
        assert lines == scalar.splitlines()

    @pytest.mark.parametrize("backend", ["numpy", "cffi"])
    def test_pinned_sweep_csv_matches_scalar_sweep(self, backend, tmp_path):
        args = [
            "sweep", "--side", "10", "--horizon", "1", "--taus", "0.4,0.45",
            "--replicates", "3", "--seed", "4",
        ]
        scalar_csv = tmp_path / "scalar.csv"
        pinned_csv = tmp_path / "pinned.csv"
        code, _ = run_cli(args + ["--csv", str(scalar_csv)])
        assert code == 0
        code, _ = run_cli(
            args
            + ["--ensemble", "3", "--backend", backend, "--csv", str(pinned_csv)]
        )
        assert code == 0
        assert pinned_csv.read_bytes() == scalar_csv.read_bytes()


class TestSweepTrajectory:
    def test_record_trajectory_adds_aggregated_columns(self):
        code, output = run_cli(
            [
                "sweep",
                "--horizon",
                "1",
                "--taus",
                "0.4",
                "--replicates",
                "2",
                "--side",
                "12",
                "--record-trajectory",
            ]
        )
        assert code == 0
        assert "traj_energy_gain_mean" in output
        assert "traj_energy_monotone_mean" in output

    def test_invalid_record_every_rejected(self):
        code, _ = run_cli(
            ["sweep", "--taus", "0.4", "--record-every", "0"]
        )
        assert code == 2


class TestSweepVariants:
    BASE_ARGS = [
        "sweep",
        "--horizon", "1",
        "--taus", "0.4,0.45",
        "--replicates", "2",
        "--side", "20",
    ]

    def test_two_sided_variant_runs_with_default_budget(self):
        code, output = run_cli(
            self.BASE_ARGS + ["--variant", "two-sided", "--tau-high", "0.8"]
        )
        assert code == 0
        assert "variant=two_sided[tau_high=0.8000]" in output

    def test_asymmetric_variant_runs(self):
        code, output = run_cli(
            self.BASE_ARGS + ["--variant", "asymmetric", "--tau-minus", "0.3"]
        )
        assert code == 0
        assert "variant=asymmetric[tau_minus=0.3000]" in output

    def test_variant_flags_compose_with_execution_flags(self, tmp_path):
        """Variant sweeps produce identical aggregates on every engine."""
        args = self.BASE_ARGS + ["--variant", "asymmetric", "--tau-minus", "0.3"]
        serial_csv = tmp_path / "serial.csv"
        fast_csv = tmp_path / "fast.csv"
        code, _ = run_cli(args + ["--csv", str(serial_csv)])
        assert code == 0
        code, _ = run_cli(
            args + ["--csv", str(fast_csv), "--workers", "2", "--ensemble", "2"]
        )
        assert code == 0
        assert serial_csv.read_text() == fast_csv.read_text()

    def test_tau_high_below_swept_taus_rejected(self):
        code, _ = run_cli(
            self.BASE_ARGS + ["--variant", "two-sided", "--tau-high", "0.3"]
        )
        assert code == 2

    def test_invalid_tau_high_rejected(self):
        code, _ = run_cli(
            self.BASE_ARGS + ["--variant", "two-sided", "--tau-high", "1.4"]
        )
        assert code == 2

    def test_nonpositive_max_steps_rejected(self):
        code, _ = run_cli(self.BASE_ARGS + ["--max-steps", "0"])
        assert code == 2

    def test_inapplicable_variant_parameter_rejected(self):
        # Passing the wrong variant's knob is a mistake, not a no-op.
        code, _ = run_cli(
            self.BASE_ARGS + ["--variant", "asymmetric", "--tau-high", "0.9"]
        )
        assert code == 2
        code, _ = run_cli(
            self.BASE_ARGS + ["--variant", "two-sided", "--tau-minus", "0.2"]
        )
        assert code == 2
        code, _ = run_cli(self.BASE_ARGS + ["--tau-high", "0.9"])
        assert code == 2

    def test_variant_defaults_apply_without_explicit_parameters(self):
        code, output = run_cli(self.BASE_ARGS + ["--variant", "two-sided"])
        assert code == 0
        assert "variant=two_sided[tau_high=0.8000]" in output
        code, output = run_cli(self.BASE_ARGS + ["--variant", "asymmetric"])
        assert code == 0
        assert "variant=asymmetric[tau_minus=0.3000]" in output

    def test_unknown_variant_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--variant", "sideways"])


class TestCheckpointCommand:
    """``repro checkpoint verify|repair`` audit and repair sweep stores."""

    def _make_store(self, tmp_path):
        from repro.core.config import ModelConfig
        from repro.experiments.parallel import run_sweep_parallel
        from repro.experiments.spec import SweepSpec

        sweep = SweepSpec(
            name="cli-store",
            base_config=ModelConfig.square(side=10, horizon=1, tau=0.3),
            taus=[0.3, 0.4],
            n_replicates=1,
            seed=5,
        )
        directory = tmp_path / "store"
        run_sweep_parallel(sweep, workers=1, checkpoint_dir=directory)
        return directory

    def test_verify_healthy_store_exits_zero_with_json_report(self, tmp_path):
        import json

        directory = self._make_store(tmp_path)
        code, output = run_cli(["checkpoint", "verify", str(directory)])
        assert code == 0
        report = json.loads(output)
        assert report["ok"] is True
        assert report["records"]["valid"] == 2

    def test_verify_damaged_store_exits_one(self, tmp_path):
        import json

        directory = self._make_store(tmp_path)
        metrics = directory / "metrics.jsonl"
        metrics.write_bytes(metrics.read_bytes()[:-20])  # torn tail
        code, output = run_cli(["checkpoint", "verify", str(directory)])
        assert code == 1
        report = json.loads(output)
        assert report["ok"] is False
        assert [p["kind"] for p in report["problems"]] == ["torn-tail"]

    def test_repair_truncates_and_reports(self, tmp_path):
        import json

        directory = self._make_store(tmp_path)
        metrics = directory / "metrics.jsonl"
        metrics.write_bytes(metrics.read_bytes()[:-20])
        code, output = run_cli(["checkpoint", "repair", str(directory)])
        assert code == 0
        report = json.loads(output)
        assert report["repair"]["performed"] is True
        assert report["repair"]["bytes_dropped"] > 0
        code, _ = run_cli(["checkpoint", "verify", str(directory)])
        assert code == 0

    def test_checkpoint_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["checkpoint"])


class TestSweepSupervisorFlags:
    """--retries / --cell-timeout / --on-error reach the supervisor."""

    BASE_ARGS = [
        "sweep",
        "--taus",
        "0.35",
        "--replicates",
        "1",
        "--side",
        "10",
        "--horizon",
        "1",
    ]

    def test_supervised_flags_accepted_and_sweep_runs(self):
        code, output = run_cli(
            self.BASE_ARGS
            + ["--retries", "2", "--on-error", "skip", "--cell-timeout", "120"]
        )
        assert code == 0
        assert "tau" in output

    def test_invalid_on_error_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                self.BASE_ARGS + ["--on-error", "explode"]
            )


class TestServingCommands:
    """The serving subcommands: summarize, query, serve (reproduce has its
    own module, ``test_serving_reproduce.py``)."""

    @pytest.fixture
    def store(self, tmp_path):
        """A tiny completed checkpointed sweep to serve."""
        directory = tmp_path / "store"
        code, _ = run_cli(
            [
                "sweep",
                "--horizon", "1",
                "--side", "10",
                "--taus", "0.3,0.45",
                "--replicates", "1",
                "--seed", "9",
                "--checkpoint-dir", str(directory),
            ]
        )
        assert code == 0
        return directory

    def test_sweep_checkpoint_writes_summary(self, store):
        assert (store / "summary.json").exists()

    def test_summarize_rewrites_offline(self, store):
        import json

        original = (store / "summary.json").read_bytes()
        (store / "summary.json").unlink()
        code, output = run_cli(["summarize", str(store)])
        assert code == 0
        assert "2/2 cell(s) summarized" in output
        assert (store / "summary.json").read_bytes() == original
        assert json.loads(original)["complete"] is True

    def test_summarize_empty_directory_exits_one(self, tmp_path, capsys):
        code, _ = run_cli(["summarize", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_query_exact_point(self, store):
        import json

        code, output = run_cli(
            ["query", "tau=0.3", "--store", str(store)]
        )
        assert code == 0
        answer = json.loads(output)
        assert answer["source"] == "exact"
        assert answer["point"]["w"] == 1.0  # pinned by the store
        assert "final_unhappy_fraction" in answer["metrics"]

    def test_query_nearest_with_interpolate_flag(self, store):
        import json

        code, output = run_cli(
            ["query", "tau=0.37", "--store", str(store), "--interpolate"]
        )
        assert code == 0
        answer = json.loads(output)
        # single rho/w: tau-only grid has no (rho, tau) plane to
        # interpolate, so the engine falls back to the nearest cell
        assert answer["source"] in ("interpolated", "nearest")

    def test_query_miss_exits_one(self, store, capsys):
        code, _ = run_cli(
            [
                "query", "tau=0.9", "--store", str(store),
                "--max-distance", "0.1",
            ]
        )
        assert code == 1
        assert "miss:" in capsys.readouterr().err

    def test_query_malformed_exits_two(self, store, capsys):
        code, _ = run_cli(["query", "sigma=1", "--store", str(store)])
        assert code == 2
        assert "unknown query axis" in capsys.readouterr().err

    def test_query_missing_store_exits_two(self, tmp_path, capsys):
        code, _ = run_cli(
            ["query", "tau=0.3", "--store", str(tmp_path / "nope")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_rejects_missing_store_before_binding(self, tmp_path, capsys):
        code, _ = run_cli(
            ["serve", "--store", str(tmp_path / "nope"), "--port", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_parser_accepts_policy_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--store", "s", "--port", "0",
                "--interpolate", "--on-miss", "compute",
                "--max-distance", "1.5", "--cache-size", "16",
            ]
        )
        assert args.command == "serve"
        assert args.on_miss == "compute"
        assert args.cache_size == 16

    def test_serve_parser_accepts_lifecycle_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--store", "a", "--store", "b", "--port", "0",
                "--allow-damaged", "--max-compute", "4",
                "--refresh-interval", "2.5", "--drain-timeout", "3",
            ]
        )
        assert args.store == ["a", "b"]
        assert args.allow_damaged is True
        assert args.max_compute == 4
        assert args.refresh_interval == 2.5
        assert args.drain_timeout == 3.0

    def test_query_repeated_store_flags_federate(self, store, tmp_path):
        import json
        import shutil

        second = tmp_path / "second"
        shutil.copytree(store, second)
        code, output = run_cli(
            [
                "query", "tau=0.3",
                "--store", str(store), "--store", str(second),
            ]
        )
        assert code == 0
        answer = json.loads(output)
        assert answer["source"] == "exact"
        # federated answers are tagged with the owning store; identical
        # cells tie-break on the store tag, not registration order
        assert answer["cells"][0]["store"] in (str(store), str(second))

    def test_query_duplicate_store_flags_rejected(self, store, capsys):
        code, _ = run_cli(
            ["query", "tau=0.3", "--store", str(store), "--store", str(store)]
        )
        assert code == 2
        assert "duplicate" in capsys.readouterr().err


def _corrupt_second_record(store):
    """Bit-flip a digit inside the second metrics record (CRC mismatch)."""
    metrics = store / "metrics.jsonl"
    lines = metrics.read_bytes().splitlines(keepends=True)
    assert len(lines) >= 2
    target = lines[1]
    for index, byte in enumerate(target):
        if chr(byte).isdigit():
            replacement = b"1" if chr(byte) != "1" else b"2"
            lines[1] = target[:index] + replacement + target[index + 1 :]
            break
    metrics.write_bytes(b"".join(lines))


class TestStartupVerification:
    """query/serve audit their stores at startup (ISSUE 10 satellite)."""

    @pytest.fixture
    def damaged(self, tmp_path):
        """A checkpointed store whose second record fails its CRC."""
        directory = tmp_path / "damaged"
        code, _ = run_cli(
            [
                "sweep",
                "--horizon", "1",
                "--side", "10",
                "--taus", "0.3,0.45",
                "--replicates", "1",
                "--seed", "9",
                "--checkpoint-dir", str(directory),
            ]
        )
        assert code == 0
        _corrupt_second_record(directory)
        return directory

    def test_query_refuses_damaged_store_with_named_damage(
        self, damaged, capsys
    ):
        code, _ = run_cli(["query", "tau=0.3", "--store", str(damaged)])
        assert code == 1
        err = capsys.readouterr().err
        assert "failed its integrity audit" in err
        assert "crc-mismatch" in err
        assert "--allow-damaged" in err

    def test_serve_refuses_damaged_store_before_binding(
        self, damaged, capsys
    ):
        code, _ = run_cli(
            ["serve", "--store", str(damaged), "--port", "0"]
        )
        assert code == 1
        assert "failed its integrity audit" in capsys.readouterr().err

    def test_allow_damaged_serves_only_verified_clean_cells(
        self, damaged, capsys
    ):
        import json

        # the intact first record still answers...
        code, output = run_cli(
            ["query", "tau=0.3", "--store", str(damaged), "--allow-damaged"]
        )
        assert code == 0
        assert json.loads(output)["source"] == "exact"
        assert "verified-clean" in capsys.readouterr().err

        # ...but the corrupt record's cell is gone, even though the on-disk
        # summary.json (written before the damage) still lists it
        code, _ = run_cli(
            [
                "query", "tau=0.45", "--store", str(damaged),
                "--allow-damaged", "--max-distance", "0.01",
            ]
        )
        assert code == 1
        assert "miss:" in capsys.readouterr().err

    def test_clean_store_passes_the_audit_silently(self, tmp_path, capsys):
        directory = tmp_path / "clean"
        code, _ = run_cli(
            [
                "sweep", "--horizon", "1", "--side", "10", "--taus", "0.3",
                "--replicates", "1", "--seed", "2",
                "--checkpoint-dir", str(directory),
            ]
        )
        assert code == 0
        capsys.readouterr()
        code, _ = run_cli(["query", "tau=0.3", "--store", str(directory)])
        assert code == 0
        assert "WARNING" not in capsys.readouterr().err


class TestServeDrain:
    """End-to-end SIGTERM drain of a real `repro serve` process."""

    def test_sigterm_drains_gracefully(self, tmp_path):
        import json
        import os
        import re
        import signal
        import subprocess
        import sys
        import threading
        import urllib.error
        import urllib.request

        directory = tmp_path / "store"
        code, _ = run_cli(
            [
                "sweep", "--horizon", "1", "--side", "10", "--taus",
                "0.3,0.45", "--replicates", "1", "--seed", "9",
                "--checkpoint-dir", str(directory),
            ]
        )
        assert code == 0

        import repro

        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src_root, env.get("PYTHONPATH", "")) if part
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(directory), "--port", "0",
                "--on-miss", "compute", "--max-distance", "0.01",
                "--drain-timeout", "30",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no address in banner: {banner!r}"
            base = f"http://{match.group(1)}:{match.group(2)}"

            def get_json(path, timeout=30):
                with urllib.request.urlopen(
                    f"{base}{path}", timeout=timeout
                ) as response:
                    return response.status, json.loads(response.read())

            assert get_json("/readyz") == (200, {"ready": True})

            # a compute-on-miss request is slow enough to still be in
            # flight when the signal lands
            inflight_result = {}

            def slow_request():
                inflight_result["value"] = get_json("/query?tau=0.5")

            worker = threading.Thread(target=slow_request)
            worker.start()
            deadline = 50
            for _ in range(deadline):
                if not worker.is_alive():
                    break  # completed before the signal: still a valid run
                try:
                    _, stats = get_json("/stats", timeout=5)
                except (OSError, urllib.error.URLError):
                    continue
                if stats["service"]["inflight_requests"] >= 2:
                    break  # the slow request + this /stats probe

            process.send_signal(signal.SIGTERM)
            worker.join(timeout=60)
            assert not worker.is_alive()
            status, body = inflight_result["value"]
            assert status == 200  # in-flight work finished during drain
            assert body["source"] == "computed"

            # new connections are refused (socket closed) or told 503
            try:
                status, _ = get_json("/query?tau=0.3", timeout=5)
                assert status == 503
            except urllib.error.HTTPError as exc:
                assert exc.code == 503
            except (OSError, urllib.error.URLError):
                pass  # connection refused: the listener is gone

            assert process.wait(timeout=60) == 0
            remaining = process.stdout.read()
            assert "draining" in remaining
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
