"""Tests for the command line driver and its report formats."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import time

import pytest

from beltrami import cli
from beltrami.atlas import SUPPORTED_EXPLICIT, explicit_basis
from beltrami.functionals import (KNOWN_DISCREPANCIES, identity_report,
                                  local_max_scan)
from beltrami.cli import (
    COMMANDS,
    CheckRecord,
    RECORD_FIELDS,
    RunConfig,
    main,
    run,
    write_report,
)


class TestRunConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"command": "bounds", "tolerance": 1.0})

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            RunConfig(command="bounds", format="xml")


class TestCheckRecord:
    def test_pass_within_tolerance(self):
        record = CheckRecord.compare("c", "anchor", 1.0, 1.0 + 1e-12, 1e-10)
        assert record.passed and not record.is_fatal_failure()

    def test_failure_is_fatal(self):
        record = CheckRecord.compare("c", "anchor", 1.0, 1.1, 1e-10)
        assert not record.passed and record.is_fatal_failure()

    def test_discrepancy_note_is_not_fatal(self):
        record = CheckRecord.compare("d6f-z2-leading-reference", "anchor",
                                     1.0, 1.1, 1e-10,
                                     note="discrepancy: known reference "
                                          "erratum")
        assert not record.passed and not record.is_fatal_failure()

    def test_unknown_check_with_a_discrepancy_note_is_fatal(self):
        # Only the identities listed as known discrepancies fail by design;
        # the note's text decides nothing.
        assert KNOWN_DISCREPANCIES == {
            "d6f-z2-leading-reference",
            "degenerate-sixth-order-leading-reference"}
        record = CheckRecord.compare("c", "anchor", 1.0, 1.1, 1e-10,
                                     note="discrepancy: known reference "
                                          "erratum")
        assert not record.passed and record.is_fatal_failure()


class TestCommands:
    def test_bounds(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = main(["--command", "bounds", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"]
        assert all(r["passed"] for r in payload["records"])

    def test_round_sphere_row_reads_the_round_pencil(self, tmp_path,
                                                     monkeypatch):
        # The row's computed value is the round pencil's, so a pencil
        # moved by 1e-12 relative fails it.
        original = cli._conformal.mu1_normalized
        monkeypatch.setattr(cli._conformal, "mu1_normalized",
                            lambda *args: original(*args) * (1.0 + 1e-12))
        out = tmp_path / "bounds.json"
        assert main(["--command", "bounds", "--out", str(out)]) == 1
        rows = {r["check"]: r for r in json.loads(out.read_text())["records"]}
        row = rows["bound-round-sphere"]
        assert not row["passed"]
        assert row["rel_error"] == pytest.approx(1e-12, rel=1e-3)

    def test_verify_atlas(self, tmp_path):
        out = tmp_path / "atlas.json"
        assert main(["--command", "verify-atlas", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        checks = {r["check"] for r in payload["records"]}
        assert "atlas-dimension-5" in checks
        assert "atlas-exactness--4" in checks

    def test_verify_atlas_times_each_row_alone(self, tmp_path, monkeypatch):
        # With every basis built and each curl slowed, an exactness row
        # carries the curl checks of its eigenspace and a dimension row
        # none of them.
        for mu in SUPPORTED_EXPLICIT:
            explicit_basis(mu)
        delay = 0.01
        real_curl = cli.curl

        def slow_curl(field):
            time.sleep(delay)
            return real_curl(field)

        monkeypatch.setattr(cli, "curl", slow_curl)
        out = tmp_path / "atlas.json"
        assert main(["--command", "verify-atlas", "--out", str(out)]) == 0
        records = {r["check"]: r["wall_time"]
                   for r in json.loads(out.read_text())["records"]}
        for mu in SUPPORTED_EXPLICIT:
            count = explicit_basis(mu).dimension
            assert records[f"atlas-exactness-{mu}"] >= delay * count
            assert records[f"atlas-dimension-{mu}"] < delay

    def test_taylor_check_evaluates_each_stencil_once(self, monkeypatch):
        # The combination row reuses the six per-order stencils; each row
        # must equal the stencil evaluated afresh, bit for bit.
        calls = []
        real_f = cli._functionals.f_perturbed

        def counting(W, t, grid=None):
            calls.append((W, t))
            return real_f(W, t, grid)

        monkeypatch.setattr(cli._functionals, "f_perturbed", counting)
        records, code = run(RunConfig(command="taylor-check",
                                      out=os.devnull))
        assert code == 0
        assert len(calls) == 54
        assert len({t for _, t in calls}) == 45
        W = calls[0][0]
        f = lambda t: real_f(W, t)  # noqa: E731 - local shorthand
        differences = [cli._richardson(f, k, (k * 1e-13) ** (1.0 / (k + 4)))
                       for k in range(1, 7)]
        for k, (record, difference) in enumerate(
                zip(records, differences), start=1):
            derivative = cli._functionals.dF_at_hopf(k, W)
            span = max(abs(derivative), abs(difference), 1.0)
            assert record.computed == difference / span
        combination = cli._functionals.taylor6_combination(W)
        stencil = sum(weight * d for weight, d in zip(
            (6.0, 3.0, 1.0, 0.25, 0.05, 1.0 / 120.0), differences))
        span = max(abs(combination), abs(stencil), 1.0)
        assert records[-1].check == "taylor-combination"
        assert records[-1].computed == stencil / span

    def test_verify_identities_csv(self, tmp_path):
        config_path = tmp_path / "config.json"
        out = tmp_path / "identities.csv"
        config_path.write_text(json.dumps({
            "command": "verify-identities", "draws": 3,
            "format": "csv", "out": str(out)}))
        assert main(["--config", str(config_path)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        exact = {row["expected_exact"] for row in rows}
        for constant in ("2/3 * pi^-2", "14/27 * pi^-2", "4/9 * pi^-2",
                         "151/90 * pi^-4", "1/3", "3/5"):
            assert constant in exact
        flagged = [row for row in rows if "discrepancy" in row["note"]]
        assert len(flagged) == 2
        assert all(row["passed"] == "False" for row in flagged)

    def test_verify_identities_times_each_row(self, tmp_path, monkeypatch):
        delta = 0.1
        identity_report(seed=1, draws=1)  # warm the grids and bases
        real = cli._functionals.correction_field

        def slow(a5, a8):
            time.sleep(delta)
            return real(a5, a8)

        monkeypatch.setattr(cli._functionals, "correction_field", slow)
        records, _ = run(RunConfig(command="verify-identities", seed=1,
                                   draws=5, out=str(tmp_path / "r.json")))
        times = {r.check: r.wall_time for r in records}
        assert times.pop("correction-field-norm") >= 5 * delta
        assert all(0 <= t < delta for t in times.values()), times

    def test_torus_scan_values(self, tmp_path):
        out = tmp_path / "t3.json"
        assert main(["--command", "optimality-scan", "--manifold", "t3",
                     "--out", str(out)]) == 0
        records = {r["check"]: r for r in
                   json.loads(out.read_text())["records"]}
        assert records["torus-flat-multiplicity"]["computed"] == 6.0
        assert records["torus-axis-factor-derivatives"]["computed"] == \
            pytest.approx(0.0, abs=1e-13)
        assert records["torus-diagonal-factor-minimum"]["computed"] == \
            pytest.approx(-0.25, abs=1e-12)
        assert records["torus-diagonal-factor-minimum"][
            "expected_exact"] == "-1/4"

    @pytest.mark.parametrize("manifold,factors", [("s3", 7), ("rp3", 4)],
                             ids=["s3", "rp3"])
    @pytest.mark.parametrize("dmax", [[], ["--dmax", "4"]],
                             ids=["default", "dmax4"])
    def test_sphere_scan(self, tmp_path, manifold, factors, dmax):
        out = tmp_path / "scan.json"
        assert main(["--command", "optimality-scan", "--manifold", manifold,
                     *dmax, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        records = payload["records"]
        assert len(records) == factors * 7
        assert payload["pass"] and all(r["passed"] for r in records)
        # The t = 0 rows are N(0) = 2 Vol^(1/3) bit for bit.
        volume = {"s3": 2.0 * math.pi ** 2, "rp3": math.pi ** 2}[manifold]
        round_value = 2.0 * volume ** (1.0 / 3.0)
        at_zero = [r for r in records if r["check"].endswith("-t+0.00")]
        assert len(at_zero) == factors
        for record in at_zero:
            assert record["computed"] == round_value
            assert record["abs_error"] == 0.0

    def test_scan_rows_are_timed_one_by_one(self, tmp_path):
        out = tmp_path / "rp3.json"
        assert main(["--command", "optimality-scan", "--manifold", "rp3",
                     "--dmax", "2", "--out", str(out)]) == 0
        times = [r["wall_time"] for r in
                 json.loads(out.read_text())["records"]]
        assert all(t > 0 for t in times)
        assert len(set(times)) == len(times)

    def test_annulus(self, tmp_path):
        out = tmp_path / "annulus.csv"
        assert main(["--command", "annulus", "--format", "csv",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        mu1 = {row["check"]: row for row in rows
               if row["check"].startswith("annulus-mu1")}
        assert len(mu1) == 10
        assert mu1["annulus-mu1-7"]["expected_exact"] == "1/7"

    def test_every_annulus_row_is_exact(self, tmp_path):
        records, code = run(RunConfig(command="annulus",
                                      out=str(tmp_path / "annulus.json")))
        assert code == 0 and len(records) == 31
        for record in records:
            assert record.expected_exact and record.passed, record
            assert record.abs_error == 0.0
        # A floor row reports the twisted floor lambda^2 = n itself.
        floors = [(r.check, r.computed, r.expected_exact) for r in records
                  if r.check.startswith("annulus-twisted-floor-")]
        assert floors == [(f"annulus-twisted-floor-{n}", float(n), str(n))
                          for n in range(1, 11)]

    def test_flag_overrides_config(self, tmp_path):
        config_path = tmp_path / "config.json"
        out = tmp_path / "report.json"
        config_path.write_text(json.dumps({"command": "bounds", "seed": 3}))
        assert main(["--config", str(config_path), "--seed", "9",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 9


class TestUsageErrors:
    def test_unknown_command_flag(self, capsys):
        # argparse's own errors are one line, as every other usage error.
        for argv in (["--command", "bogus"],
                     ["--command", "bounds", "--tol-exact", "1e-6"],
                     ["--command", "bounds", "--dmax", "1.5"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            message = capsys.readouterr().err
            assert argv[-1] in message and message.count("\n") == 1

    def test_missing_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["--config", str(tmp_path / "missing.json")])
        assert info.value.code == 2

    def test_scan_dmax_beyond_refinement_limit(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--command", "optimality-scan", "--manifold", "rp3",
                  "--dmax", "5"])
        assert info.value.code == 2
        message = capsys.readouterr().err
        assert "got 5" in message and "dmax + 1" in message

    def test_bad_manifold_in_config(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "command": "optimality-scan", "manifold": "k3"}))
        with pytest.raises(SystemExit) as info:
            main(["--config", str(config_path)])
        assert info.value.code == 2


    def test_config_value_of_wrong_type(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "command": "local-max-scan", "samples": "x"}))
        with pytest.raises(SystemExit) as info:
            main(["--config", str(config_path)])
        assert info.value.code == 2
        message = capsys.readouterr().err
        assert "'samples'" in message and message.count("\n") == 1

    @pytest.mark.parametrize("key,value", [
        ("seed", True), ("draws", "3"), ("dmax", 2.0), ("radius", "0.05"),
        ("manifold", 3), ("out", 1), ("command", None),
    ])
    def test_config_types_are_checked(self, key, value):
        settings = {"command": "bounds", key: value}
        with pytest.raises(ValueError, match=key):
            RunConfig.from_dict(settings)

    def test_float_keys_accept_integers(self):
        config = RunConfig.from_dict({"command": "bounds", "radius": 0})
        assert config.radius == 0.0 and isinstance(config.radius, float)

    @pytest.mark.parametrize("key", ["radial_order", "angular_order",
                                     "tol_exact"])
    def test_removed_grid_orders_are_unknown_keys(self, tmp_path, key):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"command": "bounds", key: 24}))
        with pytest.raises(SystemExit) as info:
            main(["--config", str(config_path)])
        assert info.value.code == 2

    def test_out_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        def must_not_run(config):
            raise AssertionError("the command ran before the path check")

        monkeypatch.setitem(COMMANDS, "bounds", must_not_run)
        out = tmp_path / "missing" / "bounds.json"
        with pytest.raises(SystemExit) as info:
            main(["--command", "bounds", "--out", str(out)])
        assert info.value.code == 2
        message = capsys.readouterr().err
        assert "does not exist" in message and message.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_out_naming_a_directory(self, tmp_path, capsys, monkeypatch):
        def must_not_run(config):
            raise AssertionError("the command ran before the path check")

        monkeypatch.setitem(COMMANDS, "bounds", must_not_run)
        with pytest.raises(SystemExit) as info:
            main(["--command", "bounds", "--out", str(tmp_path)])
        assert info.value.code == 2
        message = capsys.readouterr().err
        assert "is a directory" in message and message.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null"])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, text):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        with pytest.raises(SystemExit) as info:
            main(["--config", str(config_path), "--command", "bounds"])
        assert info.value.code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_tol_float_is_gone(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"command": "bounds",
                                           "tol_float": 1e-6}))
        with pytest.raises(SystemExit) as info:
            main(["--config", str(config_path)])
        assert info.value.code == 2
        assert "unknown configuration keys" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(["--command", "bounds", "--tol-float", "1e-6"])
        assert info.value.code == 2

    def test_tol_exact_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--command", "bounds", "--tol-exact", "1e-6"])
        assert info.value.code == 2
        assert "--tol-exact" in capsys.readouterr().err


class TestVacuousRuns:
    """Settings under which a command would check nothing are usage errors."""

    @pytest.mark.parametrize("command,key,value", [
        ("verify-identities", "draws", 0),
        ("local-max-scan", "samples", 0),
        ("local-max-scan", "radius", 0.0),
        ("local-max-scan", "radius", -0.01),
    ])
    def test_exit_two_with_one_line(self, tmp_path, capsys, command, key,
                                    value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"command": command, key: value}))
        with pytest.raises(SystemExit) as info:
            main(["--config", str(config_path)])
        assert info.value.code == 2
        message = capsys.readouterr().err
        assert key in message and message.count("\n") == 1

    @pytest.mark.parametrize("flag,value,shown", [
        ("--radius", "0.2", "got 0.2 and 50"),
        ("--samples", "0", "got 0.05 and 0"),
    ])
    def test_scan_flags_exit_two(self, capsys, flag, value, shown):
        with pytest.raises(SystemExit) as info:
            main(["--command", "local-max-scan", flag, value])
        assert info.value.code == 2
        message = capsys.readouterr().err
        assert shown in message and message.count("\n") == 1

    def test_samples_flag_sets_the_scan(self, tmp_path, monkeypatch):
        scans = []
        real_scan = cli._functionals.local_max_scan

        def recorded(**kwargs):
            scans.append(real_scan(**kwargs))
            return scans[-1]

        monkeypatch.setattr(cli._functionals, "local_max_scan", recorded)
        out = tmp_path / "scan.json"
        assert main(["--command", "local-max-scan", "--samples", "3",
                     "--radius", "0.02", "--out", str(out)]) == 0
        assert [len(s["results"]) for s in scans] == [3]
        assert scans[0]["radius"] == 0.02
        assert json.loads(out.read_text())["config"]["samples"] == 3

    def test_functions_reject_them(self):
        with pytest.raises(ValueError, match="draws"):
            identity_report(draws=0)
        with pytest.raises(ValueError, match="samples"):
            local_max_scan(samples=0)
        with pytest.raises(ValueError, match="radius"):
            local_max_scan(radius=0.0)


class TestProfiledRun:
    def test_runs_under_cprofile(self):
        # Under a runner the CLI module is __main__ of another program.
        source = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [source,
                                             os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "beltrami.cli",
             "--command", "bounds"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert "bound-round-sphere" in result.stdout
        assert "crashed" not in result.stderr


class TestCrash:
    def test_exit_three_with_one_line(self, capsys, monkeypatch):
        def crash(config):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setitem(COMMANDS, "bounds", crash)
        with pytest.raises(SystemExit) as info:
            main(["--command", "bounds"])
        assert info.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "RuntimeError" in captured.err and "boom" in captured.err
        assert "test_cli.py:" in captured.err
        assert captured.err.count("\n") == 1


class TestReports:
    def test_csv_header_order(self, tmp_path):
        out = tmp_path / "bounds.csv"
        main(["--command", "bounds", "--format", "csv", "--out", str(out)])
        header = out.read_text().splitlines()[0].split(",")
        assert header == RECORD_FIELDS

    def test_atomic_write_leaves_no_staging_files(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(str(path), "content\n")
        assert path.read_text() == "content\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_deterministic_modulo_timing(self, tmp_path):
        payloads = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["--command", "bounds", "--out", str(out)])
            payload = json.loads(out.read_text())
            payload.pop("timestamp")
            payload["config"].pop("out")
            for record in payload["records"]:
                record.pop("wall_time")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_run_returns_records(self):
        config = RunConfig(command="bounds",
                           out=os.devnull, format="json")
        records, code = run(config)
        assert code == 0
        assert all(isinstance(r, CheckRecord) for r in records)
