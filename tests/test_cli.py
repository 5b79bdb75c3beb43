"""Tests for the command line driver and its report formats."""

from __future__ import annotations

import csv
import json
import os

import pytest

from beltrami.cli import (
    CheckRecord,
    RECORD_FIELDS,
    RunConfig,
    main,
    run,
    write_report,
)


class TestRunConfig:
    def test_json_round_trip(self):
        config = RunConfig(command="bounds", seed=7, dmax=4,
                           tol_exact=1e-9, manifold="rp3",
                           out="/tmp/report.json", format="csv")
        assert RunConfig.from_json(config.to_json()) == config

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
        record = CheckRecord.compare("c", "anchor", 1.0, 1.1, 1e-10,
                                     note="discrepancy: known reference "
                                          "erratum")
        assert not record.passed and not record.is_fatal_failure()


class TestCommands:
    def test_bounds(self, tmp_path):
        out = tmp_path / "bounds.json"
        code = main(["--command", "bounds", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"]
        assert all(r["passed"] for r in payload["records"])

    def test_verify_atlas(self, tmp_path):
        out = tmp_path / "atlas.json"
        assert main(["--command", "verify-atlas", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        checks = {r["check"] for r in payload["records"]}
        assert "atlas-dimension-5" in checks
        assert "atlas-exactness--4" in checks

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

    def test_annulus(self, tmp_path):
        out = tmp_path / "annulus.csv"
        assert main(["--command", "annulus", "--format", "csv",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        mu1 = {row["check"]: row for row in rows
               if row["check"].startswith("annulus-mu1")}
        assert len(mu1) == 10
        assert mu1["annulus-mu1-7"]["expected_exact"] == "1/7"

    def test_flag_overrides_config(self, tmp_path):
        config_path = tmp_path / "config.json"
        out = tmp_path / "report.json"
        config_path.write_text(json.dumps({"command": "bounds", "seed": 3}))
        assert main(["--config", str(config_path), "--seed", "9",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 9


class TestUsageErrors:
    def test_unknown_command_flag(self):
        with pytest.raises(SystemExit) as info:
            main(["--command", "bogus"])
        assert info.value.code == 2

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
