import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gerbecalc

from gerbecalc import GerbeDatum, TotalCochain, build_minus_one_gerbe, build_monopole
from gerbecalc.cli import main
from gerbecalc.serialize import datum_from_dict, datum_to_dict, load_datum, save_datum

from conftest import sparse_transition_monopoles


@pytest.fixture
def monopole_file(tmp_path):
    path = tmp_path / "monopole.json"
    save_datum(path, build_monopole(12))
    return path


class TestDemo:
    def test_monopole_demo(self, tmp_path, capsys):
        out = tmp_path / "mono.json"
        rc = main(["demo", "monopole", "--m", "12", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "level: 0" in captured.out
        assert "charge: 1.000000000" in captured.out
        assert "nerve: (0) (0,1) (1)" in captured.out
        assert out.exists()

    def test_minus1_demo(self, capsys):
        rc = main(["demo", "minus1", "--m", "12"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "level: -1" in captured.out
        assert "charge: 1.000000000" in captured.out

    def test_precondition_violation_exits_1(self, capsys):
        rc = main(["demo", "monopole", "--m", "3"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flags_exit_2(self):
        with pytest.raises(SystemExit) as info:
            main(["demo", "nonsense"])
        assert info.value.code == 2

    def test_perturb_gauge_stays_equivalent(self, tmp_path, capsys, monopole_file):
        out = tmp_path / "shifted.json"
        rc = main(
            ["demo", "monopole", "--m", "12", "--perturb-gauge", "9", "--out", str(out)]
        )
        assert rc == 0
        rc = main(["equiv", str(monopole_file), str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "EQUIVALENT" in captured.out


class TestValidate:
    def test_builder_file_passes(self, monopole_file, capsys):
        rc = main(["validate", str(monopole_file)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "PASS" in captured.out
        assert "residual" in captured.out

    def test_corrupted_value_fails_with_reported_residual(self, tmp_path, capsys):
        doc = datum_to_dict(build_monopole(12))
        for part in doc["datum"]["parts"]:
            if (part["p"], part["n"]) == (0, 2):
                part["components"][0]["entries"][0]["value"] += 0.3
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        rc = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAIL" in captured.out
        assert "3.000e-01" in captured.out

    def test_overflowing_residual_fails_with_residual_lines(self, tmp_path, capsys):
        # finite file values whose (1,2) residual, a wrapped row, overflows to inf
        doc = datum_to_dict(build_monopole(12))
        for part in doc["datum"]["parts"]:
            if (part["p"], part["n"]) == (1, 1):
                (component,) = part["components"]
                entry = next(e for e in component["entries"] if e["simplex"] == [0, 1])
                entry["value"] = 1.7e308
                part["components"].insert(
                    0, {"indices": [0], "entries": [{"simplex": [0, 1], "value": -1.7e308}]}
                )
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        rc = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "residual (p=1,n=2): inf" in captured.out
        assert captured.out.splitlines()[-1].startswith("FAIL")
        assert "error" not in captured.err

    @pytest.mark.parametrize("name", ["zeros-left-out", "shift-to-zero"])
    def test_absent_transition_values_pass_and_stay_equivalent(
        self, name, monopole_file, tmp_path, capsys
    ):
        path = tmp_path / "sparse.json"
        save_datum(path, sparse_transition_monopoles()[1][name])
        assert main(["validate", str(path)]) == 0
        assert main(["equiv", str(monopole_file), str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "EQUIVALENT" in out

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{this is not json")
        rc = main(["validate", str(path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "badschema.json"
        path.write_text(json.dumps({"format_version": 1, "complex": {}}))
        rc = main(["validate", str(path)])
        assert rc == 2

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["validate", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_env_tolerance_override(self, monopole_file, capsys, monkeypatch):
        monkeypatch.setenv("GERBECALC_TOL", "1e-3")
        rc = main(["validate", str(monopole_file)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "tol=0.001" in captured.out

    def test_huge_level_answers_in_bounded_time(self, tmp_path, capsys):
        # the residual bidegrees are bounded by the cover, not by the level
        cover = build_monopole(6).cover
        level = 10**12
        path = tmp_path / "huge-level.json"
        save_datum(path, GerbeDatum(level, TotalCochain(level + 2, {}), cover))
        rc = main(["validate", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len([line for line in lines if line.startswith("residual")]) == len(cover.sets) + 1
        assert lines[-1].startswith("PASS")


class TestTolerance:
    @pytest.mark.parametrize("value", ["inf", "nan", "-1e-3"])
    def test_flag_must_be_finite_and_non_negative(self, monopole_file, capsys, value):
        rc = main(["validate", str(monopole_file), f"--tol={value}"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--tol" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_env_must_be_finite_and_non_negative(self, tmp_path, capsys, monkeypatch, value):
        one, two = tmp_path / "w1.json", tmp_path / "w2.json"
        save_datum(one, build_monopole(12, winding=1))
        save_datum(two, build_monopole(12, winding=2))
        monkeypatch.setenv("GERBECALC_TOL", value)
        rc = main(["equiv", str(one), str(two)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "GERBECALC_TOL" in captured.err
        assert "EQUIVALENT" not in captured.out
        assert main(["validate", str(one)]) == 2

    def test_zero_is_accepted(self, monopole_file, capsys):
        # the builder's residuals are exactly zero
        rc = main(["validate", str(monopole_file), "--tol", "0"])
        assert rc == 0
        assert "PASS (tol=0)" in capsys.readouterr().out


class TestCharge:
    def test_monopole_charge(self, monopole_file, capsys):
        rc = main(["charge", str(monopole_file)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1.000000000"

    def test_trivial_charge(self, tmp_path, capsys):
        datum = build_monopole(12)
        doc = datum_to_dict(datum)
        doc["datum"]["parts"] = []
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(doc))
        rc = main(["charge", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0.000000000"

    def test_dimension_mismatch_exits_1(self, tmp_path, capsys):
        doc = datum_to_dict(build_minus_one_gerbe(12))
        doc["datum"]["level"] = 1
        doc["datum"]["parts"] = []
        doc["datum"]["angle_part"] = [0, 3]
        path = tmp_path / "wrongdim.json"
        path.write_text(json.dumps(doc))
        rc = main(["charge", str(path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestEquiv:
    def test_identical_files_equivalent(self, monopole_file, tmp_path, capsys):
        witness = tmp_path / "witness.json"
        rc = main(["equiv", str(monopole_file), str(monopole_file), "--out", str(witness)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "EQUIVALENT" in captured.out
        doc = json.loads(witness.read_text())
        assert doc["witness"]["degree"] == 1

    def test_monopole_vs_trivial_not_found(self, monopole_file, tmp_path, capsys):
        doc = datum_to_dict(build_monopole(12))
        doc["datum"]["parts"] = []
        trivial = tmp_path / "trivial.json"
        trivial.write_text(json.dumps(doc))
        rc = main(["equiv", str(monopole_file), str(trivial)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "NOT-FOUND" in captured.out
        # charges explain the obstruction
        main(["charge", str(monopole_file)])
        main(["charge", str(trivial)])
        out = capsys.readouterr().out.splitlines()
        assert out == ["1.000000000", "0.000000000"]


class TestSelfcheck:
    def test_default_run_passes(self, capsys):
        rc = main(["selfcheck", "--trials", "25"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "25/25 passed" in captured.out

    def test_zero_trials_vacuous(self, capsys):
        rc = main(["selfcheck", "--trials", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "0/0 passed" in captured.out
        assert "warning" in captured.err

    def test_break_sign_hook_fails(self, capsys):
        rc = main(["selfcheck", "--trials", "5", "--break-sign"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "counterexample" in captured.err
        # the broken composition has an O(1) residual
        assert "D2 residual" in captured.err


class TestRoundTrip:
    @pytest.mark.parametrize("name,m", [("minus1", 12), ("monopole", 12), ("gerbopole", 6)])
    def test_serialize_parse_bit_exact(self, name, m):
        from gerbecalc import build_gerbopole

        build = {
            "minus1": build_minus_one_gerbe,
            "monopole": build_monopole,
            "gerbopole": build_gerbopole,
        }[name]
        datum = build(m)
        text = json.dumps(datum_to_dict(datum))
        loaded = datum_from_dict(json.loads(text))
        assert loaded.level == datum.level
        assert loaded.cover == datum.cover
        assert loaded.data == datum.data

    def test_file_round_trip(self, tmp_path):
        datum = build_monopole(6)
        path = tmp_path / "datum.json"
        save_datum(path, datum)
        loaded = load_datum(path)
        assert loaded.data == datum.data
        # a second save produces the identical byte stream
        path2 = tmp_path / "datum2.json"
        save_datum(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()


def test_cli_import_loads_no_scipy():
    # importing scipy roughly doubled the time of every CLI call
    code = (
        "import sys, gerbecalc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(gerbecalc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
