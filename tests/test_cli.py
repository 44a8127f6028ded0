import hashlib
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gerbecalc

from gerbecalc import (
    BigradedCochain,
    Cochain,
    Cover,
    FormatError,
    GerbeDatum,
    TotalCochain,
    bicomplex,
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    cli,
    gauge_equivalent,
)
from gerbecalc.cli import main
from gerbecalc.deligne import DEFAULT_EQUIVALENCE_TOL
from gerbecalc.serialize import datum_from_dict, datum_to_dict, load_datum, load_pair, save_datum, save_witness

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


    # sha256 of --perturb-gauge files: a shifted datum's dict form is defined
    # by the dict sum, so its bytes are pinned apart from that sum here;
    # winding -1 stores -0.0
    PERTURBED_DIGESTS = {
        "monopole --m 24 --perturb-gauge 5": (
            "edbd535866b46268aa6b962d090d91870118c85548940a1e3c7f776871ace372"
        ),
        "monopole --m 12 --winding -1 --perturb-gauge 2": (
            "af41d090b58c264bc9edfae60b6b756e0f438b421709d62f3fae25b4c1052806"
        ),
        "gerbopole --m 12 --perturb-gauge 9": (
            "153157098a78115b01b3ce3d6c09b5133b30c78831bf3fa83e605892f5c30977"
        ),
    }

    @pytest.mark.parametrize("args", list(PERTURBED_DIGESTS))
    def test_perturbed_files_are_pinned(self, tmp_path, capsys, args):
        out = tmp_path / "shifted.json"
        assert main(["demo", *args.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PERTURBED_DIGESTS[args]

    def test_perturbing_level_minus_one_leaves_the_file_as_it_is(self, tmp_path, capsys):
        # every gauge potential at level -1 is empty, so the file is the
        # unperturbed one, the builder pin of ("minus1", 24, 1)
        plain, shifted = tmp_path / "plain.json", tmp_path / "shifted.json"
        assert main(["demo", "minus1", "--m", "24", "--out", str(plain)]) == 0
        argv = ["demo", "minus1", "--m", "24", "--perturb-gauge", "3", "--out", str(shifted)]
        assert main(argv) == 0
        assert shifted.read_bytes() == plain.read_bytes()
        assert hashlib.sha256(shifted.read_bytes()).hexdigest() == (
            "0c4689eb831d30d1de78a2f287acb982a36f5c382f3bc083e3d6e626d07fcc43"
        )


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

    @pytest.mark.parametrize("bad", [0.5, True])
    @pytest.mark.parametrize("section", ["complex", "cover"])
    def test_non_integer_vertex_id_exits_2(self, monopole_file, tmp_path, capsys, section, bad):
        doc = json.loads(monopole_file.read_text())
        if section == "complex":
            doc["complex"]["simplices"]["1"][0][1] = bad
        else:
            doc["cover"]["sets"][1][0] = bad
        path = tmp_path / "bad-id.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert section in err and repr(bad) in err

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


    def test_vertex_ids_far_apart_load_without_a_row_per_id(self, tmp_path, capsys):
        # a legal file: 10**13 possible ids, 6 of them used; the cover's
        # membership rows follow the 0-cells, so nothing is sized by the count
        doc = datum_to_dict(build_monopole(6))
        doc["complex"]["vertex_count"] = 10**13
        path = tmp_path / "sparse-ids.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("PASS")
        assert main(["charge", str(path)]) == 0
        assert capsys.readouterr().out == "1.000000000\n"


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

    def test_env_must_be_a_number(self, monopole_file, capsys, monkeypatch):
        monkeypatch.setenv("GERBECALC_TOL", "tiny")
        assert main(["validate", str(monopole_file)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: GERBECALC_TOL is not a number: 'tiny'\n")

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

    def test_level_zero_witness_is_pinned(self, tmp_path, capsys):
        # the level-0 descent ends in an exact spanning-forest walk, so the
        # witness bytes are those of its arithmetic on every machine
        names = ("mono.json", "mono-shifted.json", "witness.json")
        plain, shifted, witness = (tmp_path / name for name in names)
        assert main(["demo", "monopole", "--m", "24", "--out", str(plain)]) == 0
        argv = ["demo", "monopole", "--m", "24", "--perturb-gauge", "5", "--out", str(shifted)]
        assert main(argv) == 0
        assert main(["equiv", str(plain), str(shifted), "--out", str(witness)]) == 0
        assert hashlib.sha256(witness.read_bytes()).hexdigest() == (
            "e25f00bb63ee61168fe5f026e9be665fb2aa45279c78c4bf6236ba1bea699c25"
        )

    def test_level_one_witness_is_pinned(self, tmp_path, capsys):
        # the level-1 descent ends in the walk of degree 1, in Python floats
        # with no BLAS call, so its witness bytes are pinned too
        names = ("gerbe.json", "gerbe-shifted.json", "witness.json")
        plain, shifted, witness = (tmp_path / name for name in names)
        assert main(["demo", "gerbopole", "--m", "12", "--out", str(plain)]) == 0
        argv = ["demo", "gerbopole", "--m", "12", "--perturb-gauge", "9", "--out", str(shifted)]
        assert main(argv) == 0
        assert main(["equiv", str(plain), str(shifted), "--out", str(witness)]) == 0
        assert hashlib.sha256(witness.read_bytes()).hexdigest() == (
            "232e881f3a2242f61cf664cfbac74a75f9d1b298916f78bf3a18951f48837f44"
        )

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

    def test_two_files_build_the_validation_d_once(
        self, monopole_file, tmp_path, capsys, monkeypatch
    ):
        # the two files load as two equal covers; both data are checked on the first
        shifted = tmp_path / "shifted.json"
        argv = ["demo", "monopole", "--m", "12", "--perturb-gauge", "4", "--out", str(shifted)]
        assert main(argv) == 0
        degrees = []
        assemble = bicomplex._coboundary_matrix

        def counted(cover, degree, **kwargs):
            degrees.append(degree)
            return assemble(cover, degree, **kwargs)

        monkeypatch.setattr(bicomplex, "_coboundary_matrix", counted)
        rc = main(["equiv", str(monopole_file), str(shifted)])
        assert rc == 0 and "EQUIVALENT" in capsys.readouterr().out
        # degree 2 validates both data, degree 1 is the solve's
        assert sorted(degrees) == [1, 2]

    def test_huge_level_pair_equivalent_in_bounded_time(self, tmp_path, capsys):
        cover = build_monopole(6).cover
        level = 10**12
        path = tmp_path / "huge-level.json"
        save_datum(path, GerbeDatum(level, TotalCochain(level + 2, {}), cover))
        start = time.perf_counter()
        rc = main(["equiv", str(path), str(path)])
        assert time.perf_counter() - start < 5.0
        assert rc == 0
        assert capsys.readouterr().out.startswith("EQUIVALENT")

    def _pair(self, tmp_path, kind):
        """Files A and B: A is build_monopole(12), B is named by ``kind``."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        datum = build_monopole(12)
        save_datum(a, datum)
        argv = {
            "perturbed": ["--perturb-gauge", "5"],
            "winding-2": ["--winding", "2"],
            "same": [],
        }[kind]
        assert main(["demo", "monopole", "--m", "12", "--out", str(b), *argv]) == 0
        return a, b

    @pytest.mark.parametrize("kind", ["perturbed", "winding-2", "same"])
    def test_shared_cover_answers_as_two_loads(self, tmp_path, capsys, kind):
        a, b = self._pair(tmp_path, kind)
        witness = tmp_path / "witness.json"
        capsys.readouterr()
        rc = main(["equiv", str(a), str(b), "--out", str(witness)])
        out = capsys.readouterr().out
        # the reference: two independent loads, each on its own cover
        first, second = load_datum(a), load_datum(b)
        assert first.cover is not second.cover
        result = gauge_equivalent(first, second, DEFAULT_EQUIVALENCE_TOL)
        verdict = "EQUIVALENT" if result.equivalent else "NOT-FOUND"
        assert out == f"{verdict} (residual {result.residual:.3e})\n"
        assert rc == (0 if result.equivalent else 1)
        assert result.equivalent == (kind != "winding-2")
        if result.equivalent:
            expected = tmp_path / "expected.json"
            save_witness(expected, first.cover, result.witness)
            assert witness.read_bytes() == expected.read_bytes()
        else:
            assert not witness.exists()
        # B's datum lands on A's cover with the coordinates of its own load
        shared = load_pair(a, b)
        assert shared[1].cover is shared[0].cover
        assert shared[1].data == second.data
        assert shared[1]._vector.tobytes() == second._vector.tobytes()

    def test_different_covers_of_one_complex_are_refused(self, monopole_file, tmp_path, capsys):
        cover = load_datum(monopole_file).cover
        swapped = Cover.build(cover.complex, cover.sets[::-1])
        other = tmp_path / "swapped.json"
        save_datum(other, GerbeDatum.zero(swapped, 0))
        assert main(["equiv", str(monopole_file), str(other)]) == 1
        assert capsys.readouterr().err == "error: data live on different covers\n"

    def test_different_complexes_are_refused(self, monopole_file, tmp_path, capsys):
        other = tmp_path / "m24.json"
        save_datum(other, build_monopole(24))
        assert main(["equiv", str(monopole_file), str(other)]) == 1
        assert capsys.readouterr().err == "error: data live on different covers\n"

    @pytest.mark.parametrize(
        "change",
        [
            lambda doc: doc["datum"]["parts"][0]["components"][0]["entries"][0].__setitem__("value", "x"),
            lambda doc: doc.__setitem__("format_version", 2),
            lambda doc: doc["datum"].pop("level"),
            # numerically equal to A's ids but not integers: B's own check names them
            lambda doc: doc["complex"]["simplices"]["0"][1].__setitem__(0, True),
            lambda doc: doc["cover"]["sets"][1].__setitem__(0, float(doc["cover"]["sets"][1][0])),
        ],
        ids=["bad-value", "format-version", "no-level", "bool-vertex", "float-cover-id"],
    )
    def test_malformed_b_with_a_complex_and_cover_exits_2(
        self, monopole_file, tmp_path, capsys, change
    ):
        doc = json.loads(monopole_file.read_text())
        original = json.loads(monopole_file.read_text())
        change(doc)
        assert doc["complex"] == original["complex"] and doc["cover"] == original["cover"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as info:
            load_datum(bad)
        assert main(["equiv", str(monopole_file), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {info.value}\n"

    def test_malformed_json_b_exits_2(self, monopole_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["equiv", str(monopole_file), str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def _call(capsys, argv, *files):
    """Exit code, stdout, stderr of main(argv), and the bytes of each file
    (None if absent), which are removed before the call."""
    for path in files:
        path.unlink(missing_ok=True)
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, [p.read_bytes() if p.exists() else None for p in files]


def _alone(capsys, argv, *files):
    """_call on a newly built parser, as in a new process."""
    cli._parser.cache_clear()
    return _call(capsys, argv, *files)


class TestOneParser:
    def test_main_builds_the_parser_once(self, monopole_file, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        for _ in range(3):
            assert main(["charge", str(monopole_file)]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("case", ["validate-tol", "equiv-out", "demo-flags"])
    def test_a_call_with_flags_leaves_the_next_unchanged(self, tmp_path, capsys, case):
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "out.json"
        save_datum(a, build_monopole(12))
        assert main(["demo", "monopole", "--m", "12", "--perturb-gauge", "3", "--out", str(b)]) == 0
        capsys.readouterr()
        flagged, plain = {
            "validate-tol": (["validate", str(b), "--tol", "1e-3"], ["validate", str(b)]),
            "equiv-out": (["equiv", str(a), str(b), "--out", str(out)], ["equiv", str(a), str(b)]),
            "demo-flags": (
                ["demo", "monopole", "--perturb-gauge", "5", "--winding", "2", "--out", str(out)],
                ["demo", "monopole", "--out", str(out)],
            ),
        }[case]
        alone = [_alone(capsys, argv, out) for argv in (flagged, plain)]
        cli._parser.cache_clear()
        together = [_call(capsys, argv, out) for argv in (flagged, plain)]
        assert together == alone
        assert alone[0] != alone[1]

    def test_environment_tolerance_for_one_call_only(self, monopole_file, capsys, monkeypatch):
        argv = ["validate", str(monopole_file)]
        monkeypatch.setenv("GERBECALC_TOL", "1e-3")
        with_env = _alone(capsys, argv)
        monkeypatch.delenv("GERBECALC_TOL")
        without = _alone(capsys, argv)
        assert "tol=0.001" in with_env[1] and "tol=0.001" not in without[1]
        cli._parser.cache_clear()
        monkeypatch.setenv("GERBECALC_TOL", "1e-3")
        assert _call(capsys, argv) == with_env
        monkeypatch.delenv("GERBECALC_TOL")
        assert _call(capsys, argv) == without

    @pytest.mark.parametrize(
        "usage", [["validate"], ["demo", "nonsense"], ["validate", "x.json", "--tol", "abc"], []]
    )
    def test_usage_error_leaves_the_next_call_unaffected(self, monopole_file, capsys, usage):
        argv = ["validate", str(monopole_file)]
        expected = _alone(capsys, argv)
        cli._parser.cache_clear()
        rc, out, err, _ = _call(capsys, usage)
        assert rc == 2 and out == "" and err.startswith("usage: gerbecalc")
        assert _call(capsys, argv) == expected


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

    def test_negative_trials_are_a_usage_error(self, capsys):
        assert main(["selfcheck", "--trials", "-1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --trials must be non-negative\n")

    def test_break_sign_hook_fails(self, capsys):
        rc = main(["selfcheck", "--trials", "5", "--break-sign"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == "0/5 passed\n"
        # the broken composition has an O(1) residual; K does not read the twist
        assert captured.err == (
            "counterexample at trial 0:\n"
            "  complex: 14 vertices, top dimension 2\n"
            "  cover sets: [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], "
            "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13], "
            "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]]\n"
            "  delta2 residual: 0\n"
            "  d2 residual: 0\n"
            "  anticommute residual: 2\n"
            "  D2 residual: 2\n"
            "  homotopy residual: 0\n"
        )


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


@pytest.mark.parametrize("command", ["validate", "charge", "equiv"])
def test_loading_builds_no_dict_cochain(tmp_path, monkeypatch, capsys, command):
    # files load straight into coordinates; validate, charge and equiv read those.
    # Windings 1 and -1 are not equivalent, so equiv builds no witness, which
    # is a dict cochain
    files = []
    for winding in (1, -1):
        files.append(str(tmp_path / f"gerbe{winding}.json"))
        save_datum(files[-1], build_gerbopole(12, winding))
    built = []
    post_init = Cochain.__post_init__
    monkeypatch.setattr(Cochain, "__post_init__", lambda self: built.append(self) or post_init(self))
    argv = [command, *files] if command == "equiv" else [command, files[0]]
    assert main(argv) == (1 if command == "equiv" else 0)
    assert built == []
    capsys.readouterr()


# where the messages point: the fourth entry of the third component of part 0
# of build_minus_one_gerbe(12), whose entries hold 0-cells
ENTRY = "datum.parts[0].components[2].entries[3]"


def _with_entry(change):
    doc = json.loads(json.dumps(datum_to_dict(build_minus_one_gerbe(12))))
    entries = doc["datum"]["parts"][0]["components"][2]["entries"]
    change(entries)
    return doc


class TestEntryErrors:
    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda es: es[3].pop("simplex"), f"{ENTRY}: missing key 'simplex'"),
            (lambda es: es[3].pop("value"), f"{ENTRY}: missing key 'value'"),
            (lambda es: es.__setitem__(3, [[10], 0.5]), f"{ENTRY}: expected an object"),
            (lambda es: es[3].__setitem__("simplex", 10), f"{ENTRY}.simplex: expected a list"),
            (lambda es: es[3]["simplex"].__setitem__(0, 0.5), f"{ENTRY}.simplex[0]: expected an integer, got 0.5"),
            (lambda es: es[3].__setitem__("value", "0.5"), f"{ENTRY}.value: expected a number"),
            (lambda es: es[3].__setitem__("value", True), f"{ENTRY}.value: expected a number"),
            (lambda es: es[3].__setitem__("value", float("nan")), f"{ENTRY}.value: must be finite"),
            (lambda es: es[3].__setitem__("value", float("inf")), f"{ENTRY}.value: must be finite"),
            (lambda es: es[3].__setitem__("value", 10**400), f"{ENTRY}.value: too large for a float"),
            (lambda es: es[3].__setitem__("simplex", [1]), f"{ENTRY}: duplicate simplex (1,)"),
            # a repeated simplex with a bad value is named for the value
            (lambda es: es.__setitem__(3, {"simplex": [1], "value": None}), f"{ENTRY}.value: expected a number"),
        ],
        ids=[
            "no-simplex", "no-value", "not-an-object", "simplex-not-a-list", "non-integer-id",
            "string-value", "bool-value", "nan", "infinity", "huge-integer", "duplicate",
            "duplicate-non-number",
        ],
    )
    def test_message_names_the_entry(self, change, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            datum_from_dict(_with_entry(change))

    def test_integer_value_is_a_number(self):
        doc = _with_entry(lambda es: es[3].__setitem__("value", 5))
        values = datum_from_dict(doc).data.parts[0, 1].components[(2,)].values
        assert values[(10,)] == 5.0 and type(values[(10,)]) is float

    @pytest.mark.parametrize("command", ["validate", "charge"])
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys, command):
        # 1 followed by 400 zeros: float() overflows, which is a format error
        path = tmp_path / "huge-value.json"
        path.write_text(json.dumps(_with_entry(lambda es: es[3].__setitem__("value", 10**400))))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {ENTRY}.value: too large for a float\n"


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


@pytest.mark.parametrize(
    "winding, code, shown",
    [
        # m = 6 is too coarse for winding -2: skipped with a note, the rest run
        ("-2", 0, "m=  6  skipped: resolution 6 is too coarse for winding -2"),
        ("0", 2, "argument --winding: winding must be a nonzero integer"),
    ],
    ids=["winding-minus-2", "winding-0"],
)
def test_worked_examples_script(winding, code, shown):
    root = Path(__file__).parents[1]
    run = subprocess.run(
        [sys.executable, "scripts/run_examples.py", "--winding", winding],
        capture_output=True, text=True, timeout=120, cwd=root,
    )
    assert run.returncode == code, run.stderr
    assert shown in run.stdout + run.stderr
    assert "Traceback" not in run.stderr


def test_worked_examples_witness_gap_takes_the_angle_rows_modulo_two_pi():
    # the script fails a round trip whose gap exceeds DEFAULT_EQUIVALENCE_TOL
    script = Path(__file__).parents[1] / "scripts/run_examples.py"
    witness_gap = runpy.run_path(str(script))["witness_gap"]
    angle = Cochain(0, {(0,): 2 * math.pi, (1,): -4 * math.pi})
    parts = {(0, 2): BigradedCochain(0, 2, {(0, 1): angle}, angle_valued=True)}
    assert witness_gap(TotalCochain(2, parts), (0, 2)) < 1e-15
    parts[1, 1] = BigradedCochain(1, 1, {(0,): Cochain(1, {(0, 1): -3e-8})})
    assert witness_gap(TotalCochain(2, parts), (0, 2)) == 3e-8 > DEFAULT_EQUIVALENCE_TOL
    # a 2 pi offset off the angle rows is a miss, and so is a value that is not finite
    assert witness_gap(TotalCochain(2, parts), (1, 1)) > 6
    parts[1, 1] = BigradedCochain(1, 1, {(0,): Cochain(1, {(0, 1): math.nan})})
    assert witness_gap(TotalCochain(2, parts), (0, 2)) == math.inf
