import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from thompsonf import FiniteMeasure, IntervalChain, MarkedSet, PartitionPair, z_family
from thompsonf.cli import main, parse_word
from thompsonf.errors import MalformedInput, MalformedNumber, OutOfRange
from thompsonf.exactnum import MAX_NUMBER_DIGITS, parse_number
from thompsonf.folner import MAX_Z_INDEX, family_to_lines

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_module(*argv, env_extra=None, stdin=None):
    """Run ``python -m thompsonf.cli`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, **(env_extra or {}))
    return subprocess.run(
        [sys.executable, "-m", "thompsonf.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        input=stdin,
        timeout=60,
    )


def write_family(path, family):
    path.write_text("\n".join(family_to_lines(family)) + "\n", encoding="ascii")


GRID = MarkedSet(F(k, 16) for k in range(17))


class TestWordParsing:
    def test_single_generator(self):
        assert parse_word("x0").apply(F(3, 4)) == F(1, 2)

    def test_inverse_and_powers(self):
        assert parse_word("x0 x0^-1").is_identity()
        assert parse_word("x0^2") == parse_word("x0 x0")
        assert parse_word("x0^-2 x0^2").is_identity()
        assert parse_word("x0*x1").breaks == parse_word("x0 x1").breaks

    def test_rejects_garbage(self):
        with pytest.raises(MalformedInput):
            parse_word("x2")
        with pytest.raises(MalformedInput):
            parse_word("x0^")


class TestSimpleCommands:
    def test_tower(self, capsys):
        code, out = run(capsys, "tower", "5")
        assert code == 0
        assert json.loads(out) == {"n": 5, "value": "65536"}

    def test_tower_too_tall_is_precondition(self, capsys):
        assert main(["tower", "7"]) == 3

    def test_eval(self, capsys):
        code, out = run(capsys, "eval", "x0", "7/8")
        assert code == 0
        assert json.loads(out)["image"] == "3/4"

    def test_eval_bad_point(self, capsys):
        assert main(["eval", "x0", "9/8"]) == 2

    def test_eval_caret_exponent_over_bound(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-m", "thompsonf.cli", "eval", "x0", "1/2^4097"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "caret exponent above 4096" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["tower", "6"],
            ["compose", "x0^20000"],
            ["eval", "x0", "1/" + "9" * MAX_NUMBER_DIGITS],
        ],
        ids=["tower", "compose", "eval"],
    )
    def test_result_too_long_to_print_is_precondition(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"more than {MAX_NUMBER_DIGITS} digits" in captured.err

    def test_eval_image_at_digit_bound_parses_back(self, capsys):
        nines = 10 ** (MAX_NUMBER_DIGITS - 1) - 1
        code, out = run(capsys, "eval", "x0", f"1/{nines}")
        assert code == 0
        # x0 halves [0, 1/2], so the image denominator has MAX_NUMBER_DIGITS digits
        assert parse_number(json.loads(out)["image"]) == F(1, 2 * nines)

    @pytest.mark.parametrize("make", [lambda n: "0" * n, lambda n: "1/" + "3" * n])
    def test_eval_digit_bound(self, make):
        assert run_module("eval", "x0", make(MAX_NUMBER_DIGITS)).returncode == 0
        # the refusal holds with Python's own digit limit switched off
        for env_extra in (None, {"PYTHONINTMAXSTRDIGITS": "0"}):
            token = make(MAX_NUMBER_DIGITS + 1)
            result = run_module("eval", "x0", token, env_extra=env_extra)
            assert result.returncode == 2
            assert f"more than {MAX_NUMBER_DIGITS} digits" in result.stderr

    def test_compose(self, capsys):
        code, out = run(capsys, "compose", "x0", "x0^-1")
        assert code == 0
        assert json.loads(out) == {"breaks": [["0", "0"], ["1", "1"]]}

    def test_ball_size(self, capsys):
        code, out = run(capsys, "ball", "1")
        assert code == 0
        assert json.loads(out) == {"radius": 1, "size": 5}

    def test_ball_full_listing(self, capsys):
        code, out = run(capsys, "ball", "1", "--full")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["elements"]) == 5

    def test_ball_radius_limit(self, capsys):
        assert main(["ball", "9"]) == 3
        err = capsys.readouterr().err
        assert "precondition violated: radius 9 exceeds the limit 8" in err

    def test_zfamily_count(self, capsys):
        code, out = run(capsys, "zfamily", "--count", "2")
        assert code == 0
        assert out.splitlines() == ['["0", "3/4", "1"]', '["0", "7/8", "1"]']

    def test_zfamily_explicit_indices(self, capsys):
        code, out = run(capsys, "zfamily", "1")
        assert code == 0
        assert out.splitlines() == ['["0", "7/8", "1"]']

    def test_zfamily_without_indices(self, capsys):
        assert main(["zfamily"]) == 2

    def test_zfamily_huge_count_refused_before_building(self, capsys):
        assert main(["zfamily", "--count", "1000000000000"]) == 2
        assert f"--count must be at most {MAX_Z_INDEX + 1}" in capsys.readouterr().err

    def test_zfamily_index_bound(self, capsys):
        assert main(["zfamily", str(MAX_Z_INDEX + 1)]) == 2
        assert f"indices must be at most {MAX_Z_INDEX}" in capsys.readouterr().err
        with pytest.raises(OutOfRange):
            z_family([MAX_Z_INDEX + 1])

    def test_zfamily_largest_index_reads_back(self, tmp_path):
        written = run_module("zfamily", str(MAX_Z_INDEX))
        assert written.returncode == 0
        family = tmp_path / "z.jsonl"
        family.write_text(written.stdout, encoding="ascii")
        audited = run_module("defect", "--input", str(family))
        assert audited.returncode == 0, audited.stderr
        assert json.loads(audited.stdout)["report"]["family_size"] == 1


class TestBallDefect:
    def test_defect_and_tower_check(self, capsys):
        code, out = run(capsys, "ball", "1", "--defect")
        assert code == 0
        doc = json.loads(out)
        assert doc["size"] == 5
        assert doc["defect_report"]["max_defect"] == "6/5"
        assert doc["defect_report"]["side"] == "left"
        assert doc["tower_check"] == {
            "n": 0,
            "bound": "0",
            "observed_size": 5,
            "consistent": True,
            "constant_c": "2",
        }

    def test_side_and_constant_reach_the_audit(self, capsys):
        code, out = run(
            capsys, "ball", "1", "--defect", "--side", "right", "--constant-c", "3/2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["defect_report"]["side"] == "right"
        assert doc["tower_check"]["constant_c"] == "3/2"

    def test_constant_at_most_one_is_input_error(self, capsys):
        assert main(["ball", "1", "--defect", "--constant-c", "1"]) == 2
        assert "the constant must exceed 1" in capsys.readouterr().err


class TestTof:
    def test_three_point_set(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text('["0","1/2","1"]', encoding="ascii")
        code, out = run(capsys, "tof", "--input", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["t_of"] == ["0", "1/2", "1"]
        assert doc["mesh"] == "1/2"
        assert doc["is_standard"] is True

    def test_degenerate_set(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text('["0","1"]', encoding="ascii")
        code, out = run(capsys, "tof", "--input", str(path))
        assert code == 0
        assert json.loads(out)["t_of"] == ["0", "1"]

    def test_grid_is_fixed(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(GRID.to_strings()), encoding="ascii")
        code, out = run(capsys, "tof", "--input", str(path))
        assert json.loads(out)["t_of"] == GRID.to_strings()

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text('["0","nope","1"]', encoding="ascii")
        assert main(["tof", "--input", str(path)]) == 2

    def test_missing_file(self):
        assert main(["tof", "--input", "/nonexistent/x.json"]) == 2


class TestReduce:
    def test_z_family_fails_mesh_gate(self, tmp_path):
        path = tmp_path / "fam.jsonl"
        write_family(path, z_family(range(4)))
        assert main(["reduce", "--input", str(path), "--epsilon", "1"]) == 3

    def test_grid_family_reduces(self, tmp_path, capsys):
        path = tmp_path / "fam.jsonl"
        write_family(path, {GRID})
        code, out = run(capsys, "reduce", "--input", str(path), "--epsilon", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["reduction"]["element_count"] == 1
        # every generator moves the lone member: count 2, defect 2
        assert all(e["count"] == 2 for e in doc["element_defect"]["generators"])
        assert doc["certificate"]["verdict"] == "PASS"
        assert doc["certificate"]["mesh_ok"] is True

    def test_certificate_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "fam.jsonl"
        write_family(path, {GRID})
        code, out = run(capsys, "reduce", "--input", str(path), "--epsilon", "1/2")
        assert code == 1
        assert json.loads(out)["certificate"]["verdict"] == "FAIL"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "fam.jsonl"
        path.write_text("", encoding="ascii")
        assert main(["reduce", "--input", str(path), "--epsilon", "1"]) == 2

    def test_element_family_rejected(self, tmp_path):
        path = tmp_path / "fam.jsonl"
        path.write_text('{"breaks": [["0","0"],["1","1"]]}\n', encoding="ascii")
        assert main(["reduce", "--input", str(path), "--epsilon", "1"]) == 2

    def test_deterministic_output(self, tmp_path):
        fam = tmp_path / "fam.jsonl"
        write_family(fam, {GRID, MarkedSet(F(k, 32) for k in range(33))})
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["reduce", "--input", str(fam), "--epsilon", "3", "--output", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_workers_identical_output(self, tmp_path):
        fam = tmp_path / "fam.jsonl"
        write_family(fam, {GRID, MarkedSet(F(k, 32) for k in range(33))})
        docs = []
        for workers in ("1", "3"):
            out = tmp_path / f"w{workers}.json"
            code = main(
                [
                    "reduce",
                    "--input",
                    str(fam),
                    "--epsilon",
                    "3",
                    "--workers",
                    workers,
                    "--output",
                    str(out),
                ]
            )
            assert code == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]


class TestDefectCommand:
    def test_marked_family(self, tmp_path, capsys):
        path = tmp_path / "fam.jsonl"
        write_family(path, z_family(range(4)))
        code, out = run(capsys, "defect", "--input", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["kind"] == "marked"
        assert doc["report"]["max_defect"] == "1/2"
        assert doc["report"]["mesh_max"] == "31/32"

    def test_element_family(self, tmp_path, capsys):
        path = tmp_path / "fam.jsonl"
        path.write_text('{"breaks": [["0","0"],["1","1"]]}\n', encoding="ascii")
        code, out = run(capsys, "defect", "--input", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["kind"] == "elements"
        assert doc["report"]["max_defect"] == "2"

    def test_mixed_family_rejected(self, tmp_path):
        path = tmp_path / "fam.jsonl"
        path.write_text(
            '["0","1"]\n{"breaks": [["0","0"],["1","1"]]}\n', encoding="ascii"
        )
        assert main(["defect", "--input", str(path)]) == 2


class TestMeasureMono:
    def test_point_mass(self, tmp_path, capsys):
        measure = tmp_path / "mu.json"
        chain = tmp_path / "chain.json"
        measure.write_text(
            json.dumps(
                [{"partition": ["0", "1/2", "3/4", "7/8", "1"], "weight": "1"}]
            ),
            encoding="ascii",
        )
        chain.write_text(
            json.dumps([["1/4", "3/8"], ["5/8", "15/16"]]), encoding="ascii"
        )
        code, out = run(
            capsys, "measure-mono", "--measure", str(measure), "--chain", str(chain)
        )
        assert code == 0
        assert json.loads(out)["monotone_mass"] == "1"

    def test_bad_measure(self, tmp_path):
        measure = tmp_path / "mu.json"
        chain = tmp_path / "chain.json"
        measure.write_text(
            json.dumps([{"partition": ["0", "1/2", "1"], "weight": "1/2"}]),
            encoding="ascii",
        )
        chain.write_text(json.dumps([["1/4", "3/8"], ["5/8", "7/8"]]), encoding="ascii")
        assert main(["measure-mono", "--measure", str(measure), "--chain", str(chain)]) == 2

    @pytest.mark.parametrize(
        "role,data,error,message",
        [
            ("measure", [{"weight": "1"}], MalformedInput, "a measure must be"),
            ("measure", ["0"], MalformedInput, "a measure must be"),
            ("measure", [["0", "1"]], MalformedInput, "a measure must be"),
            ("measure", {"partition": ["0", "1"]}, MalformedInput, "a measure must be"),
            ("measure", [{"partition": "01", "weight": "1"}], MalformedInput, "a measure"),
            ("measure", [{"partition": ["0", "1"], "weight": 1}], MalformedNumber, "number"),
            ("chain", [["1/4"], ["5/8", "7/8"]], MalformedInput, "a chain must be"),
            ("chain", [["1/8", "1/4", "3/8"]], MalformedInput, "a chain must be"),
            ("chain", ["14", "58"], MalformedInput, "a chain must be"),
            ("chain", 7, MalformedInput, "a chain must be"),
            ("pair", {"domain": ["0", "1"]}, MalformedInput, None),
            ("pair", [["0", "1"], ["0", "1"]], MalformedInput, None),
        ],
    )
    def test_malformed_input_is_typed(self, role, data, error, message, tmp_path, capsys):
        parse = {
            "measure": FiniteMeasure.from_json_list,
            "chain": IntervalChain.from_json_list,
            "pair": PartitionPair.from_json_dict,
        }[role]
        with pytest.raises(error):
            parse(data)
        if message is None:  # no command reads a bare partition pair
            return
        files = {
            "measure": [{"partition": ["0", "1/2", "1"], "weight": "1"}],
            "chain": [["1/4", "3/8"], ["5/8", "7/8"]],
        }
        files[role] = data
        for name, content in files.items():
            (tmp_path / name).write_text(json.dumps(content), encoding="ascii")
        argv = ["--measure", str(tmp_path / "measure"), "--chain", str(tmp_path / "chain")]
        assert main(["measure-mono", *argv]) == 2
        assert message in capsys.readouterr().err


class TestVerifyCommand:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["verify", "--seed", "5", "--cases", "25", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        assert {s["name"] for s in doc["suites"]} >= {
            "generator_sanity",
            "defining_relations",
            "partition_action_composition",
            "action_commutes_with_max_partition",
            "max_partition_mesh_bound",
            "family_reduction_identity",
        }

    def test_same_seed_is_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert (
                main(["verify", "--seed", "9", "--cases", "40", "--output", str(out)])
                == 0
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_different_seed_changes_report(self, tmp_path):
        blobs = []
        for seed in ("9", "10"):
            out = tmp_path / f"s{seed}.json"
            main(["verify", "--seed", seed, "--cases", "40", "--output", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]

    def test_corrupted_table_fails_with_counterexample(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            [
                "verify",
                "--seed",
                "5",
                "--cases",
                "10",
                "--corrupt",
                "--output",
                str(out),
            ]
        )
        assert code == 1
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is False
        failed = [s for s in doc["suites"] if s["failures"]]
        assert failed
        assert any(s["counterexample"] is not None for s in failed)
