import json
import subprocess
import sys

import pytest

from brext.cli import main
from brext.config import data_path

from conftest import FIXTURES, GOLDEN, fault_files

C2C2 = str(data_path("c2c2"))
TRIVIAL = str(data_path("trivial"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def test_mul_worked_example_matches_golden(capsys):
    code, out, _ = run(capsys, "mul", "--system", C2C2, "(0,0:1,1)", "(2,1:1,0)")
    assert code == 0
    assert out == golden("mul_c2c2.ndjson")
    assert json.loads(out)["result"] == "(1,1:0,0)"


def test_mul_without_system_is_bicyclic(capsys):
    code, out, _ = run(capsys, "mul", "(2,3)", "(1,4)")
    assert code == 0
    assert out == '{"inputs":["(2,3)","(1,4)"],"ok":true,"op":"mul","result":"(2,6)"}\n'


@pytest.mark.parametrize(
    "argv,record",
    [
        (["inv", "(2,3)"], '{"inputs":["(2,3)"],"ok":true,"op":"inv","result":"(3,2)"}'),
        (["eta", "0"], '{"inputs":["0"],"ok":true,"op":"eta","result":"0"}'),
        (["mul", "0", "(2,3)"], '{"inputs":["0","(2,3)"],"ok":true,"op":"mul","result":"0"}'),
    ],
    ids=["inv", "eta-zero", "mul-zero"],
)
def test_bicyclic_paths_print_the_same_bytes(capsys, argv, record):
    assert run(capsys, *argv, "--json") == (0, record + "\n", "")


def test_mul_rejects_triple_syntax_without_system(capsys):
    code, out, err = run(capsys, "mul", "(0,0:1,1)", "(2,1:1,0)")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_inv_both_domains(capsys):
    code, out, _ = run(capsys, "inv", "(5,2)")
    assert (code, json.loads(out)["result"]) == (0, "(2,5)")
    code, out, _ = run(capsys, "inv", "--system", C2C2, "(3,1:1,7)")
    assert (code, json.loads(out)["result"]) == (0, "(7,1:1,3)")


def test_eta(capsys):
    code, out, _ = run(capsys, "eta", "(3,1:1,7)")
    assert (code, json.loads(out)["result"]) == (0, "(3,7)")


def test_order_reports_both_routes(capsys):
    code, out, _ = run(capsys, "order", "--system", C2C2, "(3,0:0,4)", "(1,0:0,2)")
    rec = json.loads(out)
    assert code == 0
    assert rec["result"] is True and rec["oracle"] is True and rec["ok"] is True
    code, out, _ = run(capsys, "order", "--system", C2C2, "(1,0:0,2)", "(3,0:0,4)")
    assert code == 0
    assert json.loads(out)["result"] is False


def test_order_rejects_group_coordinate_outside_t(capsys):
    for cmd in ("order", "mul"):
        code, out, err = run(capsys, cmd, "--system", C2C2, "--json", "(1,0:7,1)", "(1,0:0,1)")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "(0, 7)" in err


@pytest.mark.parametrize("exclude", [[], ["--exclude", "0,0"]], ids=["whole-space", "excluding"])
def test_continuity_rejects_multiplier_outside_t(capsys, exclude):
    # no product of this multiplier can reach an excluded box here, so
    # only the up-front check on the multiplier refuses it
    code, out, err = run(capsys, "continuity", "--system", C2C2, "(1,0:7,1)", *exclude)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "(0, 7)" in err


def test_validate_ok_matches_golden(capsys):
    code, out, _ = run(capsys, "validate", "--system", C2C2)
    assert code == 0
    assert out == golden("validate_c2c2.ndjson")


@pytest.mark.parametrize("path,fragment", fault_files(), ids=lambda v: getattr(v, "stem", v))
def test_validate_fault_corpus_exits_one_with_violations(capsys, path, fragment):
    code, out, _ = run(capsys, "validate", "--system", str(path))
    assert code == 1
    rec = json.loads(out)
    assert rec["ok"] is False
    assert any(fragment in v for v in rec["violations"])


def test_validate_parse_damage_exits_two(capsys):
    for bad in ("junk.json", "malformed_table.json"):
        code, out, err = run(capsys, "validate", "--system", str(FIXTURES / bad))
        assert code == 2
        assert out == ""
        assert "error:" in err


def test_missing_system_flag_exits_two(capsys):
    code, out, err = run(capsys, "order", "(0,0:0,0)", "(0,0:0,0)")
    assert code == 2
    assert "needs --system" in err


def test_idempotents_matches_golden(capsys):
    code, out, _ = run(capsys, "idempotents", "--system", C2C2, "--window", "2")
    assert code == 0
    assert out == golden("idempotents_c2c2.ndjson")


def test_window_cap_is_enforced(capsys):
    code, _, err = run(capsys, "idempotents", "--system", C2C2, "--window", "17")
    assert code == 2
    assert "1..16" in err


@pytest.mark.parametrize("bound", ["-1", "0", "1"])
def test_probe_bound_below_two_exits_two(capsys, bound):
    code, out, err = run(capsys, "verify", "--all", "--system", C2C2, "--probe-bound", bound)
    assert code == 2
    assert out == ""
    assert err == "error: --probe-bound must be at least 2\n"


def test_probe_bound_two_is_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--system", TRIVIAL, "--window", "1", "--probe-bound", "2")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["ok"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "--system", C2C2, "(\u0663,0:0,1)", "(0,0:0,1)"],
        ["mul", "(\u0663,2)", "(1,4)"],
        ["eta", "(1,0:0,\u0663)"],
        ["continuity", "--system", C2C2, "(1,0:0,2)", "--exclude", "\u0663,2"],
        ["continuity", "--system", C2C2, "(1,0:0,2)", "--exclude", "1_0,+5"],
        ["continuity", "--system", C2C2, "(1,0:0,2)", "--exclude=-1,5"],
        ["pushforward", "excluded_boxes", "--exclude", "\u0663,2"],
        ["pushforward", "excluded_boxes", "--exclude", "1_0,+5"],
        ["pushforward", "excluded_boxes", "--exclude=-1,5"],
    ],
    ids=[
        "triple", "pair", "eta", "continuity-box", "continuity-box-underscore-sign",
        "continuity-box-negative", "pushforward-box", "pushforward-box-underscore-sign",
        "pushforward-box-negative",
    ],
)
def test_non_ascii_digits_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse")


@pytest.mark.parametrize(
    "a,box",
    [("(1,0:0,2)", "17,1"), ("(1,0:0,2)", "400,1"), ("(300,0:0,2)", "1,5"), ("(1,0:0,17)", "1,5")],
    ids=["box-17", "box-400", "multiplier-300", "multiplier-17"],
)
def test_continuity_refuses_indices_above_the_window_cap(capsys, a, box):
    code, out, err = run(capsys, "continuity", "--system", C2C2, a, "--exclude", box)
    assert code == 2
    assert out == ""
    assert err.startswith("error: continuity takes indices up to 16") and err.count("\n") == 1


def test_continuity_at_the_window_cap_is_accepted(capsys):
    code, out, _ = run(capsys, "continuity", "--system", C2C2, "(16,0:0,16)", "--exclude", "(16,16)")
    assert code == 0
    assert json.loads(out)["target_excluded"] == [[16, 16]]


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "--seed", "3", "(1,2)", "(2,1)"],
        ["mul", "--window", "2", "(1,2)", "(2,1)"],
        ["hclass", "--probe-bound", "8", "--system", C2C2, "(1,0:1,2)"],
        ["eta", "--system", C2C2, "(3,1:1,7)"],
        ["classify", "--window", "2", "isolated"],
        ["zeroscan", "--seed", "1", "--system", C2C2],
        ["mul", "--quiet", "(1,2)", "(2,1)"],
    ],
    ids=["mul-seed", "mul-window", "hclass-probe-bound", "eta-system", "classify-window", "zeroscan-seed", "mul-quiet"],
)
def test_flag_the_command_does_not_read_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_deeply_nested_config_exits_two_without_traceback(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    code, out, err = run(capsys, "validate", "--system", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_hclass(capsys):
    code, out, _ = run(capsys, "hclass", "--system", C2C2, "(1,0:1,2)")
    assert code == 0
    assert json.loads(out)["result"] == ["(1,0:0,2)", "(1,0:1,2)"]


@pytest.mark.parametrize("argv,culprit,message", [
    pytest.param(["hclass", "(1,1:1,0)"], "(1,1:0,0)",
                 "error: (1,1:0,0) is not H-related to (1,1:1,0)\n", id="hclass"),
    pytest.param(["idempotents", "--window", "2"], "(0,0:0,0)",
                 "error: (0,0:0,0) is not idempotent\n", id="idempotents-square"),
    pytest.param(["idempotents", "--window", "2"], "(1,1:0,1)",
                 "error: idempotents (0,0:0,0) and (1,1:0,1) out of order\n", id="idempotents-order"),
])
def test_failed_re_verification_exits_one(capsys, monkeypatch, argv, culprit, message):
    # a product of the culprit on the left lands one box lower: the
    # re-verification guard must fail as an error line, never a traceback
    from brext import bruck_reilly

    original, x0 = bruck_reilly.brmul, bruck_reilly.parse_elem(culprit)

    def corrupted(B, x, y):
        p = original(B, x, y)
        return p._replace(i=p.i + 1) if x == x0 else p

    monkeypatch.setattr(bruck_reilly, "brmul", corrupted)
    code, out, err = run(capsys, *argv, "--system", C2C2, "--json")
    assert (code, out, err) == (1, "", message)


def test_witness_matches_golden(capsys):
    code, out, _ = run(capsys, "witness", "--system", C2C2, "(0,0:1,1)", "(3,1:1,2)")
    assert code == 0
    assert out == golden("witness_c2c2.ndjson")


def test_witness_rejects_zero(capsys):
    code, out, err = run(capsys, "witness", "--system", C2C2, "0", "(0,0:0,0)")
    assert code == 2
    assert "error:" in err


def test_zeroscan(capsys):
    code, out, _ = run(capsys, "zeroscan", "--system", C2C2, "--window", "2")
    rec = json.loads(out)
    assert code == 0
    assert rec["counterexamples"] == [] and rec["checked"] == 256


def test_zeroscan_without_zero_exits_two(capsys, tmp_path, c2c2_obj):
    p = tmp_path / "nozero.json"
    p.write_text(json.dumps(dict(c2c2_obj, with_zero=False)))
    code, _, err = run(capsys, "zeroscan", "--system", str(p))
    assert code == 2
    assert "zero" in err


def test_continuity_matches_golden(capsys):
    code, out, _ = run(
        capsys, "continuity", "--system", C2C2, "(1,0:0,2)", "--side", "left",
        "--exclude", "1,5",
    )
    assert code == 0
    assert out == golden("continuity_c2c2.ndjson")
    rec = json.loads(out)
    assert rec["found_excluded"] == [[0, 3], [1, 4], [2, 5]]


def test_continuity_right_side(capsys):
    code, out, _ = run(
        capsys, "continuity", "--system", C2C2, "(1,0:0,2)", "--side", "right",
        "--exclude", "3,2",
    )
    assert code == 0
    assert json.loads(out)["found_excluded"] == [[2, 0], [3, 1]]


def test_classify_matches_goldens(capsys):
    code, out, _ = run(capsys, "classify", "excluded_boxes")
    assert (code, out) == (0, golden("classify_excluded.ndjson"))
    code, out, _ = run(capsys, "classify", "isolated")
    assert (code, out) == (0, golden("classify_isolated.ndjson"))
    code, out, _ = run(capsys, "classify", '{"kind": "isolated"}')
    assert code == 0 and json.loads(out)["verdict"] == "isolated_zero"


def test_classify_reads_a_descriptor_file_and_refuses_bad_input(capsys, tmp_path):
    desc = tmp_path / "desc.json"
    desc.write_text('{"kind": "isolated"}')
    code, out, _ = run(capsys, "classify", str(desc), "--json")
    assert (code, out) == (0, golden("classify_isolated.ndjson"))
    code, _, err = run(capsys, "classify", '{"kind": "isolated"')
    assert code == 2 and "error: descriptor:" in err
    code, _, err = run(capsys, "classify", str(tmp_path))
    assert code == 2 and f"error: descriptor file {tmp_path}:" in err


def test_classify_unknown_descriptor_exits_two(capsys):
    code, _, err = run(capsys, "classify", "open_sesame")
    assert code == 2
    assert "descriptor" in err


def test_pushforward_matches_golden(capsys):
    code, out, _ = run(
        capsys, "pushforward", "excluded_boxes", "--exclude", "1,2", "--exclude", "0,4"
    )
    assert code == 0
    assert out == golden("pushforward_excluded.ndjson")


def test_verify_needs_all_flag(capsys):
    code, _, err = run(capsys, "verify", "--system", C2C2)
    assert code == 2
    assert "--all" in err


def test_verify_all_small_window_passes(capsys):
    for system in (C2C2, TRIVIAL):
        code, out, _ = run(capsys, "verify", "--all", "--system", system, "--window", "2")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1]["op"] == "verify_summary"
        assert lines[-1]["failed"] == 0
        assert all(rec["ok"] for rec in lines)


def test_verify_fault_config_exits_one(capsys):
    path, fragment = fault_files()[0]
    code, out, _ = run(capsys, "verify", "--all", "--system", str(path))
    assert code == 1
    rec = json.loads(out)
    assert rec["ok"] is False and rec["op"] == "verify"
    assert any(fragment in v for v in rec["violations"])


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_stdout_is_identical_with_and_without_json_flag(capsys):
    _, plain, err_plain = run(capsys, "mul", "(2,3)", "(1,4)")
    _, quiet, err_quiet = run(capsys, "mul", "(2,3)", "(1,4)", "--json")
    assert plain == quiet
    assert err_plain != "" and err_quiet == ""


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "brext.cli", "validate", "--system", C2C2, "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_every_exported_name_resolves():
    import brext

    assert len(set(brext.__all__)) == len(brext.__all__)
    for name in brext.__all__:
        assert hasattr(brext, name), name
