import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from brext import verify
from brext.bruck_reilly import ZERO, parse_elem
from brext.cli import entry, main
from brext.config import data_path, load_system
from brext.errors import ValidationFailed

from conftest import FIXTURES, GOLDEN, corrupt, fault_files, plant

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


def test_validate_parse_damage_exits_two(capsys, tmp_path):
    (tmp_path / "list.json").write_text("[]")  # JSON, but not an object
    for bad in (FIXTURES / "junk.json", FIXTURES / "malformed_table.json", tmp_path / "list.json"):
        code, out, err = run(capsys, "validate", "--system", str(bad))
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


def test_window_cap_is_enforced(capsys, tmp_path):
    code, _, err = run(capsys, "idempotents", "--system", C2C2, "--window", "17")
    assert code == 2
    assert "1..16" in err
    # refused before the config loads: a missing config and a faulty one
    # (exit 1 once loaded) give the window's error alone
    refused = (2, "", "error: --window must be within 1..16\n")
    for config in (str(tmp_path / "missing.json"), str(fault_files()[0][0])):
        for cmd in (["idempotents"], ["zeroscan"], ["verify", "--all"]):
            for window in ("0", "17"):
                assert run(capsys, *cmd, "--system", config, "--window", window) == refused, (config, cmd, window)


def test_element_literals_are_refused_before_the_config_loads(capsys, tmp_path):
    # as --window is: a missing config and a faulty one give the literal's error alone
    bad, good = "(1,0:0", "(0,0:0,0)"
    refused = (2, "", f"error: cannot parse extension element {bad!r}\n")
    for config in (str(tmp_path / "missing.json"), str(fault_files()[0][0])):
        for cmd in (["mul", bad, good], ["inv", bad], ["order", good, bad], ["hclass", bad], ["witness", good, bad]):
            assert run(capsys, *cmd, "--system", config) == refused, (config, cmd)


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
    # one line naming what was refused: "error: cannot parse bicyclic element '(\u0663,2)'"
    refused = re.fullmatch(r"error: cannot parse (?:bicyclic element|extension element|box) '(.+)'\n", err)
    assert refused and any(arg.endswith(refused[1]) for arg in argv), err


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


def test_continuity_refuses_an_index_above_the_cap_before_the_config_loads(capsys, tmp_path):
    refused = (2, "", "error: continuity takes indices up to 16, got 17\n")
    for config in (str(tmp_path / "missing.json"), str(fault_files()[0][0])):
        assert run(capsys, "continuity", "--system", config, "(1,0:0,2)", "--exclude", "17,1") == refused, config


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
        ["verify", "--all", "--system", C2C2, "--probe-bound", "64"],
    ],
    ids=["mul-seed", "mul-window", "hclass-probe-bound", "eta-system", "classify-window", "zeroscan-seed", "mul-quiet",
         "verify-probe-bound"],
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


def _lower_left_products(monkeypatch, kernel, culprit):
    """Plant the kernel ("brmul" or "brmul_ids") so that every product with
    the culprit on the left lands one box lower (one row of codes on)."""
    x0 = parse_elem(culprit)
    lowered = {
        "brmul": lambda brmul: lambda B, x, y: (p := brmul(B, x, y))._replace(i=p.i + 1) if x == x0 else brmul(B, x, y),
        "brmul_ids": lambda rows: lambda B, xs, ys, n: (
            [p + B.sys.order() * n if x == x0 else p for p in row] for x, row in zip(xs, rows(B, xs, ys, n))),
    }
    plant(monkeypatch, kernel, lowered[kernel])


@pytest.mark.parametrize("argv,kernel,culprit,message", [
    pytest.param(["hclass", "(1,1:1,0)"], "brmul", "(1,1:0,0)",
                 "error: (1,1:0,0) is not H-related to (1,1:1,0)\n", id="hclass"),
    pytest.param(["idempotents", "--window", "2"], "brmul_ids", "(0,0:0,0)",
                 "error: (0,0:0,0) is not idempotent\n", id="idempotents-square"),
    pytest.param(["idempotents", "--window", "2"], "brmul_ids", "(1,1:0,1)",
                 "error: (1,1:0,1) not strictly below (0,0:0,0)\n", id="idempotents-order"),
])
def test_failed_re_verification_exits_one(capsys, monkeypatch, argv, kernel, culprit, message):
    # the re-verification guard must fail as an error line, never a traceback
    _lower_left_products(monkeypatch, kernel, culprit)
    code, out, err = run(capsys, *argv, "--system", C2C2, "--json")
    assert (code, out, err) == (1, "", message)


@pytest.mark.parametrize("name", ["c2c2", "trivial"])
def test_verify_prints_every_record_when_a_re_verification_fails(capsys, monkeypatch, name):
    # products with (1,0:0,0) on the left land one box lower; on c2c2 that
    # makes hclass refuse the H-class of (1,0:1,0), a refusal that must
    # become a violation, not end verify with no records (on trivial every
    # H-class is one element, whose products agree however wrong they are)
    _lower_left_products(monkeypatch, "brmul", "(1,0:0,0)")
    code, out, err = run(capsys, "verify", "--all", "--system", str(data_path(name)), "--json")
    records = [json.loads(line) for line in out.splitlines()]
    lineup = [json.loads(line).get("suite") for line in golden(f"verify_{name}.ndjson").splitlines()]
    assert (code, err) == (1, "")
    assert [r.get("suite") for r in records] == lineup
    assert records[-1]["op"] == "verify_summary" and not records[-1]["ok"]
    failed = {r["suite"]: r["violations"] for r in records[:-1] if not r["ok"]}
    if name == "c2c2":
        assert "H-class of (1,0:1,0): (1,0:0,0) is not H-related to (1,0:1,0)" in failed["hclass"]
    else:
        assert "hclass" not in failed and "bicyclic_isomorphism" in failed


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


def test_zeroscan_lists_each_pair_whose_product_is_zero(capsys, monkeypatch):
    plant(monkeypatch, "brmul_ids", corrupt(("(0,0:1,1)", "(1,1:0,0)"), lambda B, p: ZERO))
    code, out, err = run(capsys, "zeroscan", "--system", C2C2, "--window", "2", "--json")
    assert (code, json.loads(out)["counterexamples"], err) == (1, [["(0,0:1,1)", "(1,1:0,0)"]], "")


def test_zeroscan_without_zero_exits_two(capsys, tmp_path, c2c2_obj):
    p = tmp_path / "nozero.json"
    p.write_text(json.dumps(dict(c2c2_obj, with_zero=False)))
    code, _, err = run(capsys, "zeroscan", "--system", str(p))
    assert code == 2
    assert "zero" in err


def test_verify_c4c2c2_matches_golden(capsys):
    # the long-orbit system: theta on its one level has tail 2 and cycle 3,
    # and continuity shares each box's work among 16 multipliers
    code, out, err = run(capsys, "verify", "--all", "--system", str(FIXTURES / "c4c2c2.json"), "--window", "2", "--json")
    assert (code, out, err) == (0, golden("verify_c4c2c2.ndjson"), "")


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


def _refused_naming_the_input(capsys, cases, cause):
    for argv, prefix in cases:
        code, out, err = run(capsys, *argv, "--json")
        assert (code, out, err.count("\n")) == (2, "", 1) and err.startswith(f"error: {prefix}{cause}"), (argv, err)


def test_a_file_that_is_not_utf8_is_named_in_its_error(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(b'\xff{"kind": "isolated"}')
    _refused_naming_the_input(capsys, [
        (["validate", "--system", str(path)], f"cannot read {path}: "),
        (["classify", str(path)], f"descriptor file {path}: "),
        (["pushforward", str(path)], f"descriptor file {path}: "),
    ], "'utf-8' codec can't decode byte 0xff in position 0")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
def test_an_integer_over_the_digit_limit_is_named_in_its_error(capsys, tmp_path):
    text = '{"kind": ' + "9" * (sys.get_int_max_str_digits() + 1) + "}"
    path = tmp_path / "input.json"
    path.write_text(text)
    _refused_naming_the_input(capsys, [
        (["validate", "--system", str(path)], f"{path} is not valid JSON: "),
        (["classify", str(path)], f"descriptor file {path}: "),
        (["pushforward", str(path)], f"descriptor file {path}: "),
        (["classify", text], "descriptor: "),
        (["pushforward", text], "descriptor: "),
    ], "Exceeds the limit")


def test_classify_unknown_descriptor_exits_two(capsys):
    code, _, err = run(capsys, "classify", "open_sesame")
    assert code == 2
    assert "descriptor" in err


@pytest.mark.parametrize("cmd", ["classify", "pushforward"])
@pytest.mark.parametrize("text,message", [
    ('{"kind": 5}', "error: unknown descriptor kind 5\n"),
    ('{"kind": "x"}', "error: unknown descriptor kind 'x'\n"),
    ('{"kind": "isolated", "extra": 1}',
     "error: descriptor must be {'kind': ...}, got {'kind': 'isolated', 'extra': 1}\n"),
    # a name over 255 bytes fails the file probe itself, not just the read
    ("x" * 256, f"error: descriptor file {'x' * 256}: [Errno {errno.ENAMETOOLONG}] "
                f"{os.strerror(errno.ENAMETOOLONG)}: {'x' * 256!r}\n"),
], ids=["int-kind", "unknown-kind", "extra-key", "name-of-256-characters"])
def test_a_malformed_descriptor_exits_two_with_one_error_line(capsys, cmd, text, message):
    assert run(capsys, cmd, text, "--json") == (2, "", message)


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


def test_a_fault_inside_hclass_is_reported_not_refused(capsys, monkeypatch):
    # a ValueError out of hclass on a valid system is the program's fault:
    # the hclass record names it, every record prints and the run exits 1
    def broken(B, x):
        raise ValueError(f"group coordinate {tuple(x.s)} is not an element of T")

    s3c2 = str(FIXTURES / "s3c2.json")
    _, want, _ = run(capsys, "verify", "--all", "--system", s3c2, "--window", "2")
    plant(monkeypatch, "hclass", lambda hclass: broken)
    code, out, err = run(capsys, "verify", "--all", "--system", s3c2, "--window", "2")
    assert code == 1 and "error:" not in err
    got, records = [json.loads(line) for line in out.splitlines()], [json.loads(line) for line in want.splitlines()]
    assert [r.get("suite") for r in got] == [r.get("suite") for r in records]
    assert [r.get("suite", r["op"]) for r in got if not r["ok"]] == ["hclass", "verify_summary"]
    assert got[-1]["failed"] == 1
    hclass = next(r for r in got if r["suite"] == "hclass")
    assert hclass["violations"][0] == "H-class of (0,0:0,0): group coordinate (0, 0) is not an element of T"
    assert len(hclass["violations"]) == verify.MAX_REPORTED + 1


def test_a_suite_that_raises_is_reported_not_refused(capsys, monkeypatch):
    # (0,0:1,1)*(1,1:0,1) with its second index 2w = 6 too high: the window's second
    # pass refuses its width, and each suite that reads the window reports that
    plant(monkeypatch, "brmul_ids", corrupt(("(0,0:1,1)", "(1,1:0,1)"), lambda B, p: p._replace(j=p.j + 6)))
    code, out, err = run(capsys, "verify", "--all", "--system", C2C2, "--window", "3", "--json")
    records = [json.loads(line) for line in out.splitlines()]
    assert (code, len(records), err) == (1, 18, "")
    assert {r["suite"]: r["violations"] for r in records[:-1] if not r["ok"]} == {
        suite: [f"{suite} could not finish: ValueError: code width 9 is too small for second indices summing to 9"]
        for suite in ("associativity", "inverse_axioms", "eta_homomorphism", "eta_congruence", "nat_order", "hclass")}


def test_verify_fault_config_exits_one(capsys):
    path, fragment = fault_files()[0]
    code, out, _ = run(capsys, "verify", "--all", "--system", str(path))
    assert code == 1
    rec = json.loads(out)
    assert rec["ok"] is False and rec["op"] == "verify"
    assert any(fragment in v for v in rec["violations"])


def test_a_failed_config_is_reported_under_its_own_name(capsys, tmp_path):
    obj = json.loads(fault_files()[0][0].read_text())
    renamed = tmp_path / "bar.json"
    renamed.write_text(json.dumps(dict(obj, name="foo")))
    for cmd in (["validate"], ["verify", "--all"]):
        code, out, _ = run(capsys, *cmd, "--system", str(renamed), "--json")
        assert code == 1
        assert json.loads(out)["system"] == "foo"


@pytest.mark.parametrize("alias", ["00->1", "0->1\n"], ids=["leading-zero", "trailing-newline"])
@pytest.mark.parametrize("alias_first", [True, False], ids=["alias-first", "alias-last"])
def test_a_second_spelling_of_a_bond_key_is_refused(capsys, tmp_path, c2c2_obj, alias, alias_first):
    # once both keys named bond (0,1) and the later one won: with the trivial
    # map last the config failed the theta law, with it first it loaded
    bonds = [(alias, [0, 0]), ("0->1", [0, 1])]
    p = tmp_path / "alias.json"
    p.write_text(json.dumps(dict(c2c2_obj, bonds=dict(bonds if alias_first else bonds[::-1]))))
    assert run(capsys, "validate", "--system", str(p)) == (2, "", f"error: bond key {alias!r} is not of the form 'a->b'\n")


# Queries at indices far past any window, and the window scans at their
# cap, each in bounded time.  zeroscan at the cap runs brmul_ids at width 32
# on 1,048,576 pairs; idempotents certifies its chain in one brmul_ids pass;
# continuity at the index cap solves each excluded box's preimage by
# max-plus residuation; verify --all at window 5 checks 21^4 bicyclic
# products against the max-plus image, past the window the goldens pin.
@pytest.mark.parametrize("system,argv", [
    (C2C2, ["order", "(1000000,1:1,1000000)", "(0,0:1,0)"]),
    (C2C2, ["mul", "(1000000,0:1,5)", "(5,1:1,1000000)"]),
    (C2C2, ["inv", "(1000000,0:1,999999)"]),
    (C2C2, ["hclass", "(1000000,1:1,1000000)"]),
    (C2C2, ["witness", "(1000000,0:1,1000000)", "(1000000,1:1,999999)"]),
    (C2C2, ["zeroscan", "--window", "16"]),
    (C2C2, ["idempotents", "--window", "16"]),
    (TRIVIAL, ["idempotents", "--window", "16"]),
    (C2C2, ["continuity", "(16,1:1,16)", "--side", "left", "--exclude", "16,16", "--exclude", "0,16", "--exclude", "16,0"]),
    (C2C2, ["continuity", "(16,1:1,16)", "--side", "right", "--exclude", "16,16", "--exclude", "0,16", "--exclude", "16,0"]),
    (C2C2, ["verify", "--all", "--window", "5"]),
    (TRIVIAL, ["verify", "--all", "--window", "5"]),
], ids=[
    "order", "mul", "inv", "hclass", "witness", "zeroscan-16", "idempotents-16", "idempotents-16-trivial",
    "continuity-left", "continuity-right", "verify-5", "verify-5-trivial",
])
def test_one_off_queries_and_capped_scans_finish(capsys, system, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv, "--system", system, "--json")
    assert (code, err) == (0, "")
    assert time.perf_counter() - t0 < 60


def _cyclic(n, corrupt=False):
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    if corrupt:
        table[3][5] = 0
    return {"order": n, "table": table, "identity": 0}


def _chain(groups, bonds, theta):
    return {"format_version": "1", "chain": len(groups), "groups": groups, "bonds": bonds, "theta": theta}


# Every command validates its config first.  C512 (theta x -> 3x) at the
# order cap bounds the group checks, Light's associativity test and the hom
# law a row at a time; with table[3][5] = 0 it fails Light's test and lists
# its 2,044 violations by comparing rows.  200 trivial levels bound the
# checks over 19,900 bonds; 1,000 levels with no bonds bound the
# missing-bond path, which lists 499,500 bonds and walks only the bonds the
# config holds.
LARGE_CONFIGS = {
    "c512": lambda: _chain([_cyclic(512)], {}, [[3 * x % 512 for x in range(512)]]),
    "c512_faulty": lambda: _chain([_cyclic(512, corrupt=True)], {}, [[3 * x % 512 for x in range(512)]]),
    "trivial200": lambda: _chain(
        [_cyclic(1)] * 200, {f"{a}->{b}": [0] for a in range(200) for b in range(a + 1, 200)}, [[0]] * 200
    ),
    "nobond1000": lambda: _chain([_cyclic(1)] * 1000, {}, [[0]] * 1000),
}


@pytest.mark.parametrize("name,expected", [("c512", 0), ("c512_faulty", 1), ("trivial200", 0), ("nobond1000", 1)])
def test_validation_at_the_order_cap_and_on_long_chains_finishes(capsys, tmp_path, name, expected):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(LARGE_CONFIGS[name]()))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "validate", "--system", str(p), "--json")
    assert (code, err) == (expected, "")
    assert time.perf_counter() - t0 < 60
    assert json.loads(out)["ok"] is (expected == 0)


def test_a_failed_config_lists_violations_as_a_verify_record_does(capsys, tmp_path):
    # 100 levels without bonds miss 4,950 bonds: the record lists the first
    # twelve and a count, and the exception keeps every one
    p = tmp_path / "nobond100.json"
    p.write_text(json.dumps(_chain([_cyclic(1)] * 100, {}, [[0]] * 100)))
    missing = [f"missing bonding map for levels ({a},{b})" for a in range(100) for b in range(a + 1, 100)]
    for cmd in (["validate"], ["verify", "--all"]):
        code, out, err = run(capsys, *cmd, "--system", str(p))
        assert (code, err) == (1, f"{cmd[0]} nobond100: 4950 violations\n")
        assert json.loads(out)["violations"] == missing[:12] + ["... 4938 more"]
    with pytest.raises(ValidationFailed) as exc:
        load_system(p)
    assert exc.value.violations == missing


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_stdout_is_identical_with_and_without_json_flag(capsys):
    _, plain, err_plain = run(capsys, "mul", "(2,3)", "(1,4)")
    _, quiet, err_quiet = run(capsys, "mul", "(2,3)", "(1,4)", "--json")
    assert plain == quiet
    assert err_plain != "" and err_quiet == ""


def test_console_script_entry_point(capsys, monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-m", "brext.cli", "validate", "--system", C2C2, "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
    monkeypatch.setattr(sys, "argv", ["brext"])  # the console script's entry point, with no command
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == 2 and "required: cmd" in capsys.readouterr().err


def test_every_exported_name_resolves():
    import brext

    assert len(set(brext.__all__)) == len(brext.__all__)
    for name in brext.__all__:
        assert hasattr(brext, name), name


def run_in_process(*argv):
    """cli.main with stdout and stderr captured, for tests that draw many
    commands in one test function."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


LITERAL = re.compile(r"\((\d+),(\d+:\d+),(\d+)\)")


def shifted(text: str, n: int) -> str:
    """text with every element literal (i,l:e,j) moved to (i+n,l:e,j+n)."""
    return LITERAL.sub(lambda m: f"({int(m[1]) + n},{m[2]},{int(m[3]) + n})", text)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_a_shifted_query_answers_the_shifted_record(c2c2, s3c2, data):
    # sigma_N(i, s, j) = (i + N, s, j + N) commutes with the product, the
    # inverse, the natural order, H-classes and the simplicity witness, and
    # keeps every index gap: a query near N = 10^12 has the small-index
    # query as its exact oracle
    system, B = data.draw(st.sampled_from([(C2C2, c2c2), (str(FIXTURES / "s3c2.json"), s3c2)]))
    cmd, arity = data.draw(st.sampled_from([("mul", 2), ("inv", 1), ("order", 2), ("hclass", 1), ("witness", 2)]))
    small = st.integers(0, 6)
    parts = data.draw(st.lists(st.sampled_from(B.sys.compiled.elements), min_size=arity, max_size=arity))
    operands = [f"({data.draw(small)},{s.level}:{s.elem},{data.draw(small)})" for s in parts]
    n = data.draw(st.integers(0, 10**12))
    code, want, err = run_in_process(cmd, "--system", system, *operands, "--json")
    assert (code, err) == (0, "")
    t0 = time.perf_counter()
    got = run_in_process(cmd, "--system", system, *(shifted(x, n) for x in operands), "--json")
    assert time.perf_counter() - t0 < 5
    assert got == (0, shifted(want, n), "")
