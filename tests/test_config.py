import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from brext.bruck_reilly import BRSystem
from brext.config import data_path, group_from_obj, load_system, system_from_obj
from brext.errors import ParseError, ValidationFailed

from conftest import FIXTURES, fault_files


def test_shipped_trivial_loads():
    B = load_system(data_path("trivial"))
    assert len(B.sys.groups) == 1
    assert B.sys.order() == 1
    assert B.with_zero
    assert B.name == "trivial"


def test_shipped_c2c2_loads():
    B = load_system(data_path("c2c2"))
    assert len(B.sys.groups) == 2
    assert B.sys.order() == 4
    assert [g.order for g in B.sys.groups] == [2, 2]
    assert B.sys.groups[0].labels == ("e", "g")
    assert B.sys.groups[1].labels == ("f", "h")


@pytest.mark.parametrize("path,fragment", fault_files(), ids=lambda v: getattr(v, "stem", v))
def test_fault_corpus_fails_validation_with_named_violation(path, fragment):
    with pytest.raises(ValidationFailed) as exc:
        load_system(path)
    assert any(fragment in v for v in exc.value.violations), exc.value.violations
    assert exc.value.name == path.stem  # each fault config is named after its file


# Every violation of every fault config, in order, as the exhaustive scans
# list them: a fast check that passes a faulty system would shorten a list.
FAULT_VIOLATIONS = {
    "bad_bond_composition.json": [
        "bond composition violated for levels (0,1,2) at element 1",
    ],
    "bad_bond_hom.json": [
        "bond (0,1): not a homomorphism at (0,0)",
        "bond (0,1): not a homomorphism at (0,1)",
        "bond (0,1): not a homomorphism at (1,0)",
        "bond (0,1): not a homomorphism at (1,1)",
    ],
    "bad_group_assoc.json": [
        "group 0: associativity violated at (1,1,2)",
        "group 0: associativity violated at (1,2,2)",
        "group 0: associativity violated at (2,1,1)",
        "group 0: associativity violated at (2,2,1)",
    ],
    "bad_group_inverse.json": [
        "group 1: inverse axiom violated for element 1",
        "bond (0,1): not a homomorphism at (1,1)",
        "theta[1]: not a homomorphism at (1,1)",
    ],
    "bad_self_bond.json": [
        "bond (0,0) must be the identity map",
    ],
    "bad_theta.json": [
        "theta[1]: not a homomorphism at (0,0)",
        "theta[1]: not a homomorphism at (0,1)",
        "theta[1]: not a homomorphism at (1,0)",
        "theta[1]: not a homomorphism at (1,1)",
    ],
    "bad_theta_law.json": [
        "theta law violated for a=(0, 1), b=(1, 0)",
        "theta law violated for a=(0, 1), b=(1, 1)",
        "theta law violated for a=(1, 0), b=(0, 1)",
        "theta law violated for a=(1, 1), b=(0, 1)",
    ],
    "missing_bond.json": [
        "missing bonding map for levels (0,2)",
    ],
}


@pytest.mark.parametrize("path", [path for path, _ in fault_files()], ids=lambda v: v.stem)
def test_fault_corpus_reports_the_full_violation_list(path):
    with pytest.raises(ValidationFailed) as exc:
        load_system(path)
    assert exc.value.violations == FAULT_VIOLATIONS[path.name]


def test_ragged_table_is_a_parse_error():
    with pytest.raises(ParseError, match="row 1"):
        load_system(FIXTURES / "malformed_table.json")


def test_invalid_json_is_a_parse_error():
    with pytest.raises(ParseError, match="not valid JSON"):
        load_system(FIXTURES / "junk.json")


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_system(tmp_path / "nope.json")


def test_format_version_must_match(c2c2_obj):
    obj = dict(c2c2_obj, format_version="99")
    with pytest.raises(ParseError, match="format_version"):
        system_from_obj(obj)


def test_required_keys_are_checked(c2c2_obj):
    obj = {k: v for k, v in c2c2_obj.items() if k != "theta"}
    with pytest.raises(ParseError, match="theta"):
        system_from_obj(obj)


def test_group_count_must_match_chain(c2c2_obj):
    obj = dict(c2c2_obj, chain=3)
    with pytest.raises(ParseError, match="chain of size 3"):
        system_from_obj(obj)


def test_bond_keys_are_validated(c2c2_obj):
    obj = dict(c2c2_obj, bonds={"1->0": [0, 1]})
    with pytest.raises(ParseError, match="up the chain"):
        system_from_obj(obj)
    obj = dict(c2c2_obj, bonds={"zero->one": [0, 1]})
    with pytest.raises(ParseError, match="bond key"):
        system_from_obj(obj)
    obj = dict(c2c2_obj, bonds={"0->5": [0, 1]})
    with pytest.raises(ParseError, match="outside chain"):
        system_from_obj(obj)


def test_bond_map_length_must_match_domain(c2c2_obj):
    obj = dict(c2c2_obj, bonds={"0->1": [0]})
    with pytest.raises(ParseError, match="0->1"):
        system_from_obj(obj)


def test_theta_must_cover_every_level(c2c2_obj):
    obj = dict(c2c2_obj, theta=[[0, 1]])
    with pytest.raises(ParseError, match="theta"):
        system_from_obj(obj)


def test_declared_order_cross_checked():
    with pytest.raises(ParseError, match="declared order 3"):
        group_from_obj({"order": 3, "table": [[0, 1], [1, 0]], "identity": 0})


def test_inverse_is_derived_from_the_table_not_read():
    # a stale or hostile "inverse" entry in the file carries no weight
    g = group_from_obj(
        {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0, "inverse": [1, 0]}
    )
    assert g.inverse == (0, 1)


def test_labels_optional_and_checked():
    g = group_from_obj(
        {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0, "labels": ["u", "v"]}
    )
    assert g.labels == ("u", "v")
    with pytest.raises(ParseError, match="label"):
        group_from_obj(
            {"order": 2, "table": [[0, 1], [1, 0]], "identity": 0, "labels": ["u"]}
        )


def test_name_field_wins_filename_is_fallback(tmp_path, c2c2_obj):
    p = tmp_path / "renamed.json"
    p.write_text(json.dumps(c2c2_obj))
    assert load_system(p).name == "c2c2"
    q = tmp_path / "anonymous.json"
    q.write_text(json.dumps({k: v for k, v in c2c2_obj.items() if k != "name"}))
    assert load_system(q).name == "anonymous"


def _one_level(obj, **changes):
    """c2c2 cut down to its top level, so a one-level chain is well formed."""
    return {**obj, "chain": 1, "groups": obj["groups"][:1], "bonds": {}, "theta": [[0, 1]], **changes}


def _with_group(obj, **changes):
    return dict(obj, groups=[dict(g, **changes) for g in obj["groups"]])


def test_one_level_cut_of_c2c2_loads(c2c2_obj):
    assert len(system_from_obj(_one_level(c2c2_obj)).sys.groups) == 1


@pytest.mark.parametrize(
    "damage,fragment",
    [
        (lambda o: dict(o, with_zero="false"), "with_zero"),
        (lambda o: _one_level(o, chain=True), "chain"),
        (lambda o: _with_group(o, table=[[False, True], [True, False]]), "entry"),
        (lambda o: _one_level(o, groups=[{"order": True, "table": [[0]], "identity": 0}], theta=[[0]]), "declared order"),
        (lambda o: _with_group(o, identity=False), "identity"),
        (lambda o: _with_group(o, identity=0.0), "identity"),
        (lambda o: dict(o, bonds={"0->1": [False, True]}), "0->1"),
        (lambda o: dict(o, theta=[[False, True], [0, 1]]), "theta"),
        (lambda o: dict(o, groups=0), "groups"),
        (lambda o: dict(o, bonds={"\u0660->1": [0, 1]}), "bond key"),
        (lambda o: dict(o, name=[[1, [2]]]), "name"),
        (lambda o: dict(o, name=7), "name"),
        (lambda o: dict(o, name=None), "name"),
        (lambda o: dict(o, name=True), "name"),
    ],
    ids=[
        "with_zero_string", "chain_bool", "table_bools", "order_bool", "identity_bool",
        "identity_float", "bond_entry_bool", "theta_entry_bool", "groups_not_list",
        "bond_key_non_ascii_digit", "name_list", "name_int", "name_null", "name_bool",
    ],
)
def test_mistyped_config_values_are_parse_errors(c2c2_obj, damage, fragment):
    with pytest.raises(ParseError, match=fragment):
        system_from_obj(damage(c2c2_obj))


def test_deeply_nested_json_is_a_parse_error(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    with pytest.raises(ParseError, match="not valid JSON"):
        load_system(p)


C2C2_OBJ = json.loads(data_path("c2c2").read_text())


def _node_paths(obj, prefix=()):
    """Path to every value inside obj, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _node_paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(path=st.sampled_from(list(_node_paths(C2C2_OBJ))), value=JSON_VALUES)
def test_fuzzed_config_loads_or_is_refused(path, value):
    obj = copy.deepcopy(C2C2_OBJ)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        assert isinstance(system_from_obj(obj), BRSystem)
    except (ParseError, ValidationFailed):
        pass
