"""Specification loading: YAML structure, facets, semantic checks."""

import pytest

from aspcheck.hooks import HookScript, run_prelude
from aspcheck.schema import (
    INT32_MAX,
    INT32_MIN,
    Facets,
    PrimitiveType,
    SpecError,
    check_spec,
    load_spec,
    normalize_facets,
    parse_spec,
)
from aspcheck.terms import Const, Number, Str

from _support import FIXTURES, fixture_text, load_fixture

INCOME = """
income:
    company: String
    amount:
        type: Integer
        min: 0
        sum+: Integer
"""


class TestLoadSpec:
    def test_income_definition(self):
        spec = load_spec(INCOME)
        income = spec.definitions["income"]
        assert income.arity == 2
        company, amount = income.fields
        assert company.type is PrimitiveType.STRING
        assert company.position == 0
        assert amount.type is PrimitiveType.INTEGER
        assert amount.facets.min == 0
        assert amount.facets.sum_pos == (0, 2147483647)

    def test_bday_type_reference(self):
        spec = load_fixture("bday.yaml")
        assert set(spec.definitions) == {"date", "bday"}
        assert spec.definitions["bday"].fields[1].type == "date"
        assert isinstance(spec.definitions["date"].after_init, HookScript)

    def test_reserved_field_name_rejected(self):
        with pytest.raises(SpecError, match="reserved"):
            load_spec("pred:\n    valasp: Integer\n    x: Integer\n")

    def test_shorthand_equals_explicit_type(self):
        short = load_spec("p:\n    a: Integer\n")
        explicit = load_spec("p:\n    a: {type: Integer}\n")
        assert short == explicit

    def test_field_positions_follow_source_order(self):
        spec = load_spec("p:\n    f0: Integer\n    f1: String\n    f2: Any\n")
        positions = {f.name: f.position for f in spec.definitions["p"].fields}
        assert positions == {"f0": 0, "f1": 1, "f2": 2}

    def test_loading_is_deterministic(self):
        text = fixture_text("knight.yaml")
        assert load_spec(text) == load_spec(text)

    def test_duplicate_field_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            load_spec("p:\n    a: Integer\n    a: String\n")

    def test_duplicate_symbol_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            load_spec("p:\n    a: Integer\np:\n    b: Integer\n")

    def test_definition_needs_a_field(self):
        with pytest.raises(SpecError, match="at least one field"):
            load_spec("p:\n    valasp:\n        having: []\n")

    def test_unknown_type_reference(self):
        with pytest.raises(SpecError, match="unknown type reference"):
            load_spec("p:\n    a: nowhere\n")

    def test_cyclic_type_reference(self):
        with pytest.raises(SpecError, match="cyclic"):
            load_spec("date:\n    inner: date\n")

    def test_mutual_cycle(self):
        with pytest.raises(SpecError, match="cyclic"):
            load_spec("a:\n    x: b\nb:\n    y: a\n")

    def test_unknown_facet(self):
        with pytest.raises(SpecError, match="unknown facet"):
            load_spec("p:\n    a:\n        type: Integer\n        'sum*': Integer\n")

    def test_asp_block_carried_verbatim(self):
        spec = load_fixture("poset.yaml")
        assert 'lost("reflexivity", X)' in spec.asp_program

    def test_having_parsed(self):
        spec = load_fixture("ordered_triple.yaml")
        having = spec.definitions["ordered_triple"].having
        assert [str(h) for h in having] == ["first < second", "second < third"]

    def test_bad_having_shape(self):
        with pytest.raises(SpecError, match="field OP field"):
            load_spec("p:\n    a: Integer\n    valasp:\n        having: ['a <']\n")

    def test_unknown_symbol_block_key(self):
        with pytest.raises(SpecError, match="unknown keys"):
            load_spec("p:\n    a: Integer\n    valasp:\n        after: |+\n            x = 1\n")

    def test_not_yaml(self):
        with pytest.raises(SpecError, match="not valid YAML"):
            load_spec("p: [unclosed\n")

    def test_top_level_scalar_rejected(self):
        with pytest.raises(SpecError, match="mapping"):
            load_spec("just a string")

    def test_uppercase_symbol_rejected(self):
        with pytest.raises(SpecError, match="not a valid predicate name"):
            load_spec("Pred:\n    a: Integer\n")

    def test_script_prelude(self):
        spec = load_spec("valasp:\n    script: |+\n        limit = 3\np:\n    a: Integer\n")
        assert isinstance(spec.prelude, HookScript)
        assert run_prelude(spec.prelude) == {"limit": 3}

    def test_python_alias_accepted_when_it_parses(self):
        spec = load_spec("valasp:\n    python: |+\n        limit = 3\np:\n    a: Integer\n")
        assert isinstance(spec.prelude, HookScript)
        assert run_prelude(spec.prelude) == {"limit": 3}

    def test_python_alias_rejected_with_migration_hint(self):
        with pytest.raises(SpecError, match="deprecated alias"):
            load_spec("valasp:\n    python: |+\n        import datetime\n"
                      "p:\n    a: Integer\n")

    def test_hook_syntax_error_reported_with_location(self):
        with pytest.raises(SpecError, match="after_init"):
            load_spec("p:\n    a: Integer\n    valasp:\n"
                      "        after_init: |+\n            if self.a >:\n")

    def test_bad_hook_fails_parse_spec(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("p:\n    a: Integer\n    valasp:\n"
                       "        after_init: |+\n            if self.a >:\n")
        [diag] = exc.value.diagnostics
        assert (diag.phase, diag.symbol, diag.rule) == ("spec-load", "p", "script-syntax")
        assert diag.message == ("p.valasp.after_init: expected an expression,"
                                " got ':' (line 1, column 12)")

    def test_bad_python_prelude_fails_parse_spec_with_hint(self):
        with pytest.raises(SpecError) as exc:
            parse_spec("valasp:\n    python: |+\n        import datetime\n")
        [diag] = exc.value.diagnostics
        assert (diag.symbol, diag.rule) == ("", "script-syntax")
        assert diag.message == (
            "valasp.python: expected end of line, got 'datetime' (line 1, column 8)"
            " (the 'python' key is a deprecated alias: rename it to 'script'"
            " and write the body in the validation script language)")

    def test_every_fixture_loads_clean(self):
        for path in sorted(FIXTURES.glob("*.yaml")):
            load_spec(path.read_text(encoding="utf-8"))


class TestNormalizeFacets:
    def test_integer_defaults(self):
        facets = normalize_facets({}, PrimitiveType.INTEGER)
        assert facets == Facets(min=INT32_MIN, max=INT32_MAX)
        assert facets.min == -2147483648
        assert facets.max == 2147483647

    def test_sum_pos_sugar(self):
        facets = normalize_facets({"min": 0, "sum+": "Integer"}, PrimitiveType.INTEGER)
        assert facets.sum_pos == (0, 2147483647)
        assert facets.min == 0

    def test_sum_pos_scalar_bound(self):
        facets = normalize_facets({"sum+": 1000}, PrimitiveType.INTEGER)
        assert facets.sum_pos == (0, 1000)

    def test_sum_neg_sugar(self):
        facets = normalize_facets({"sum-": "Integer"}, PrimitiveType.INTEGER)
        assert facets.sum_neg == (-2147483648, 0)

    def test_scalar_count_is_exact(self):
        facets = normalize_facets({"count": 1}, PrimitiveType.INTEGER)
        assert facets.count == (1, 1)

    def test_count_mapping(self):
        facets = normalize_facets({"count": {"min": 2}}, PrimitiveType.ANY)
        assert facets.count == (2, None)
        facets = normalize_facets({"count": {"max": 4}}, PrimitiveType.ANY)
        assert facets.count == (0, 4)

    def test_string_has_no_value_bound_defaults(self):
        facets = normalize_facets({}, PrimitiveType.STRING)
        assert facets.min is None and facets.max is None

    def test_pattern_only_on_text_types(self):
        normalize_facets({"pattern": "[a-z]+"}, PrimitiveType.STRING)
        with pytest.raises(SpecError, match="not allowed"):
            normalize_facets({"pattern": "[a-z]+"}, PrimitiveType.INTEGER)

    def test_malformed_pattern_rejected_at_load(self):
        with pytest.raises(SpecError, match="malformed pattern"):
            normalize_facets({"pattern": "("}, PrimitiveType.STRING)

    def test_sum_only_on_integer(self):
        with pytest.raises(SpecError, match="not allowed"):
            normalize_facets({"sum+": "Integer"}, PrimitiveType.STRING)

    def test_any_admits_only_count(self):
        with pytest.raises(SpecError, match="not allowed"):
            normalize_facets({"min": 0}, PrimitiveType.ANY)

    def test_user_type_admits_only_count(self):
        normalize_facets({"count": 3}, "date")
        with pytest.raises(SpecError, match="not allowed"):
            normalize_facets({"enum": ["x"]}, "date")

    def test_enum_interpretation_follows_declared_type(self):
        by_string = normalize_facets({"enum": ["Documentary", "Video"]},
                                     PrimitiveType.STRING)
        assert by_string.enum_values == (Str("Documentary"), Str("Video"))
        by_int = normalize_facets({"enum": [224, 360]}, PrimitiveType.INTEGER)
        assert by_int.enum_values == (Number(224), Number(360))
        by_alpha = normalize_facets({"enum": ["req", "rp"]}, PrimitiveType.ALPHA)
        assert by_alpha.enum_values == (Const("req"), Const("rp"))


class TestCheckSpec:
    def test_fixture_specs_have_no_diagnostics(self):
        for name in ("bday.yaml", "qsr.yaml", "solitaire.yaml", "knight.yaml"):
            assert check_spec(load_fixture(name)) == []

    def test_having_unknown_field(self):
        spec = parse_spec("p:\n    first: Integer\n"
                          "    valasp:\n        having: [first < missing]\n")
        diags = check_spec(spec)
        assert len(diags) == 1
        assert diags[0].rule == "having-field"
        assert "missing" in diags[0].message

    def test_self_referential_type(self):
        spec = parse_spec("date:\n    inner: date\n")
        diags = check_spec(spec)
        assert any(d.rule == "type-cycle" for d in diags)

    def test_enum_type_mismatch(self):
        spec = parse_spec("p:\n    a:\n        type: Alpha\n        enum: [Uppercase]\n")
        diags = check_spec(spec)
        assert any(d.rule == "enum-type" for d in diags)

    def test_integer_enum_with_string_entry(self):
        spec = parse_spec("p:\n    a:\n        type: Integer\n        enum: [x]\n")
        assert any(d.rule == "enum-type" for d in check_spec(spec))

    def test_min_above_max(self):
        spec = parse_spec("p:\n    a:\n        type: Integer\n        min: 10\n        max: 3\n")
        assert any(d.rule == "facet-bounds" for d in check_spec(spec))

    def test_count_bounds_ordering(self):
        spec = parse_spec("p:\n    a:\n        type: Any\n"
                          "        count: {min: 5, max: 2}\n")
        assert any(d.rule == "facet-bounds" for d in check_spec(spec))

    def test_diagnostics_do_not_raise(self):
        spec = parse_spec("p:\n    a: nowhere\n")
        diags = check_spec(spec)
        assert [d.rule for d in diags] == ["unknown-type"]
