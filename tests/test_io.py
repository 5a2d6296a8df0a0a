import pytest

import conftest as helpers
import cspsampling as cs
from cspsampling import io
from cspsampling.formulas import BOT, Eq, Instance, Neq, Rel
from cspsampling.model import Signature, Structure


def test_structure_round_trip_is_byte_stable():
    fam = helpers.order_family()
    (s,) = fam.generate(3)
    text = io.print_structure(s, name="chain3")
    name, parsed = io.parse_structure(text)
    assert name == "chain3" and parsed == s
    assert io.print_structure(parsed, name="chain3") == text


def test_structure_round_trip_without_labels():
    s = Structure(Signature([("E", 2)]), 2, {"E": {(0, 1)}})
    text = io.print_structure(s)
    _, parsed = io.parse_structure(text)
    assert parsed == s


def test_multiple_structures_in_one_file(robot_theory):
    blocks = "\n".join(
        io.print_structure(s, name=f"sample{i}")
        for i, s in enumerate(cs.marked_colors_sampling().generate(2))
    )
    parsed = io.parse_structures(blocks)
    assert [n for n, _ in parsed] == ["sample0", "sample1"]


def test_structure_parse_errors():
    with pytest.raises(io.ParseError):
        io.parse_structure("structure s over E/2\nrel E: (0,1)\n")  # no domain
    with pytest.raises(io.ParseError):
        io.parse_structure("structure s over E/x\ndomain 1\nrel E:\n")
    with pytest.raises(io.ParseError):
        io.parse_structure("structure s over E/2\ndomain 1\nrel F: (0,0)\n")
    with pytest.raises(io.ParseError):
        io.parse_structure("structure s over E/2\ndomain 1\nrel E: (0,5)\n")
    for text, message in (
        ("structure s over E/0\ndomain 1\n", "line 1: arity of 'E' must be >= 1, got 0"),
        ("\nstructure s over E/2 E/2\ndomain 1\n", "line 2: duplicate relation symbol 'E'"),
    ):
        with pytest.raises(io.ParseError) as err:
            io.parse_structures(text)
        assert str(err.value) == message


def test_repeated_structure_lines_are_parse_errors_at_the_repeat():
    head = "structure s over E/2\ndomain 2\n"
    for text, message in (
        (head + "rel E: (0,1)\nrel E: (1,0)\n", "line 4: repeated 'rel E' line"),
        (head + "rel E:\nrel E: (1,0) # note\n", "line 4: repeated 'rel E' line"),
        (head + "label 0 a\nlabel 1 b\nlabel 0 c\n", "line 5: repeated label for element 0"),
        (head + "rel E: (0,1)\ndomain 3\n", "line 4: repeated 'domain' line"),
        ("structure s over E/2\ndomain 2\ndomain 2\n", "line 3: repeated 'domain' line"),
    ):
        with pytest.raises(io.ParseError) as err:
            io.parse_structures(text)
        assert str(err.value) == message
    # one line per symbol, in separate blocks too, is not a repeat
    two = io.parse_structures(head + "rel E: (0,1)\n\n" + head + "rel E: (1,0)\n")
    assert [set(s.relations["E"]) for _, s in two] == [{(0, 1)}, {(1, 0)}]


def test_instance_parse_and_round_trip():
    sig = Signature([("lt", 2), ("p0", 1), ("min3", 3)])
    inst = io.parse_instance("lt(x,y); lt(y,z); p0(x)", sig)
    assert len(inst.atoms) == 3 and inst.variables == ("x", "y", "z")
    mixed = io.parse_instance("min3(a,b,c) & a != b", sig)
    assert mixed.atoms == (Rel("min3", ("a", "b", "c")), Neq("a", "b"))
    text = io.print_instance(mixed)
    assert io.parse_instance(text, sig) == mixed
    assert io.print_instance(io.parse_instance(text, sig)) == text


def test_instance_declared_variables_round_trip():
    sig = Signature([("lt", 2)])
    inst = Instance.of(sig, [Rel("lt", ("a", "b")), Eq("c", "c"), BOT],
                       declared=("d",))
    text = io.print_instance(inst)
    assert "vars d" in text.splitlines()[0]
    assert io.parse_instance(text, sig) == inst


def test_instance_parse_errors():
    sig = Signature([("lt", 2)])
    with pytest.raises(io.ParseError):
        io.parse_instance("lt(x)", sig)  # arity
    with pytest.raises(io.ParseError):
        io.parse_instance("gt(x,y)", sig)  # unknown symbol
    with pytest.raises(io.ParseError):
        io.parse_instance("lt(x,y) ;; what is this", sig)


def test_operation_table_round_trip():
    f = cs.majority_eq_operation(3)
    text = io.print_operation_table(f)
    assert io.parse_operation_table(text) == f
    with pytest.raises(io.ParseError):
        io.parse_operation_table("optable domain 2 arity 2\n0 1\n")


def test_theory_spec_robot_file():
    spec = io.parse_theory_spec(open("theories/robot_scheduling.theory").read())
    assert spec.default == "schedule"
    fam = spec.family()
    assert set(fam.signature.names()) == {"lt", "min3", "p0", "p1"}
    assert cs.family_size(fam, 4) == 32
    order = spec.family("order")
    assert order.generate(2)[0].relations["lt"] == {(0, 1)}


def test_theory_spec_union_disjointness_error():
    text = "theory A = dense_order { rel lt/2 = base; }\ntheory X = union(A, A)"
    with pytest.raises(io.ParseError):
        io.parse_theory_spec(text)


def test_theory_spec_builtins_and_expand():
    text = """
    theory S = successor
    theory A = alternating_cycles
    theory C = succ2col
    theory M = marked_colors
    theory O = dense_order { rel before/2 = base; }
    theory X = expand(O) { rel apart/2 = "!(x1 = x2)"; }
    theory F = from_decider(M, 1)
    """
    spec = io.parse_theory_spec(text)
    assert spec.family("S").signature.names() == ("succ",)
    assert spec.family("A").signature.names() == ("E1", "E2")
    assert spec.family("C").signature.names() == ("succ", "P0", "P1")
    x = spec.family("X")
    assert "apart" in x.signature
    assert len(x.generate(2)[0].relations["apart"]) == 2
    f = spec.family("F")
    assert len(f.generate(1)) == 6


def test_theory_spec_explicit_block():
    text = """
    theory E = explicit {
      sig edge/2;
      equality_matching;
      sample { domain 2; rel edge: (0,1) (1,0); }
      sample { domain 1; rel edge: (0,0); }
    }
    """
    fam = io.parse_theory_spec(text).family()
    samples = fam.generate(7)
    assert len(samples) == 2
    assert samples[0].relations["edge"] == {(0, 1), (1, 0)}
    assert fam.equality_matching


def test_theory_spec_errors_carry_positions():
    with pytest.raises(io.ParseError) as err:
        io.parse_theory_spec("theory A = dense_order { rel lt/2 = part(1); }")
    assert "line" in str(err.value)
    cases = {
        "theory A = ": "line 1, column 10: unexpected end of input",
        "theory A ! B": "line 1, column 10: unexpected character '!'",
        'theory O = dense_order { rel m/2 = "x1 <"; }':
            "line 1, column 36: expected a variable like x1 (at offset 4 in 'x1 <')",
    }
    for text, message in cases.items():
        with pytest.raises(io.ParseError) as err:
            io.parse_theory_spec(text)
        assert str(err.value) == message
    with pytest.raises(io.ParseError):
        io.parse_theory_spec("theory A = unknown_builder")
    with pytest.raises(io.ParseError):
        io.parse_theory_spec("theory T = union(A, B)")  # undefined operands
    with pytest.raises(io.ParseError):
        io.parse_theory_spec("theory S = successor\ntheory F = from_decider(Z, 1)")


def test_parse_print_parse_identity_on_samples(robot_theory):
    for s in robot_theory.generate(2):
        text = io.print_structure(s)
        _, parsed = io.parse_structure(text)
        assert parsed == s


def test_explicit_domains_have_a_budget():
    with pytest.raises(io.ParseError, match="budget"):
        io.parse_structure(
            "structure s over E/2\ndomain 40000000000\nlabel 0 a\nrel E: (0,1)\n"
        )
    with pytest.raises(io.ParseError, match="budget"):
        io.parse_theory_spec(
            "theory T = explicit { sig E/2; "
            "sample { domain 40000000000; rel E: (0,1); } }"
        )
    limit = cs.sampling._MAX_ELEMENTS
    _, s = io.parse_structure(f"structure s over E/2\ndomain {limit}\nrel E:\n")
    assert s.domain_size == limit


def test_non_decimal_digit_in_a_definition_is_reported_at_its_string():
    with pytest.raises(io.ParseError) as err:
        io.parse_theory_spec('theory O = dense_order { rel m/2 = "x1 < x\u00b2"; }')
    assert str(err.value) == (
        "line 1, column 36: expected a number (at offset 6 in 'x1 < x\u00b2')"
    )


def test_operation_table_entry_errors_name_their_line():
    with pytest.raises(io.ParseError) as err:
        io.parse_operation_table("optable domain 2 arity 1\n0\n# note\n\nx\n")
    assert str(err.value) == "line 5: bad entry 'x'"
    with pytest.raises(io.ParseError) as err:
        io.parse_operation_table("# note\noptable domain 2 arity 1\n0 5\n")
    assert str(err.value) == "line 3: output 5 out of range for domain 2"
    with pytest.raises(io.ParseError) as err:
        io.parse_operation_table("# note\noptable domain 2 arity 0\n0\n")
    assert str(err.value) == "line 2: arity must be >= 1"
    with pytest.raises(io.ParseError) as err:
        io.parse_operation_table("# note\noptable domain 2 arity 1\n0\n")
    assert str(err.value) == "line 2: expected 2**1 values, found 1"


def test_operation_table_count_is_checked_before_enumerating(monkeypatch):
    def enumerated(*args, **kwargs):
        raise AssertionError("argument tuples were enumerated")

    monkeypatch.setattr(io, "itertools", type("stub", (), {"product": enumerated}))
    with pytest.raises(io.ParseError, match=r"100\*\*6 values, found 1"):
        io.parse_operation_table("optable domain 100 arity 6\n0\n")
    with pytest.raises(io.ParseError, match="found 1"):
        io.parse_operation_table("optable domain 2 arity 99999999999\n0\n")


def test_overlong_numbers_in_line_formats_are_parse_errors_at_their_line():
    digits = "7" * 5000
    for text, line in (
        (f"structure s over E/{digits}\ndomain 1\n", 1),
        (f"structure s over E/1\ndomain {digits}\n", 2),
        (f"structure s over E/1\ndomain 1\nlabel {digits} a\n", 3),
        (f"# table\noptable domain {digits} arity 1\n0\n", 2),
        (f"optable domain 2 arity {digits}\n0\n", 1),
    ):
        parse = io.parse_operation_table if "optable" in text else io.parse_structures
        with pytest.raises(io.ParseError) as err:
            parse(text)
        assert str(err.value) == f"line {line}: number of 5,000 digits is too long"


def test_overlong_numbers_in_specs_are_parse_errors_at_the_number():
    digits = "5" * 5000
    cases = {
        f"theory P = partition({digits}) {{ }}": "line 1, column 22",
        f"theory P = partition(2) {{\n  rel a/{digits} = part(1); }}": "line 2, column 9",
        f"theory S = successor\ntheory F = from_decider(S, {digits})": "line 2, column 28",
        f"theory E = explicit {{ sig E/1; sample {{ domain {digits}; }} }}": "line 1, column 48",
    }
    for text, where in cases.items():
        with pytest.raises(io.ParseError) as err:
            io.parse_theory_spec(text)
        assert str(err.value) == f"{where}: number of 5,000 digits is too long"
    with pytest.raises(io.ParseError) as err:
        io.parse_theory_spec(f'theory O = dense_order {{ rel m/2 = "x{digits} < x1"; }}')
    assert str(err.value).startswith(
        "line 1, column 36: number of 5,000 digits is too long (at offset 1 in"
    )


def test_comments_start_outside_quotes():
    _, s = io.parse_structure(
        'structure s over E/1\ndomain 2\nlabel 0 a "#b" c\nlabel 1 x #c\nrel E:\n'
    )
    assert s.labels == ('a "#b" c', "x")


def test_printers_refuse_what_their_parsers_cannot_read_back():
    sig = Signature([("E", 2)])
    for label in ("a #b", " x", "x ", "", "a\nb", "a\rb", "#a"):
        s = Structure(sig, 2, {"E": {(0, 1)}}, ["ok", label])
        with pytest.raises(ValueError) as err:
            io.print_structure(s)
        assert str(err.value) == f"cannot be written so that it reads back: label 1 {label!r}"
    for label in ("a#b", '"a #b"', 'a" #b', "a b", "(1,P1#1)"):
        s = Structure(sig, 1, {"E": {(0, 0)}}, [label])
        assert io.parse_structure(io.print_structure(s))[1] == s
    odd = Structure(Signature([("a b", 1), ("<", 2)]), 1, {}, [" x"])
    with pytest.raises(ValueError) as err:
        io.print_structure(odd, name="s 1")
    assert str(err.value) == (
        "cannot be written so that it reads back: name 's 1', symbol 'a b', label 0 ' x'"
    )
    inst = Instance.of(
        Signature([("a b", 1), ("E", 2)]), [Rel("a b", ("x",)), Rel("E", ("a b", "z-1"))]
    )
    with pytest.raises(ValueError) as err:
        io.print_instance(inst)
    assert str(err.value) == (
        "cannot be written so that it reads back: "
        "variable 'a b', variable 'z-1', symbol 'a b'"
    )


def _structure(body):
    return io.parse_structure("structure s over E/2\n" + body)


def _instance(text):
    return io.parse_instance(text, Signature([("lt", 2)]))


def _spec_family(text, name=None):
    return io.parse_theory_spec(text).family(name)


_EXPLICIT = "theory E = explicit { sig U/1; sample { %s } }"

# (parser, input, message, line) for each ParseError the parsers raise; the
# line is None where the error belongs to no line
PARSE_ERRORS = [
    (io.parse_structure, "", "expected exactly one structure, found 0", None),
    (io.parse_structure, "structure a over\ndomain 0\n\nstructure b over\ndomain 0",
     "expected exactly one structure, found 2", None),
    (io.parse_structure, "structure s with E/2\ndomain 1",
     "expected 'structure <name> over <sym/arity> ...'", 1),
    (_structure, "domain one", "expected 'domain <k>'", 2),
    (_structure, "domain 1\nlabel x", "expected 'label <id> <text>'", 3),
    (_structure, "domain 1\nrel E (0,0)", "expected 'rel <R>: (a,b) ...'", 3),
    (_structure, "domain 1\nrel E: 0,0", "bad tuple '0,0'", 3),
    (_structure, "domain 1\nrel E: (0,x)", "bad tuple '(0,x)'", 3),
    (_structure, "domain 1\nedge (0,0)", "unexpected line 'edge (0,0)'", 3),
    (_structure, "domain 2\nlabel 0 a\nrel E:", "labels must cover elements 0..domain-1", 1),
    (_structure, "domain 2\nlabel 0 a\nlabel 5 b\nrel E:",
     "labels must cover elements 0..domain-1", 4),
    (_instance, "lt(x,y)\nlt(x, 1)", "bad argument list in 'lt(x, 1)'", 2),
    (_instance, "lt(x,y)\nlt(x)", "lt expects 2 arguments, got 1", 2),
    (_instance, "lt(x,y)\ngt(x,y)", "unknown relation symbol 'gt'", 2),
    (io.parse_operation_table, "# nothing\n", "empty operation table", None),
    (io.parse_operation_table, "optable domain 2\n0 1",
     "expected 'optable domain <m> arity <k>'", 1),
    (_spec_family, "# nothing\n", "the theory file defines no theories", None),
    (lambda text: _spec_family(text, "T"), "theory S = successor", "theory 'T' is not defined",
     None),
    (io.parse_theory_spec, "theory S = successor\ntheory S = successor",
     "theory 'S' defined twice", 2),
    (io.parse_theory_spec, _EXPLICIT % "domain 1;" + "\ntheory F = from_decider(E, 1)",
     "theory 'E' has no reference decider", 2),
    (io.parse_theory_spec, "theory P = partition(1) { rel lt/2 = base; }",
     "'base' is only available inside dense_order", 1),
    (io.parse_theory_spec, "theory O = dense_order { rel lt/3 = base; }",
     "'base' denotes the binary order", 1),
    (io.parse_theory_spec, "theory P = partition(1) {\n rel p/1 = part(2); }",
     "part(2) is out of range", 2),
    (io.parse_theory_spec, "theory P = partition(2) { rel p/2 = part(1); }",
     "'part(j)' denotes a unary relation", 1),
    (io.parse_theory_spec, "theory O = dense_order { rel lt/2 = 5; }",
     "expected 'base', 'part(j)' or a quoted formula, found '5'", 1),
    (io.parse_theory_spec, _EXPLICIT % "size 1;", "expected 'domain' or 'rel', found 'size'", 1),
    (io.parse_theory_spec, _EXPLICIT % "rel U: (0);", "sample block missing 'domain'", 1),
    (io.parse_theory_spec, _EXPLICIT % "domain 1; rel U: (1);",
     "element 1 out of range in U(1,)", 1),
    (io.parse_theory_spec, "theory E = explicit { sig U/1; sample {\n domain 2;\n rel U: (0);\n"
     " rel U: (1); } }", "repeated 'rel U' line", 4),
    (io.parse_theory_spec, "theory E = explicit { sig U/1; sample {\n domain 2;\n domain 3; } }",
     "repeated 'domain' line", 3),
]


def test_parse_errors_name_their_message_and_line():
    for parse, text, message, line in PARSE_ERRORS:
        with pytest.raises(io.ParseError) as err:
            parse(text)
        assert err.value.line == line, text
        assert str(err.value) == str(io.ParseError(message, line, err.value.column)), text


def test_explicit_block_sets_no_pp_algebraicity():
    spec = "theory E = explicit { sig U/1; no_pp_algebraicity; sample { domain 1; } }"
    family = io.parse_theory_spec(spec).family()
    assert family.no_pp_algebraicity and not family.equality_matching
