"""Text formats: structures, instances, operation tables, theory specs.

All printers are canonical (signature order, sorted tuples, LF endings) and
raise ValueError on any name, symbol, label or variable their parser would
not read back, so parse(print(x)) == x and a second print is byte-identical.
Structure files are deliberately line-oriented and diffable:

    structure <name> over <sym/arity> <sym/arity> ...
    domain <k>
    label <id> <text>          # optional, one per labeled element
    rel <R>: (a,b) (c,d) ...   # one line per relation symbol

Instances are atom lists: ``R(x,y)``, ``x = y``, ``x != y``, ``false``,
separated by ``;``, ``&`` or newlines, with an optional ``vars a, b`` line
declaring variables that occur in no atom. ``#`` starts a comment.

Theory specs name sample families and combine them:

    theory A = dense_order { rel lt/2 = base; rel min3/3 = "..."; }
    theory B = partition(2) { rel p0/1 = part(1); rel p1/1 = part(2); }
    theory T = union(A, B)

Builders: dense_order{...}, partition(m){...}, successor,
alternating_cycles, succ2col, marked_colors, explicit{...},
from_decider(name, max_n), union(a, b), expand(a){...}.

A spec is read with ``qf.TokenStream``, the lexer that also reads the
quoted definitions; its errors carry a line and column.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

from . import families, qf
from .formulas import BOT, Atom, Eq, Instance, Neq, Rel, atom_variables, check_atom
from .model import Signature, SignatureError, Structure
from .polymorphisms import OperationTable
from .sampling import (
    SampleFamily,
    SamplingError,
    _check_elements,
    equality_expansion,
    explicit_sampling,
    product_sampling,
    sampling_from_decider,
)

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
SYMBOL = rf"{IDENT}|<"  # a structure file's relation symbols


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


def _check_domain(domain_size: int, line: int) -> None:
    try:
        _check_elements(domain_size, "an explicit domain")
    except SamplingError as exc:
        raise ParseError(str(exc), line) from None


def _int(digits: str, line: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than Python's int() reads
        raise ParseError(f"number of {len(digits):,} digits is too long", line) from None


def _strip_comment(line: str) -> str:
    # a comment starts with '#' at line start or after whitespace, outside
    # quotes; a bare '#' inside a token (e.g. an element label) is content
    out = []
    in_string = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_string = not in_string
        if (
            ch == "#"
            and not in_string
            and (i == 0 or line[i - 1].isspace())
        ):
            break
        out.append(ch)
    return "".join(out)


def _refuse(bad: list[str]) -> None:
    """Raise ValueError naming each text a printer cannot write so that its
    parser reads it back unchanged."""
    if bad:
        raise ValueError("cannot be written so that it reads back: " + ", ".join(bad))


# --- structures ---------------------------------------------------------------


def print_structure(s: Structure, name: str = "structure") -> str:
    texts = [("name", name, IDENT)] + [("symbol", sym, SYMBOL) for sym, _ in s.signature]
    bad = [f"{kind} {text!r}" for kind, text, form in texts if not re.fullmatch(form, text)]
    for i, text in enumerate(s.labels or ()):
        if text.splitlines() != [text] or _strip_comment(text).strip() != text:
            bad.append(f"label {i} {text!r}")
    _refuse(bad)
    symbols = " ".join(f"{sym}/{arity}" for sym, arity in s.signature)
    lines = [f"structure {name} over {symbols}", f"domain {s.domain_size}"]
    lines.extend(f"label {i} {text}" for i, text in enumerate(s.labels or ()))
    for sym, _ in s.signature:
        body = " ".join(
            "(" + ",".join(str(e) for e in t) + ")" for t in s.sorted_tuples(sym)
        )
        lines.append(f"rel {sym}:" + (" " + body if body else ""))
    return "\n".join(lines) + "\n"


def parse_structures(text: str) -> list[tuple[str, Structure]]:
    """Parse a file of one or more structure blocks separated by blank lines."""
    out = []
    block: list[tuple[int, str]] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            if block:
                out.append(_parse_structure_block(block))
                block = []
            continue
        block.append((no, line))
    if block:
        out.append(_parse_structure_block(block))
    return out


def parse_structure(text: str) -> tuple[str, Structure]:
    parsed = parse_structures(text)
    if len(parsed) != 1:
        raise ParseError(f"expected exactly one structure, found {len(parsed)}")
    return parsed[0]


def _parse_structure_block(block: list[tuple[int, str]]) -> tuple[str, Structure]:
    no, header = block[0]
    m = re.fullmatch(rf"structure\s+({IDENT})\s+over(.*)", header)
    if not m:
        raise ParseError("expected 'structure <name> over <sym/arity> ...'", no)
    name = m.group(1)
    symbols = []
    for part in m.group(2).split():
        sm = re.fullmatch(rf"({SYMBOL})/(\d+)", part)
        if not sm:
            raise ParseError(f"bad symbol declaration {part!r}", no)
        symbols.append((sm.group(1), _int(sm.group(2), no)))
    try:
        signature = Signature(symbols)
    except SignatureError as exc:
        raise ParseError(str(exc), no) from None
    domain_size = None
    labels: dict[int, tuple[str, int]] = {}  # each element's label and its line
    relations: dict[str, set[tuple[int, ...]]] = {}
    for no, line in block[1:]:
        if line.startswith("domain"):
            m = re.fullmatch(r"domain\s+(\d+)", line)
            if not m:
                raise ParseError("expected 'domain <k>'", no)
            if domain_size is not None:
                raise ParseError("repeated 'domain' line", no)
            domain_size = _int(m.group(1), no)
            _check_domain(domain_size, no)
        elif line.startswith("label"):
            m = re.fullmatch(r"label\s+(\d+)\s+(.*)", line)
            if not m:
                raise ParseError("expected 'label <id> <text>'", no)
            element = _int(m.group(1), no)
            if element in labels:
                raise ParseError(f"repeated label for element {element}", no)
            labels[element] = m.group(2), no
        elif line.startswith("rel"):
            m = re.fullmatch(rf"rel\s+({SYMBOL}):\s*(.*)", line)
            if not m:
                raise ParseError("expected 'rel <R>: (a,b) ...'", no)
            sym = m.group(1)
            if sym not in signature:
                raise ParseError(f"relation {sym!r} is not declared", no)
            if sym in relations:
                raise ParseError(f"repeated 'rel {sym}' line", no)
            tuples = set()
            rest = m.group(2).strip()
            if rest:
                for tm in rest.split():
                    if not (tm.startswith("(") and tm.endswith(")")):
                        raise ParseError(f"bad tuple {tm!r}", no)
                    try:
                        tuples.add(tuple(int(x) for x in tm[1:-1].split(",")))
                    except ValueError:
                        raise ParseError(f"bad tuple {tm!r}", no) from None
            relations[sym] = tuples
        else:
            raise ParseError(f"unexpected line {line!r}", no)
    if domain_size is None:
        raise ParseError("structure block missing its 'domain' line", block[0][0])
    label_list = None
    if labels:
        if sorted(labels) != list(range(domain_size)):
            past = [line for e, (_, line) in labels.items() if e >= domain_size]
            line = min(past, default=block[0][0])  # a label past the domain, else the header
            raise ParseError("labels must cover elements 0..domain-1", line)
        label_list = [labels[i][0] for i in range(domain_size)]
    try:
        return name, Structure(signature, domain_size, relations, label_list)
    except ValueError as exc:
        raise ParseError(str(exc), block[0][0]) from None


# --- instances ----------------------------------------------------------------


_REL_RE = re.compile(rf"({IDENT})\s*\(([^()]*)\)\s*$")
_NEQ_RE = re.compile(rf"({IDENT})\s*!=\s*({IDENT})\s*$")
_EQ_RE = re.compile(rf"({IDENT})\s*=\s*({IDENT})\s*$")
_VARS_RE = re.compile(rf"vars\s+({IDENT}(\s*,\s*{IDENT})*)\s*$")


def parse_instance(text: str, signature: Signature) -> Instance:
    arities = dict(signature)
    atoms: list[Atom] = []
    declared: list[str] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        for chunk in re.split(r"[;&]", line):
            chunk = chunk.strip()
            if not chunk:
                continue
            m = _VARS_RE.fullmatch(chunk)
            if m:
                declared.extend(v.strip() for v in m.group(1).split(","))
                continue
            if chunk == "false":
                atoms.append(BOT)
                continue
            m = _REL_RE.fullmatch(chunk)
            if m:
                args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
                if not all(re.fullmatch(IDENT, a) for a in args):
                    raise ParseError(f"bad argument list in {chunk!r}", no)
                atoms.append(Rel(m.group(1), args))
                try:
                    check_atom(atoms[-1], arities)
                except ValueError as exc:
                    raise ParseError(str(exc), no) from None
                continue
            m = _NEQ_RE.fullmatch(chunk)
            if m:
                atoms.append(Neq(m.group(1), m.group(2)))
                continue
            m = _EQ_RE.fullmatch(chunk)
            if m:
                atoms.append(Eq(m.group(1), m.group(2)))
                continue
            raise ParseError(f"cannot parse atom {chunk!r}", no)
    return Instance.of(signature, atoms, declared)


def print_instance(inst: Instance) -> str:
    symbols = dict.fromkeys(a.symbol for a in inst.atoms if isinstance(a, Rel))
    texts = [("variable", v) for v in inst.variables] + [("symbol", sym) for sym in symbols]
    _refuse([f"{kind} {text!r}" for kind, text in texts if not re.fullmatch(IDENT, text)])
    lines = []
    occurring = {v for a in inst.atoms for v in atom_variables(a)}
    extras = [v for v in inst.variables if v not in occurring]
    if extras:
        lines.append("vars " + ", ".join(extras))
    for a in inst.atoms:
        if isinstance(a, Rel):
            lines.append(f"{a.symbol}({','.join(a.args)})")
        elif isinstance(a, Eq):
            lines.append(f"{a.left} = {a.right}")
        elif isinstance(a, Neq):
            lines.append(f"{a.left} != {a.right}")
        else:
            lines.append("false")
    return "\n".join(lines) + "\n"


# --- operation tables -----------------------------------------------------------


_VALUES_PER_LINE = 16


def print_operation_table(f: OperationTable) -> str:
    values = [
        str(f.table[args])
        for args in sorted(f.table)
    ]
    lines = [f"optable domain {f.domain_size} arity {f.arity}"]
    for i in range(0, len(values), _VALUES_PER_LINE):
        lines.append(" ".join(values[i : i + _VALUES_PER_LINE]))
    return "\n".join(lines) + "\n"


def parse_operation_table(text: str) -> OperationTable:
    stripped = (_strip_comment(raw).strip() for raw in text.splitlines())
    lines = [(no, line) for no, line in enumerate(stripped, start=1) if line]
    if not lines:
        raise ParseError("empty operation table")
    no, header = lines[0]
    m = re.fullmatch(r"optable\s+domain\s+(\d+)\s+arity\s+(\d+)", header)
    if not m:
        raise ParseError("expected 'optable domain <m> arity <k>'", no)
    domain_size, arity = _int(m.group(1), no), _int(m.group(2), no)
    if arity < 1:
        raise ParseError("arity must be >= 1", no)
    values = []
    for no, line in lines[1:]:
        for entry in line.split():
            try:
                value = int(entry)
            except ValueError:
                raise ParseError(f"bad entry {entry!r}", no) from None
            if not 0 <= value < domain_size:
                raise ParseError(f"output {value} out of range for domain {domain_size}", no)
            values.append(value)
    # with 2**arity over the count the table cannot fit; skip the huge power
    too_many_args = domain_size > 1 and arity > len(values).bit_length()
    if too_many_args or len(values) != domain_size**arity:
        raise ParseError(
            f"expected {domain_size}**{arity} values, found {len(values)}", lines[0][0]
        )
    args_in_order = itertools.product(range(domain_size), repeat=arity)
    return OperationTable(domain_size, arity, dict(zip(args_in_order, values)))


# --- theory specifications --------------------------------------------------------


@dataclass(frozen=True)
class TheorySpec:
    """Named sample families from a theory-spec file; last one is the default."""

    theories: dict[str, SampleFamily]
    default: Optional[str]

    def family(self, name: Optional[str] = None) -> SampleFamily:
        if name is None:
            if self.default is None:
                raise ParseError("the theory file defines no theories")
            name = self.default
        if name not in self.theories:
            raise ParseError(f"theory {name!r} is not defined")
        return self.theories[name]


_SPEC_TOKENS = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"[^"\n]*")
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[={}()/,;:])
    """,
    re.VERBOSE,
)


def parse_theory_spec(text: str) -> TheorySpec:
    toks = qf.TokenStream(
        text, _SPEC_TOKENS, lambda message, tok: ParseError(message, tok.line, tok.column)
    )
    theories: dict[str, SampleFamily] = {}
    default = None
    while toks.peek().kind != "end":
        toks.expect("theory")
        name_tok = toks.expect_kind("ident")
        if name_tok.value in theories:
            raise toks.error(f"theory {name_tok.value!r} defined twice", name_tok)
        toks.expect("=")
        family = _parse_builder(toks, theories, name_tok.value)
        theories[name_tok.value] = family
        default = name_tok.value
    return TheorySpec(theories, default)


def _parse_builder(
    toks: qf.TokenStream, theories: dict[str, SampleFamily], name: str
) -> SampleFamily:
    tok = toks.expect_kind("ident")
    kind = tok.value
    try:
        if kind == "dense_order":
            defs = _parse_reldefs(toks, base=("order", None))
            return families.dense_order_sampling(defs, name=name)
        if kind == "partition":
            toks.expect("(")
            m = toks.expect_int()
            toks.expect(")")
            defs = _parse_reldefs(toks, base=("part", m))
            return families.colored_partition_sampling(m, defs, name=name)
        if kind == "successor":
            return families.successor_sampling(name=name)
        if kind == "alternating_cycles":
            return families.alternating_cycles_sampling(name=name)
        if kind == "succ2col":
            return families.succ2col_sampling(name=name)
        if kind == "marked_colors":
            return families.marked_colors_sampling(name=name)
        if kind == "union":
            toks.expect("(")
            left = _lookup(toks, theories)
            toks.expect(",")
            right = _lookup(toks, theories)
            toks.expect(")")
            return product_sampling(left, right)
        if kind == "expand":
            toks.expect("(")
            base = _lookup(toks, theories)
            toks.expect(")")
            defs = _parse_reldefs(toks, base=("equality", None))
            return equality_expansion(base, defs)
        if kind == "from_decider":
            toks.expect("(")
            base = _lookup(toks, theories)
            toks.expect(",")
            max_n = toks.expect_int()
            toks.expect(")")
            if base.decider is None:
                raise toks.error(f"theory {base.name!r} has no reference decider", tok)
            return sampling_from_decider(
                base.signature, base.decider, max_n, name=name
            )
        if kind == "explicit":
            return _parse_explicit(toks, name)
    except (ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise toks.error(str(exc), tok) from None
    raise toks.error(f"unknown theory builder {kind!r}", tok)


def _lookup(toks: qf.TokenStream, theories: dict[str, SampleFamily]) -> SampleFamily:
    tok = toks.expect_kind("ident")
    if tok.value not in theories:
        raise toks.error(f"theory {tok.value!r} used before definition", tok)
    return theories[tok.value]


def _parse_reldefs(toks: qf.TokenStream, base: tuple[str, Optional[int]]):
    kind, m = base
    toks.expect("{")
    defs = []
    while not toks.try_eat("}"):
        toks.expect("rel")
        name = toks.expect_kind("ident").value
        toks.expect("/")
        arity = toks.expect_int()
        toks.expect("=")
        tok = toks.next()
        if tok.value == "base":
            if kind != "order":
                raise toks.error("'base' is only available inside dense_order", tok)
            if arity != 2:
                raise toks.error("'base' denotes the binary order", tok)
            defn: qf.QFDef = qf.RelAtom(qf.ORDER_SYMBOL, (1, 2))
        elif tok.value == "part":
            if kind != "part":
                raise toks.error("'part(j)' is only available inside partition", tok)
            toks.expect("(")
            j = toks.expect_int()
            toks.expect(")")
            if not (1 <= j <= (m or 0)):
                raise toks.error(f"part({j}) is out of range", tok)
            if arity != 1:
                raise toks.error("'part(j)' denotes a unary relation", tok)
            defn = qf.RelAtom(qf.part_symbol(j), (1,))
        elif tok.kind == "string":
            try:
                defn = qf.parse_definition(tok.value[1:-1])
            except qf.DefinitionError as exc:
                raise toks.error(str(exc), tok) from None
        else:
            raise toks.error(
                f"expected 'base', 'part(j)' or a quoted formula, found {tok.value!r}", tok
            )
        defs.append((name, arity, defn))
        toks.try_eat(";")
    return defs


def _parse_explicit(toks: qf.TokenStream, name: str) -> SampleFamily:
    toks.expect("{")
    toks.expect("sig")
    symbols = []
    while True:
        sym = toks.expect_kind("ident").value
        toks.expect("/")
        arity = toks.expect_int()
        symbols.append((sym, arity))
        if not toks.try_eat(","):
            break
    toks.expect(";")
    signature = Signature(symbols)
    flags, given = ("equality_matching", "no_pp_algebraicity"), set()
    while toks.peek().value in flags:
        given.add(toks.next().value)
        toks.expect(";")
    structures = []
    while not toks.try_eat("}"):
        tok = toks.expect("sample")
        toks.expect("{")
        domain_size = None
        relations: dict[str, set[tuple[int, ...]]] = {}
        while not toks.try_eat("}"):
            inner = toks.expect_kind("ident")
            if inner.value == "domain":
                if domain_size is not None:
                    raise toks.error("repeated 'domain' line", inner)
                domain_size = toks.expect_int()
                _check_domain(domain_size, inner.line)
                toks.expect(";")
            elif inner.value == "rel":
                sym = toks.expect_kind("ident").value
                if sym in relations:
                    raise toks.error(f"repeated 'rel {sym}' line", inner)
                toks.expect(":")
                tuples = set()
                while toks.try_eat("("):
                    entries = [toks.expect_int()]
                    while toks.try_eat(","):
                        entries.append(toks.expect_int())
                    toks.expect(")")
                    tuples.add(tuple(entries))
                toks.expect(";")
                relations[sym] = tuples
            else:
                raise toks.error(f"expected 'domain' or 'rel', found {inner.value!r}", inner)
        if domain_size is None:
            raise toks.error("sample block missing 'domain'", tok)
        try:
            structures.append(Structure(signature, domain_size, relations))
        except ValueError as exc:
            raise toks.error(str(exc), tok) from None
    return explicit_sampling(signature, structures, *(f in given for f in flags), name=name)
