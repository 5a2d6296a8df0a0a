"""Seeded mutation fuzz of the text parsers and of the solve path behind them.

Under pytest this file starts itself as a script in a subprocess capped at
1 GiB of address space and a timeout. The script mutates four inputs (the
shipped theory and instance, a printed structure and a printed operation
table) with byte flips, digit edits and token deletions or duplications,
parses every mutant, and solves every theory and instance pair that parses.
A parse must end in a result or an ``io.ParseError``, and a solve in a
result or a ValueError; anything else (a bare ValueError from a parser, a
MemoryError, a RecursionError) fails the test with the seed, the round and
the input. Standalone:
``PYTHONPATH=src python tests/test_fuzz.py <seed> <rounds>``.
"""

import random
import re
import resource
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
ROUNDS = 2000
_TOKEN = re.compile(r"\w+|[^\w\s]")
_CHARS = "0123456789()/,;:={}#\"'<>!&|-_ \nxyzlt"
_NUMBERS = ("0", "1", "2", "3", "7", "83", "1000", "40000000000")


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.3 and text:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(_CHARS) + text[i + 1 :]
        elif roll < 0.6:
            digits = list(re.finditer(r"\d+", text))
            if digits:
                m = rng.choice(digits)
                text = text[: m.start()] + rng.choice(_NUMBERS) + text[m.end() :]
        else:
            tokens = list(_TOKEN.finditer(text))
            if tokens:
                m = rng.choice(tokens)
                copies = 0 if roll < 0.8 else 2
                text = text[: m.start()] + m.group() * copies + text[m.end() :]
    return text


def fuzz(seed: int, rounds: int) -> int:
    import cspsampling as cs
    from cspsampling import io

    theory = (ROOT / "theories" / "robot_scheduling.theory").read_text()
    instance = (ROOT / "theories" / "precedence.inst").read_text()
    family = io.parse_theory_spec(theory).family()
    sources = {
        "theory": theory,
        "instance": instance,
        "structure": io.print_structure(family.generate(2)[0], name="sample0"),
        "optable": io.print_operation_table(cs.majority_eq_operation(3)),
    }

    def parse(kind: str, text: str):
        """The theory and instance to solve, or None for a structure or table."""
        if kind == "theory":
            fam = io.parse_theory_spec(text).family()
            return fam, io.parse_instance(instance, fam.signature)
        if kind == "instance":
            return family, io.parse_instance(text, family.signature)
        if kind == "structure":
            io.parse_structures(text)
        else:
            io.parse_operation_table(text)
        return None

    rng = random.Random(seed)
    for round_no in range(rounds):
        kind = rng.choice(sorted(sources))
        text = mutate(sources[kind], rng)
        stage = "parse"
        try:
            parsed = parse(kind, text)
            stage = "solve"
            if parsed is not None:
                cs.solve_via_sampling(*parsed)
        except io.ParseError:
            pass
        except ValueError:
            if stage == "parse":
                return report(seed, round_no, kind, text)
        except BaseException:
            return report(seed, round_no, kind, text)
    return 0


def report(seed: int, round_no: int, kind: str, text: str) -> int:
    print(f"seed {seed}, round {round_no}, mutated {kind}:\n{text!r}")
    traceback.print_exc(file=sys.stdout)
    return 1


def test_mutated_inputs_give_a_result_or_a_value_error():
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, __file__, str(seed), str(ROUNDS)],
            capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
            env={"PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    sys.exit(fuzz(int(sys.argv[1]), int(sys.argv[2])))
