"""Seeded fuzz of the from-decider renaming budget, through the CLI.

Under pytest this file starts itself as a script in a subprocess capped at
1 GiB of address space and a timeout, as ``test_fuzz`` does. For every
number the parser fuzz draws (``test_fuzz._NUMBERS``) as k, the script
solves seeded successor instances of one to seven variables through
``cli.main`` against ``from_decider(S, k)``. Each solve must end in a
verdict that agrees with the successor decider (exit 0 or 1), or in a
refusal that names the ``max_n`` guard or the renaming budget (exit 2).
Standalone: ``PYTHONPATH=src python tests/test_fuzz_decider_budget.py <seed> <rounds>``.
"""

import contextlib
import io as text_io
import random
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from test_fuzz import _NUMBERS

ROOT = Path(__file__).resolve().parents[1]
SEED = 3
ROUNDS = 12  # instances per number


def _instance(rng: random.Random) -> str:
    """A succ path on one to seven variables, with at times a random extra
    atom or equality (the family is not equality-matching, so no !=)."""
    count = rng.randint(1, 7)
    names = [f"x{i}" for i in range(1, count + 1)]
    atoms = [f"succ({a}, {b})" for a, b in zip(names, names[1:])] or ["succ(x1, x2)"]
    if rng.random() < 0.5:
        atoms.append(f"succ({rng.choice(names)}, {rng.choice(names)})")
    if rng.random() < 0.3:
        atoms.append(f"{rng.choice(names)} = {rng.choice(names)}")
    return "; ".join(atoms) + "\n"


def fuzz(seed: int, rounds: int) -> int:
    from cspsampling import cli, io
    from cspsampling.solvers import solve_via_sampling

    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        theory, inst = Path(tmp) / "f.theory", Path(tmp) / "f.inst"
        for k in _NUMBERS:
            text = f"theory S = successor\ntheory F = from_decider(S, {k})\n"
            theory.write_text(text)
            base = io.parse_theory_spec(text).family("S")
            for round_no in range(rounds):
                inst.write_text(_instance(rng))
                out, err = text_io.StringIO(), text_io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["solve", "--theory", str(theory), "--instance", str(inst)])
                if code in (0, 1):
                    parsed = io.parse_instance(inst.read_text(), base.signature)
                    ok = (code == 0) == solve_via_sampling(base, parsed).satisfiable
                else:
                    ok = code == 2 and ("max_n" in err.getvalue() or "renaming budget" in err.getvalue())
                if not ok:
                    print(f"seed {seed}, k {k}, round {round_no}, exit {code}:")
                    print(inst.read_text() + out.getvalue() + err.getvalue())
                    return 1
    return 0


def test_from_decider_levels_give_a_verdict_or_a_budget_refusal():
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, __file__, str(SEED), str(ROUNDS)],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'tests'}"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    sys.exit(fuzz(int(sys.argv[1]), int(sys.argv[2])))
