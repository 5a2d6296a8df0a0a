"""A large product level builds and solves in bounded memory.

Under pytest this file starts itself as a script in a subprocess capped at
256 MiB of address space, and the CLI in another under the same cap. The script builds level 96 of the robot
scheduling product (|D| = 18,432, standing for about 5e8 tuples), solves
an instance with an atom of every shape, so that every index is built,
acceptance criterion 9's 20 instances drawn for that level, a satisfiable
three-variable ``min3`` and a planted instance made unsatisfiable by
``min3(w,x,y) & lt(x,w)``, and checks every verdict against the planted
plan and every witness with ``check_witness``. Standalone,
``PYTHONPATH=src python tests/test_scale.py`` also prints each instance's
solve time to stderr, in that order, so the last line times the
unsatisfiable ``min3`` instance; under pytest that output stays captured.
The CLI solves a 48-variable chain over an expansion of that product by
equality-defined relations, which must keep the product's relations
implicit too.
"""

import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEVEL = 96
CAP = 256 << 20


def solve_level(n: int) -> int:
    import conftest as helpers
    import cspsampling as cs
    from test_acceptance import random_scaling_instance

    robot = cs.product_sampling(helpers.order_family(), helpers.colors_family())
    rng = random.Random(20240817)
    # criterion 9 draws 20 instances for each of its levels in turn; this
    # level's come after theirs
    for level in (4, 8, 16, 32, n):
        batch = [
            (random_scaling_instance(robot.signature, level, rng, make_unsat=i % 5 >= 3),
             i % 5 < 3)
            for i in range(20)
        ]
    (sample,) = robot.generate(n)
    # first an instance with an atom of every shape, so every index is built
    v = [f"v{i}" for i in range(n)]
    shapes = [("lt", (v[0], v[1])), ("min3", (v[0], v[0], v[1])), ("min3", (v[0], v[1], v[0])),
              ("min3", (v[2], v[3], v[3])), ("min3", (v[4], v[5], v[6])),
              ("p0", (v[0],)), ("p1", (v[1],))]
    warm = cs.Instance.of(robot.signature, [cs.Rel(*a) for a in shapes], declared=v)
    batch.insert(0, (warm, True))
    # a wide atom whose two open variables range over the whole level, and a
    # contradiction that only the wide atom's revision finds:
    # min3(w,x,y) & lt(x,w) says min(x,y) <= x < w
    batch.append((cs.Instance.of(robot.signature, [cs.Rel("min3", tuple(v[:3]))], declared=v),
                  True))
    planted = random_scaling_instance(robot.signature, n, random.Random(96), make_unsat=False)
    w, x, y = random.Random(69).sample(v, 3)
    deep = [cs.Rel("min3", (w, x, y)), cs.Rel("lt", (x, w))]
    batch.append((cs.Instance.of(robot.signature, planted.atoms + tuple(deep), declared=v),
                  False))
    for i, (inst, satisfiable) in enumerate(batch):
        start = time.perf_counter()
        result = cs.solve_via_sampling(robot, inst)
        print(f"instance {i}: {result.verdict} in {time.perf_counter() - start:.3f} s",
              file=sys.stderr)
        if result.satisfiable != satisfiable:
            print(f"wrong verdict {result.verdict} on {inst}")
            return 1
        if satisfiable and not cs.check_witness(inst, sample, result.assignment):
            print(f"bad witness {result.assignment} for {inst}")
            return 1
    return 0


def _capped(*args: str) -> subprocess.CompletedProcess:
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))

    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        env={"PYTHONPATH": str(ROOT / "src")},
    )


def test_level_96_solves_under_a_256_mib_cap():
    proc = _capped(__file__)
    assert proc.returncode == 0, proc.stdout + proc.stderr


EXPANDED_THEORY = (ROOT / "theories" / "robot_scheduling.theory").read_text() + """
theory expanded = expand(schedule) {
  rel same/2 = "x1 = x2";
}
"""


def test_cli_solves_an_expanded_product_under_a_256_mib_cap(tmp_path):
    import cspsampling as cs
    from cspsampling import io

    chain = [f"lt(x{i},x{i + 1})" for i in range(1, 48)]
    text = "\n".join(chain + ["p0(x1)", "p1(x48)", "same(x5,x5)", "min3(x1,x1,x7)"])
    (tmp_path / "expanded.theory").write_text(EXPANDED_THEORY)
    (tmp_path / "chain.inst").write_text(text)
    proc = _capped(
        "-m", "cspsampling.cli", "solve", "--json",
        "--theory", str(tmp_path / "expanded.theory"), "--instance", str(tmp_path / "chain.inst"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    family = io.parse_theory_spec(EXPANDED_THEORY).family("expanded")
    inst = io.parse_instance(text, family.signature)
    sample = family.generate(48)[report["sample_index"]]
    element = {sample.label(e): e for e in range(sample.domain_size)}
    assert len(element) == sample.domain_size
    witness = {v: element[label] for v, label in report["witness"].items()}
    assert cs.check_witness(inst, sample, witness)


if __name__ == "__main__":
    sys.exit(solve_level(LEVEL))
