import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import cspsampling as cs
from cspsampling import io
from cspsampling.cli import main

THEORY = "theories/robot_scheduling.theory"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_satisfiable_prints_witness(tmp_path, capsys):
    inst = tmp_path / "plan.inst"
    inst.write_text("lt(x,y); lt(y,z); p0(x); p1(z)\n")
    code, out, _ = run(capsys, "solve", "--theory", THEORY, "--instance", str(inst))
    assert code == 0
    lines = dict(l.split(": ", 1) for l in out.strip().splitlines())
    assert lines["verdict"] == "satisfiable"
    assert lines["method"] == "hom"
    assert "witness.x" in lines and "witness.z" in lines
    # the witness round-trips through labels onto a real homomorphism
    spec = io.parse_theory_spec(open(THEORY).read())
    fam = spec.family()
    sample = fam.generate(3)[int(lines["sample_index"])]
    label_to_id = {sample.label(e): e for e in range(sample.domain_size)}
    assignment = {
        key.split(".", 1)[1]: label_to_id[value]
        for key, value in lines.items()
        if key.startswith("witness.")
    }
    parsed = io.parse_instance(inst.read_text(), fam.signature)
    assert cs.check_witness(parsed, sample, assignment)


def test_solve_unsatisfiable_exit_code(tmp_path, capsys):
    inst = tmp_path / "bad.inst"
    inst.write_text("min3(x,y,z); x != y; x != z\n")
    code, out, _ = run(capsys, "solve", "--theory", THEORY, "--instance", str(inst))
    assert code == 1
    assert "verdict: unsatisfiable" in out


def test_solve_error_exit_code(tmp_path, capsys):
    inst = tmp_path / "broken.inst"
    inst.write_text("lt(x)\n")
    code, _, err = run(capsys, "solve", "--theory", THEORY, "--instance", str(inst))
    assert code == 2
    assert "error:" in err


def test_solve_json_report(tmp_path, capsys):
    inst = tmp_path / "plan.inst"
    inst.write_text("lt(x,y)\n")
    code, out, _ = run(
        capsys, "solve", "--theory", THEORY, "--instance", str(inst), "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"verdict", "method", "witness", "sample_index", "timings"}
    assert report["verdict"] == "satisfiable"
    assert report["method"] == "hom"
    assert set(report["timings"]) == {"parse_s", "generate_s", "solve_s", "total_s"}
    assert report["witness"]["x"]
    assert report["sample_index"] == 0
    for method in ("ac", "nu"):
        code, out, _ = run(
            capsys, "solve", "--theory", THEORY, "--instance", str(inst), "--json",
            "--method", method,
        )
        report = json.loads(out)
        assert (code, report["verdict"], report["method"]) == (0, "satisfiable", method)
        assert report["witness"] is None


def test_solve_methods_agree_and_warn(tmp_path, capsys):
    inst = tmp_path / "plan.inst"
    inst.write_text("lt(x,y); lt(y,z); p0(x); p1(z)\n")
    for method in ("ac", "nu"):
        code, out, err = run(
            capsys, "solve", "--theory", THEORY, "--instance", str(inst),
            "--method", method,
        )
        assert code == 0
        assert "verdict: satisfiable" in out
        assert "warning" in err
    bad = tmp_path / "cycle.inst"
    bad.write_text("lt(x,y); lt(y,x)\n")
    code, out, _ = run(
        capsys, "solve", "--theory", THEORY, "--instance", str(bad),
        "--method", "ac",
    )
    assert code == 1


def test_sample_writes_structures(tmp_path, capsys):
    out_path = tmp_path / "samples.txt"
    code, _, _ = run(
        capsys, "sample", "--theory", THEORY, "--name", "robots", "-n", "2",
        "--out", str(out_path),
    )
    assert code == 0
    parsed = io.parse_structures(out_path.read_text())
    assert len(parsed) == 1
    assert parsed[0][1].domain_size == 4


def test_sample_succ2col_size(tmp_path, capsys):
    theory = tmp_path / "c.theory"
    theory.write_text("theory C = succ2col\n")
    code, out, _ = run(capsys, "sample", "--theory", str(theory), "-n", "3")
    assert code == 0
    parsed = io.parse_structures(out)
    assert parsed[0][1].domain_size == 8


def test_checkpoly_builtin_and_file(tmp_path, capsys):
    code, _, _ = run(
        capsys, "sample", "--theory", THEORY, "--name", "order", "-n", "3",
        "--out", str(tmp_path / "chain.txt"),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "checkpoly", "--structure", str(tmp_path / "chain.txt"),
        "--op", "min2",
    )
    assert code == 0
    assert "polymorphism: true" in out
    assert "totally_symmetric: true" in out
    assert "near_unanimity: n/a" in out

    table = tmp_path / "op.txt"
    table.write_text(io.print_operation_table(cs.majority_eq_operation(3)))
    code, out, _ = run(
        capsys, "checkpoly", "--structure", str(tmp_path / "chain.txt"),
        "--op", str(table), "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["near_unanimity"] is True
    assert report["totally_symmetric"] is False


def test_checkpoly_missing_file_errors(capsys):
    code, _, err = run(
        capsys, "checkpoly", "--structure", "missing.txt", "--op", "min2"
    )
    assert code == 2 and "error:" in err


def test_checkpoly_bad_table_entry_exits_2_with_its_line(tmp_path, capsys):
    structure = tmp_path / "two.txt"
    structure.write_text("structure s over E/2\ndomain 2\nrel E: (0,1)\n")
    table = tmp_path / "op.txt"
    for body, message in (("0 x", "line 2: bad entry 'x'"),
                          ("0 5", "line 2: output 5 out of range for domain 2")):
        table.write_text(f"optable domain 2 arity 1\n{body}\n")
        code, _, err = run(
            capsys, "checkpoly", "--structure", str(structure), "--op", str(table)
        )
        assert code == 2 and err == f"error: {message}\n"


def test_checkpoly_header_errors_exit_2_with_their_line(tmp_path, capsys):
    structure, table = tmp_path / "s.txt", tmp_path / "op.txt"
    good_structure = "structure s over E/2\ndomain 2\nrel E: (0,1)\n"
    good_table = "optable domain 2 arity 1\n0 1\n"
    for structure_text, table_text, message in (
        ("structure s over E/0\ndomain 2\n", good_table,
         "line 1: arity of 'E' must be >= 1, got 0"),
        ("structure s over E/2 E/2\ndomain 2\n", good_table,
         "line 1: duplicate relation symbol 'E'"),
        (good_structure, "optable domain 2 arity 0\n0\n", "line 1: arity must be >= 1"),
    ):
        structure.write_text(structure_text)
        table.write_text(table_text)
        code, _, err = run(
            capsys, "checkpoly", "--structure", str(structure), "--op", str(table)
        )
        assert code == 2 and err == f"error: {message}\n"


def test_checkpoly_repeated_structure_line_exits_2_with_its_line(tmp_path, capsys):
    structure = tmp_path / "s.txt"
    structure.write_text("structure s over E/2\ndomain 2\nrel E: (0,1)\nrel E: (1,0)\n")
    code, out, err = run(capsys, "checkpoly", "--structure", str(structure), "--op", "min2")
    assert code == 2 and out == ""
    assert err == "error: line 4: repeated 'rel E' line\n"


def test_checkpoly_builtin_majority(tmp_path, capsys):
    chain = tmp_path / "chain.txt"
    chain.write_text(io.print_structure(cs.dense_order_sampling().generate(3)[0]))
    code, out, _ = run(capsys, "checkpoly", "--structure", str(chain), "--op", "majority_eq")
    assert code == 0
    assert out == "polymorphism: true\ntotally_symmetric: false\nnear_unanimity: true\n"


def test_cli_verdicts_match_library_on_random_corpus(tmp_path, capsys):
    import random

    import conftest as helpers

    spec = io.parse_theory_spec(open(THEORY).read())
    fam = spec.family()
    rng = random.Random(31337)
    inst_path = tmp_path / "case.inst"
    for _ in range(25):
        inst = helpers.random_instance(fam.signature, rng, max_vars=5,
                                       max_atoms=6)
        inst_path.write_text(io.print_instance(inst))
        code, _, _ = run(
            capsys, "solve", "--theory", THEORY, "--instance", str(inst_path)
        )
        expected = cs.solve_via_sampling(fam, inst).satisfiable
        assert code == (0 if expected else 1)


def test_solve_crash_exits_2_not_1(tmp_path, capsys, monkeypatch):
    import cspsampling.cli as cli

    def crash(family, inst):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(cli, "solve_via_sampling", crash)
    inst = tmp_path / "plan.inst"
    inst.write_text("lt(x,y)\n")
    code, out, err = run(capsys, "solve", "--theory", THEORY, "--instance", str(inst))
    assert code == 2
    assert "verdict" not in out
    assert "error:" in err and "solver crashed" in err


def test_solve_deep_path_instance(tmp_path, capsys):
    theory = tmp_path / "loopy.theory"
    theory.write_text(
        "theory L = explicit { sig E/2; sample { domain 2; rel E: (0,1) (1,0) (0,0); } }\n"
    )
    inst = tmp_path / "path.inst"
    inst.write_text("".join(f"E(v{i},v{i + 1})\n" for i in range(1500)))
    code, out, _ = run(
        capsys, "solve", "--theory", str(theory), "--instance", str(inst)
    )
    assert code == 0
    assert "verdict: satisfiable" in out


def test_solve_over_the_qf_budget_exits_2(tmp_path):
    # ``min3/83`` asks for |D|**83 candidate tuples; without the budget the
    # process would fill memory, so it runs capped and under a timeout
    theory = tmp_path / "typo.theory"
    theory.write_text(open(THEORY).read().replace("rel min3/3", "rel min3/83"))
    inst = tmp_path / "plan.inst"
    inst.write_text("lt(x,y); lt(y,z); p0(x); p1(z)\n")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "cspsampling.cli", "solve",
         "--theory", str(theory), "--instance", str(inst)],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        env={"PYTHONPATH": str(Path(cs.__file__).parents[1])},
    )
    assert proc.returncode == 2
    assert "budget" in proc.stderr


def run_capped(*argv):
    """The CLI in a subprocess under a 1 GiB address-space cap and a timeout."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "cspsampling.cli", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        env={"PYTHONPATH": str(Path(cs.__file__).parents[1])},
    )


def test_solve_over_the_product_budget_exits_2(tmp_path):
    # level 250 of an order joined with 16 parts has 250 * 4000 elements; lt
    # holds 3 masks plus 4 for each of 249 values with partners, p holds 2:
    # 1,001 masks of 1,000,000 bits, over the index budget
    theory = tmp_path / "wide.theory"
    theory.write_text(
        "theory order = dense_order { rel lt/2 = base; }\n"
        "theory parts = partition(16) { rel p/1 = part(1); }\n"
        "theory both = union(order, parts)\n"
    )
    inst = tmp_path / "chain.inst"
    inst.write_text("".join(f"lt(v{i},v{i + 1})\n" for i in range(249)))
    proc = run_capped("solve", "--theory", str(theory), "--instance", str(inst))
    assert proc.returncode == 2
    assert "index budget" in proc.stderr and "1,001,000,000 mask bits" in proc.stderr


def test_nu_over_the_pair_budget_exits_2(tmp_path):
    # robot level 24 has 1,152 elements, padded to 2,048: 24 * 23 pair
    # matrices and 11 transpose masks of 2,048**2 bits each
    inst = tmp_path / "chain.inst"
    inst.write_text("".join(f"lt(v{i},v{i + 1})\n" for i in range(23)))
    proc = run_capped("solve", "--theory", THEORY, "--instance", str(inst), "--method", "nu")
    assert proc.returncode == 2
    assert "pair budget" in proc.stderr and "2,361,393,152 bits" in proc.stderr


def test_from_decider_over_the_renaming_budget_exits_2(tmp_path):
    # level 6 of successor's from-decider family would try at least
    # 1,575,970 renamings: the count is over the budget at 4 variables
    theory = tmp_path / "fd.theory"
    theory.write_text("theory S = successor\ntheory F = from_decider(S, 9)\n")
    inst = tmp_path / "path.inst"
    inst.write_text("".join(f"succ(x{i}, x{i + 1})\n" for i in range(1, 6)))
    start = time.perf_counter()
    proc = run_capped("solve", "--theory", str(theory), "--instance", str(inst))
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert "1,575,970 atom-set renamings" in proc.stderr and "budget of 250,000" in proc.stderr
    # level 3 tries 3,106 renamings and is built
    theory.write_text("theory S = successor\ntheory F = from_decider(S, 3)\n")
    inst.write_text("succ(x1, x2); succ(x2, x3)\n")
    proc = run_capped("solve", "--theory", str(theory), "--instance", str(inst))
    assert proc.returncode == 0 and "verdict: satisfiable" in proc.stdout


def test_explicit_domains_over_the_budget_exit_2(tmp_path):
    theory = tmp_path / "huge.theory"
    theory.write_text(
        "theory H = explicit { sig E/2; sample { domain 40000000000; rel E: (0,1); } }\n"
    )
    inst = tmp_path / "edge.inst"
    inst.write_text("E(x,y)\n")
    structure = tmp_path / "huge.txt"
    structure.write_text("structure s over E/2\ndomain 40000000000\nrel E: (0,1)\n")
    for argv in (
        ("solve", "--theory", str(theory), "--instance", str(inst)),
        ("checkpoly", "--structure", str(structure), "--op", "min2"),
    ):
        proc = run_capped(*argv)
        assert proc.returncode == 2, argv
        assert "budget" in proc.stderr


def test_checkpoly_builtin_operation_budget_exits_2(tmp_path):
    structure = tmp_path / "two.txt"
    structure.write_text("structure s over E/2\ndomain 2\nrel E: (0,1)\n")
    for op in ("min40", "min99999999999"):
        proc = run_capped("checkpoly", "--structure", str(structure), "--op", op)
        assert proc.returncode == 2, op
        assert "budget" in proc.stderr
    big = tmp_path / "big.txt"
    big.write_text("structure s over E/2\ndomain 200\nrel E: (0,1)\n")
    proc = run_capped("checkpoly", "--structure", str(big), "--op", "majority_eq")
    assert proc.returncode == 2 and "budget" in proc.stderr


def test_sample_past_a_builders_budget_exits_2(tmp_path):
    theory = tmp_path / "builtins.theory"
    theory.write_text(
        'theory D = dense_order { rel u/1 = "x1 = x1"; }\n'
        "theory S = successor\n"
        "theory A = alternating_cycles\n"
        "theory M = marked_colors\n"
    )
    for name, n, budget in (
        ("D", 1_000_001, "element budget"),
        ("S", 1000, "element budget"),
        ("A", 1500, "element budget"),
        ("M", 1001, "listing budget"),
    ):
        proc = run_capped("sample", "--theory", str(theory), "--name", name, "-n", str(n))
        assert proc.returncode == 2, name
        assert budget in proc.stderr and proc.stdout == "", name
