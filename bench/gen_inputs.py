"""Write the benchmark's non-corpus instance and assertion files.

Run once from the repository root:

    python3 bench/gen_inputs.py

Each case below becomes `bench/inputs/<case>/instance.txt` (and
`assertions.txt`), written with the corpus text writers from the
`hopfgal.samples` fixtures.  The files are committed together with
`bench/oracle.json`; benchmark runs only read them, so a later change to
`samples.py` or `InstanceWriter` cannot silently change a workload.
Every run rewrites the inputs and the oracle table together (expected exit
codes, verdicts and per-command stdout sha256 at the default seed), so the
two cannot drift apart.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS = os.path.join(HERE, "inputs")


def _import_hopfgal():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hopfgal import corpus, samples
    from hopfgal.fields import QQ, PrimeField
    return corpus, samples, QQ, PrimeField


def set_action(samples, field, npoints, ngroup, free):
    """Z_ngroup acting on X = Z_npoints.

    Free: x -> x + (|X|/|G|) g.  Not free (ngroup = 2): x -> -x for g != 0,
    which fixes 0 (and |X|/2 when |X| is even).
    """
    if free:
        step = npoints // ngroup
        act = lambda x, g: (x + step * g) % npoints
    else:
        act = lambda x, g: (-x) % npoints if g else x
    return samples.set_action_bundle(
        field, list(range(npoints)), list(range(ngroup)),
        lambda a, b: (a + b) % ngroup, lambda a: (-a) % ngroup, act)


def s4_group_algebra(samples, field):
    elements = sorted(itertools.permutations(range(4)))
    op = lambda a, b: tuple(a[b[i]] for i in range(4))
    inv = lambda a: tuple(sorted(range(4), key=lambda i: a[i]))
    return samples.group_algebra(field, elements, op, inv)


def cases():
    """case name -> (instance text, assertions text, facts for the oracle)."""
    corpus, samples, QQ, PrimeField = _import_hopfgal()
    F101, F11 = PrimeField(101), PrimeField(11)
    out = {}

    def algebra_side(name, b, **facts):
        out[name] = corpus._algebra_side_text(b) + (facts,)

    for field, fname in ((QQ, "qq"), (F101, "f101")):
        algebra_side("free_z3_x9_" + fname, set_action(samples, field, 9, 3, True),
                     free=True)
    algebra_side("free_z4_x8_qq", set_action(samples, QQ, 8, 4, True), free=True)
    algebra_side("free_z4_x12_qq", set_action(samples, QQ, 12, 4, True),
                 free=True)
    algebra_side("free_z2_x4_qq", set_action(samples, QQ, 4, 2, True),
                 free=True, dim_G=8)
    algebra_side("nonfree_z2_x6_qq", set_action(samples, QQ, 6, 2, False),
                 free=False)
    algebra_side("nonfree_z2_x7_f101", set_action(samples, F101, 7, 2, False),
                 free=False)
    for field, fname in ((QQ, "qq"), (F101, "f101")):
        out["pair_groupoid_n3_" + fname] = corpus._comonoid_side_text(
            samples.pair_groupoid_bundle(field, 3)) + ({"free": True, "dim_G": 9},)
    out["s4_f101"] = corpus._hopf_only_text(s4_group_algebra(samples, F101)) + ({},)
    algebra_side("trivial_z12_qq", samples.trivial_algebra_bundle(
        samples.cyclic_group_algebra(QQ, 12)), free=True)
    algebra_side("trivial_braided_line10_f11", samples.trivial_algebra_bundle(
        samples.braided_line(F11, 10, F11.from_int(2))), free=True)
    return out


def write_inputs(root=INPUTS):
    facts = {}
    for name, (instance, assertions, case_facts) in sorted(cases().items()):
        directory = os.path.join(root, name)
        os.makedirs(directory, exist_ok=True)
        for fname, text in (("instance.txt", instance),
                            ("assertions.txt", assertions)):
            with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        facts[name] = case_facts
    return facts


def record_oracle(facts):
    """Run every non-corpus command at the default seed; write oracle.json.

    Refuses to record an exit code or verdict that contradicts the case
    facts (free or not, dim of the quantum category's object G).
    """
    sys.path.insert(0, HERE)
    import workloads
    from hopfgal.cli import main
    os.environ["HGL_SEED"] = str(workloads.DEFAULT_SEED)
    commands = {}
    for name, spec in sorted(workloads.WORKLOADS.items()):
        for case, args in spec:
            cmd = workloads.Command(os.path.join(INPUTS, case), case, args, None)
            stdout, code, error = workloads.run(main, cmd)
            record = {"exit": workloads.expected_exit(args, facts[case]),
                      "lines": workloads.oracle_lines(args, facts[case]),
                      "sha256": workloads.sha256(stdout)}
            cmd.oracle = record
            problem = error or cmd.check(stdout, code, workloads.DEFAULT_SEED)
            if problem:
                raise SystemExit("%s: %s" % (cmd.key, problem))
            commands[cmd.key] = record
    with open(workloads.ORACLE, "w", encoding="utf-8") as fh:
        json.dump({"default_seed": workloads.DEFAULT_SEED, "cases": facts,
                   "commands": commands}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    case_facts = write_inputs()
    for case in sorted(case_facts):
        print(case)
    record_oracle(case_facts)
