"""The benchmark's workloads, their inputs and the per-command correctness gate.

A workload is a fixed list of CLI commands over instance files.  `corpus`
replays the committed `corpus/*/expected.txt` command lists; the other
three run on the files under `bench/inputs/`, whose expected outputs are
recorded in `bench/oracle.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPUTS = os.path.join(HERE, "inputs")
ORACLE = os.path.join(HERE, "oracle.json")
CORPUS = os.path.join(ROOT, "corpus")

# The seed at which the oracle's stdout hashes (and the corpus
# expected.txt files) were recorded; it is the CLI's own HGL_SEED default.
DEFAULT_SEED = 0

# (case, CLI arguments after the instance file).  Each workload stresses a
# different layer; see bench/README.md for the metric -> layer table.
WORKLOADS = {
    # Condition C: a few large, very sparse least-pivot solves; the non-free
    # cases take the inconsistent-system and defect-witness paths (exit 1).
    "principal_family": [
        ("free_z4_x8_qq", ["principal"]),
        ("free_z3_x9_qq", ["principal"]),
        ("free_z3_x9_f101", ["principal"]),
        ("nonfree_z2_x6_qq", ["principal"]),
        ("nonfree_z2_x7_f101", ["principal"]),
        ("free_z3_x9_qq", ["principal", "--dualize"]),
    ],
    # The same linalg layer used differently: tall equaliser kernels and
    # hundreds of factorisations in qcat, seeded random modules in descent.
    "structure_family": [
        ("pair_groupoid_n3_qq", ["qcat"]),
        ("pair_groupoid_n3_f101", ["qcat"]),
        ("free_z2_x4_qq", ["qcat"]),
        ("free_z4_x12_qq", ["descent", "--sweep-dim", "4"]),
        ("free_z3_x9_f101", ["descent", "--sweep-dim", "4"]),
    ],
    # No elimination apart from one antipode inversion per Hopf algebra:
    # compose, tensor, Morphism construction and GradedSpace.tensor.
    "axioms": [
        ("s4_f101", ["check", "--what", "hopf"]),
        ("trivial_z12_qq", ["check", "--what", "all"]),
        ("trivial_z12_qq", ["eval"]),
        ("trivial_braided_line10_f11", ["check", "--what", "all"]),
        ("trivial_braided_line10_f11", ["eval"]),
    ],
}

LARGEST = {
    "corpus": "trivial_sweedler qcat",
    "principal_family": "free_z3_x9_qq principal --dualize",
    "structure_family": "pair_groupoid_n3_qq qcat",
    "axioms": "s4_f101 check --what hopf",
}

NAMES = ["corpus"] + list(WORKLOADS)


class Command:
    """One CLI invocation of a workload and what its output must be."""

    def __init__(self, directory, case, args, field, expected=None,
                 oracle=None, seeded=False):
        self.case = case
        self.args = list(args)
        self.key = "%s %s" % (case, " ".join(args))
        self.argv = [args[0], os.path.join(directory, "instance.txt")] + args[1:]
        if args[0] == "eval":
            self.argv.append(os.path.join(directory, "assertions.txt"))
        self.field = field
        self.expected = expected    # corpus: the byte-exact expected chunk
        self.oracle = oracle        # others: the oracle.json record
        self.seeded = seeded        # output depends on HGL_SEED

    def transcript(self, stdout, code):
        """The corpus `expected.txt` chunk for this command's output."""
        return "$ hopfgal %s\n%sexit %d\n" % (" ".join(self.args), stdout, code)

    def check(self, stdout, code, seed):
        """None when the output is correct, else a one-line reason.

        A seeded command's stdout hash is only known at the default seed;
        at other seeds the caller compares it between two passes.
        """
        if self.expected is not None:
            if self.transcript(stdout, code) != self.expected:
                return "stdout differs from expected.txt"
            return None
        o = self.oracle
        if code != o["exit"]:
            return "exit %d, expected %d" % (code, o["exit"])
        for line in o["lines"]:
            if line not in stdout.splitlines():
                return "missing oracle line %r" % line
        if (not self.seeded or seed == DEFAULT_SEED) and \
                sha256(stdout) != o["sha256"]:
            return "stdout sha256 differs from the oracle"
        return None


def run(main, cmd):
    """Run one command in-process: (stdout, exit code, error or None).

    Any exception escaping the CLI, including argparse's SystemExit, is
    returned as the error and counts as a failed command.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(cmd.argv)
    except (Exception, SystemExit) as exc:
        return out.getvalue(), None, "%s: %s" % (type(exc).__name__, exc)
    return out.getvalue(), code, None


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def field_of(instance_text):
    """'QQ' or 'F_p' from an instance's `field` line."""
    words = instance_text.split("\n", 1)[0].split()
    return "QQ" if words[1] == "rational" else "F_" + words[2]


def oracle_lines(args, facts):
    """Report lines that any correct run must print, from the case facts."""
    lines = []
    if args[0] == "principal":
        lines.append("check=principal verdict=%s"
                     % ("pass" if facts["free"] else "fail"))
    if args[0] == "qcat":
        lines.append("check=qcat.dim_G verdict=pass dim=%d" % facts["dim_G"])
    return lines


def expected_exit(args, facts):
    return 1 if args[0] == "principal" and not facts["free"] else 0


def is_seeded(args):
    """The sweeps here run over dim-3 bases: random base modules from HGL_SEED."""
    return args[0] == "descent" and "--sweep-dim" in args


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _split_transcript(text):
    """Split an expected.txt into (command args, chunk) pairs."""
    chunks = []
    for line in text.splitlines(keepends=True):
        if line.startswith("$ hopfgal "):
            chunks.append([line[len("$ hopfgal "):].split(), line])
        else:
            chunks[-1][1] += line
    return chunks


def load(name):
    """Read every input and reference file of a workload; returns Commands."""
    if name == "corpus":
        out = []
        for entry in sorted(os.listdir(CORPUS)):
            directory = os.path.join(CORPUS, entry)
            field = field_of(_read(os.path.join(directory, "instance.txt")))
            _read(os.path.join(directory, "assertions.txt"))
            for args, chunk in _split_transcript(
                    _read(os.path.join(directory, "expected.txt"))):
                out.append(Command(directory, entry, args, field,
                                   expected=chunk))
        return out
    oracle = json.loads(_read(ORACLE))
    out = []
    for case, args in WORKLOADS[name]:
        directory = os.path.join(INPUTS, case)
        field = field_of(_read(os.path.join(directory, "instance.txt")))
        _read(os.path.join(directory, "assertions.txt"))
        cmd = Command(directory, case, args, field, seeded=is_seeded(args))
        cmd.oracle = oracle["commands"][cmd.key]
        out.append(cmd)
    return out
