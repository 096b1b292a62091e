"""Structured verdicts with witnesses.

Every axiom checker returns a `Report`: a list of named check items, each
carrying a pass/fail verdict and, on failure, a quantitative witness
(defect matrix, kernel basis, dimensions).  Reports render to a canonical
line-oriented text form; rendering is deterministic.
"""

from __future__ import annotations


def matrix_triples(m):
    """Sparse `i j value` text for a Morphism, rows sorted."""
    items = sorted(m.entries.items())
    return "; ".join("%d %d %s" % (i, j, v) for (i, j), v in items) or "(zero)"


class CheckItem:
    __slots__ = ("name", "ok", "details", "witness")

    def __init__(self, name, ok, details=None, witness=None):
        self.name = name
        self.ok = ok
        self.details = {} if details is None else details
        self.witness = witness  # Morphism or None

    def render(self, machine=False):
        parts = ["check=%s" % self.name, "verdict=%s" % ("pass" if self.ok else "fail")]
        for k in sorted(self.details):
            parts.append("%s=%s" % (k, self.details[k]))
        if self.witness is not None and not self.ok:
            parts.append("witness=[%s]" % matrix_triples(self.witness))
        return ("\t" if machine else " ").join(parts)


class Report:
    def __init__(self, items=None):
        self.items = list(items or [])

    def add(self, name, ok, details=None, witness=None):
        self.items.append(CheckItem(name, bool(ok), dict(details or {}), witness))
        return self

    def extend(self, other, prefix=""):
        for it in other.items:
            self.items.append(CheckItem(prefix + it.name, it.ok, it.details, it.witness))
        return self

    @property
    def ok(self):
        return all(it.ok for it in self.items)

    def __getitem__(self, name):
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def render(self, machine=False):
        lines = [it.render(machine) for it in sorted(self.items, key=lambda i: i.name)]
        return "\n".join(lines)

    def __repr__(self):
        return "Report(%d checks, %s)" % (
            len(self.items), "ok" if self.ok else "FAIL")


def equality_check(name, lhs, rhs, details=None):
    """A check item asserting two morphisms are equal, with defect witness.

    Entries are canonical (nonzero, one form per scalar), so equal maps
    have equal `entries` dicts; the defect lhs - rhs is only built for the
    witness of a failure.
    """
    if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
        raise TypeError("sum of morphisms with different endpoints")
    item = CheckItem(name, lhs.entries == rhs.entries, dict(details or {}))
    if not item.ok:
        defect = lhs - rhs
        item.witness = defect
        item.details["defect_nonzeros"] = len(defect.entries)
    return item
