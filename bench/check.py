"""Checks of CLI outputs against the answers known by construction.

`Checker.check(op, code, stdout)` returns True when the op's output is right.
It uses only the standard library and `gen`, never the program under test.
"""

from __future__ import annotations

import json
from fractions import Fraction

import gen

# ---------------------------------------------------------------------------
# truncated series in noncommuting x_1..x_mu: {word tuple: Fraction}
# ---------------------------------------------------------------------------


def series_mul(a: dict, b: dict, degree: int) -> dict:
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) <= degree:
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
    return out


def magnus_word(word: str, degree: int) -> dict:
    """Image of a positive group word such as "z1 z2" under z_i -> 1 + x_i
    (the presentation sigma = 1 - s (1 - sum z_i e_i) has no others)."""
    acc = {(): Fraction(1)}
    if word == "1":
        return acc
    for letter in word.split():
        factor = {(): Fraction(1), (int(letter[1:]),): Fraction(1)}
        acc = series_mul(acc, factor, degree)
    return acc


def parse_series(terms: list) -> dict:
    """A serialized truncated series: [["1" | "x1 x2 ...", "p/q"], ...]."""
    return {(() if name == "1" else
             tuple(int(x[1:]) for x in name.split())): Fraction(c)
            for name, c in terms}


def sigma_times_inverse_is_one(doc: dict) -> bool:
    """The Magnus image of sigma times the truncated inverse is 1."""
    degree = doc["degree"]
    sigma = [[_group_ring_series(entry, degree) for entry in row]
             for row in doc["sigma"]]
    inverse = [[parse_series(entry) for entry in row]
               for row in doc["sigma_inverse_truncated"]]
    n = len(sigma)
    if len(inverse) != n:
        return False
    for p in range(n):
        for q in range(n):
            acc = {}
            for t in range(n):
                for w, c in series_mul(sigma[p][t], inverse[t][q],
                                       degree).items():
                    acc[w] = acc.get(w, 0) + c
            expected = {(): Fraction(1)} if p == q else {}
            if {w: c for w, c in acc.items() if c} != expected:
                return False
    return True


def _group_ring_series(terms: list, degree: int) -> dict:
    out = {}
    for word, c in terms:
        for w, x in magnus_word(word, degree).items():
            out[w] = out.get(w, 0) + Fraction(c) * x
    return out


# ---------------------------------------------------------------------------
# per-workload answers
# ---------------------------------------------------------------------------


def same_column_space(got: list, expected: list) -> bool:
    """Both n x k matrices (rows of "p/q") have rank k and one column
    space."""
    a = [[Fraction(x) for x in row] for row in got]
    b = [[Fraction(x) for x in row] for row in expected]
    k = len(b[0]) if b else 0
    if len(a) != len(b) or any(len(row) != k for row in a):
        return False
    if k == 0:
        return True
    joined = [ra + rb for ra, rb in zip(a, b)]
    return gen.rank(a) == k and gen.rank(joined) == k


def piece_invariants(doc: dict) -> list:
    """Per-piece invariants that do not depend on the basis: the labels of
    real places and the chosen generator of the field do."""
    out = []
    for p in doc["pieces"]:
        sigs = p["signatures"]
        out.append(json.dumps({
            "module_dim": p["module_dim"],
            "multiplicity": p["multiplicity"],
            "algebra": p["algebra"],
            "rank_mod2": p["rank_mod2"],
            "signatures": None if sigs is None else sorted(s for _, s in sigs),
            "discriminant": p["discriminant"],
            "hasse": p["hasse"],
            "status": p["status"],
        }, sort_keys=True))
    return sorted(out)


class Checker:
    """Holds what a later op is compared with (the knot before its
    scramble), and the hashes of outputs already checked, so that a run
    cycling through its op list checks a repeated output only once."""

    def __init__(self):
        self.knot_invariants = {}
        self.verdicts = {}

    def check(self, op: dict, code, stdout: str) -> bool:
        if code != 0:
            return False
        if op["kind"].startswith("knot"):
            return self._parse_and_check(op, stdout)
        key = (op["id"], hash(stdout))
        if key not in self.verdicts:
            self.verdicts[key] = self._parse_and_check(op, stdout)
        return self.verdicts[key]

    def _parse_and_check(self, op: dict, stdout: str) -> bool:
        try:
            return self._check_doc(op, json.loads(stdout))
        except (ValueError, KeyError, TypeError, IndexError):
            return False

    def _check_doc(self, op: dict, doc: dict) -> bool:
        kind, expect = op["kind"], op["expect"]
        if kind in ("random", "diagonal"):
            return doc["verdict"] == expect["verdict"]
        if kind in ("knot", "knot-scrambled"):
            invariants = piece_invariants(doc)
            self.knot_invariants[op["id"]] = invariants
            if expect["irreducible"] and doc["verdict"] != "nontrivial":
                return False
            if expect.get("same_as_previous"):
                previous = self.knot_invariants.get(op["id"] - 1)
                if previous is not None and previous != invariants:
                    return False
            return True
        if kind in ("pairing", "series"):
            if doc["degree"] != expect["degree"]:
                return False
            if kind == "pairing" and ("pairing" not in doc
                                      or "symmetry_witness" not in doc):
                return False
            return sigma_times_inverse_is_one(doc)
        if kind == "primitive":
            return (same_column_space(doc["max_primitive_basis"],
                                      expect["max_primitive"])
                    and same_column_space(doc["min_coprimitive_basis"],
                                          expect["min_coprimitive"])
                    and doc["primitive"] == expect["primitive"])
        raise ValueError(f"unknown op kind {kind!r}")
