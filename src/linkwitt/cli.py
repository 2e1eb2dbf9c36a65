"""Command-line front end.

Subcommands: `invariants` (full cobordism-invariant pipeline), `cobordant`
(compare two forms through the invariants of their difference), `cover`
(presentation, truncated inverse, pairing and symmetry witness) and
`primitive` (maximal primitive / minimal coprimitive analysis).

Input is UTF-8 JSON with rationals as "p/q" strings.  Reports are emitted as
canonical JSON (or text derived from it) and are byte-identical under fixed
--seed and --degree.

Exit codes: 0 ok, 2 schema error, 3 invariant violation in the input,
4 unsupported (quaternionic endomorphism ring) with a partial report,
5 undecided (the reduction could not certify simplicity or build an
endomorphism field; no report), 6 internal error (a failed internal
consistency check; no report).
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_str

from .rational import QMatrix, rat, rat_str
from .seifert import SeifertError, SeifertForm, SeifertModule
from .covering import (blanchfield_pairing, cover_presentation,
                       sigma_inverse_truncated, symmetry_witness)
from .devissage import SimplicityUndecided
from .endofield import EndomorphismError
from .primitives import analyze_primitives
from .wittinv import analyze_form

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVALID = 3
EXIT_UNSUPPORTED = 4
EXIT_UNDECIDED = 5
EXIT_INTERNAL = 6


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    """A JSON integer: bool is a subclass of int, but true/false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_matrix(obj, n: int, what: str) -> QMatrix:
    if (not isinstance(obj, list) or len(obj) != n
            or any(not isinstance(r, list) or len(r) != n for r in obj)):
        raise SchemaError(f"{what}: expected a {n}x{n} matrix")
    if any(isinstance(x, bool) for row in obj for x in row):
        raise SchemaError(f"{what}: bad rational entry (boolean)")
    try:
        return QMatrix._of(n, n, [[rat(x) for x in row] for row in obj])
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what}: bad rational entry ({exc})")


def load_input(path: str):
    """Parse a Seifert input file: (module, form-or-None)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for key in ("mu", "ring", "dim", "s", "projections"):
        if key not in doc:
            raise SchemaError(f"missing field {key!r}")
    mu, ring, dim = doc["mu"], doc["ring"], doc["dim"]
    if not _is_int(mu) or mu < 1:
        raise SchemaError("mu must be a positive integer")
    if ring not in ("Z", "Q"):
        raise SchemaError('ring must be "Z" or "Q"')
    if not _is_int(dim) or dim < 0:
        raise SchemaError("dim must be a nonnegative integer")
    s = _parse_matrix(doc["s"], dim, "s")
    proj = doc["projections"]
    if not isinstance(proj, dict) or "type" not in proj:
        raise SchemaError("projections must carry a type")
    if proj["type"] == "blocks":
        sizes = proj.get("sizes")
        if (not isinstance(sizes, list) or len(sizes) != mu
                or any(not _is_int(x) or x < 0 for x in sizes)):
            raise SchemaError("projections.sizes must list mu sizes")
        if sum(sizes) != dim:
            raise SchemaError("projection blocks must sum to dim")
        module = SeifertModule.from_blocks(mu, s, sizes, ring)
    elif proj["type"] == "matrices":
        mats = proj.get("pi")
        if not isinstance(mats, list) or len(mats) != mu:
            raise SchemaError("projections.pi must list mu matrices")
        projections = [_parse_matrix(m, dim, f"pi[{i}]")
                       for i, m in enumerate(mats)]
        module = SeifertModule(mu, s, projections, ring)
    else:
        raise SchemaError(f"unknown projection type {proj['type']!r}")
    form = None
    if "form" in doc and doc["form"] is not None:
        fdoc = doc["form"]
        if not isinstance(fdoc, dict) or "zeta" not in fdoc or "phi" not in fdoc:
            raise SchemaError("form must carry zeta and phi")
        if not _is_int(fdoc["zeta"]) or fdoc["zeta"] not in (1, -1):
            raise SchemaError("zeta must be +1 or -1")
        phi = _parse_matrix(fdoc["phi"], dim, "phi")
        form = SeifertForm(module, fdoc["zeta"], phi)
    return module, form


def _matrix_json(m: QMatrix) -> list:
    return [[rat_str(x) for x in row] for row in m.data]


def _series_matrix_json(rows) -> list:
    """Serialized entries of a matrix of truncated series, sharing one table
    of word names."""
    names = {}
    return [[e.serialize(names) for e in row] for row in rows]


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def report_to_dict(report, module, form, seed: int, degree: int) -> dict:
    pieces = []
    for p in report.pieces:
        pieces.append({
            "module_dim": p.module_dim,
            "multiplicity": p.multiplicity,
            "algebra": p.algebra_kind,
            "end_minpoly": p.end_minpoly,
            "chosen_b": p.chosen_b,
            "rank_mod2": p.rank_mod2,
            "signatures": ([[label, s] for label, s in p.signatures]
                           if p.signatures is not None else None),
            "discriminant": p.discriminant,
            "hasse": ([[str(v), c] for v, c in p.hasse]
                      if p.hasse is not None else None),
            "status": p.status,
        })
    return {
        "input": {"mu": module.mu, "dim": module.dim, "ring": module.ring,
                  "zeta": form.zeta if form is not None else None},
        "seed": seed,
        "degree": degree,
        "pieces": pieces,
        "verdict": report.verdict,
        "log": report.log,
    }


def emit(doc: dict, fmt: str) -> str:
    """The report as text, or as JSON: `--format json` is byte-for-byte
    `json.dumps(doc, sort_keys=True, indent=2)` plus a newline."""
    if fmt == "json":
        out = []
        _json_chunks(doc, "\n", out)
        out.append("\n")
        return "".join(out)
    return _render_text(doc) + "\n"


def _json_chunks(val, newline: str, out: list) -> None:
    """Append the indented JSON of `val` to `out` in chunks, as
    `json.dumps(val, sort_keys=True, indent=2)` writes it; `newline` is a
    newline followed by the indentation of the line `val` starts on.  Only
    the types of a report are written (str keys; str, int, bool, None, list
    and dict values); any other raises TypeError, as json.dumps does on a
    type it does not know."""
    if isinstance(val, str):
        out.append(_json_str(val))
    elif val is None:
        out.append("null")
    elif val is True:
        out.append("true")
    elif val is False:
        out.append("false")
    elif isinstance(val, int):
        out.append(int.__repr__(val))
    elif isinstance(val, list):
        if not val:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is str for x in val):
            items = map(_json_str, val)
        elif (set(map(type, val)) == {list} and all(val)
              and set(map(type, chain.from_iterable(val))) == {str}):
            # the [word, coefficient] pairs of a serialized series, joined in C
            deeper = inner + "  "
            pairs = map(("," + deeper).join, map(map, repeat(_json_str), val))
            items = ["[" + deeper
                     + (inner + "]," + inner + "[" + deeper).join(pairs)
                     + inner + "]"]
        else:
            sep = "[" + inner
            for x in val:
                out.append(sep)
                _json_chunks(x, inner, out)
                sep = "," + inner
            out.append(newline + "]")
            return
        out.append("[" + inner + ("," + inner).join(items) + newline + "]")
    elif isinstance(val, dict):
        if not val:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(val):
            out.append(sep + _json_str(key) + ": ")
            _json_chunks(val[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(val).__name__} "
                        f"is not JSON serializable")


def _render_text(doc: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    for key in sorted(doc):
        val = doc[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(val, indent + 1))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for i, item in enumerate(val):
                lines.append(f"{pad}  [{i}]")
                lines.append(_render_text(item, indent + 2))
        else:
            lines.append(f"{pad}{key}: {json.dumps(val, sort_keys=True)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_invariants(args) -> int:
    module, form = load_input(args.input)
    if form is None:
        raise SchemaError("invariants require a form")
    err = form.validate()
    if err is not None:
        raise SeifertError(err)
    report = analyze_form(form, args.seed)
    doc = report_to_dict(report, module, form, args.seed, args.degree)
    sys.stdout.write(emit(doc, args.format))
    if report.verdict == "undetermined (quaternionic)":
        return EXIT_UNSUPPORTED
    return EXIT_OK


def run_cobordant(args) -> int:
    module_a, form_a = load_input(args.a)
    module_b, form_b = load_input(args.b)
    if form_a is None or form_b is None:
        raise SchemaError("both inputs need forms")
    for name, f in (("first", form_a), ("second", form_b)):
        err = f.validate()
        if err is not None:
            print(f"invalid {name} input: {err}", file=sys.stderr)
            return EXIT_INVALID
    if module_a.mu != module_b.mu or form_a.zeta != form_b.zeta:
        print("invalid input pair: mu and zeta must agree", file=sys.stderr)
        return EXIT_INVALID
    difference = form_a.promote().direct_sum(form_b.promote().negate())
    report = analyze_form(difference, args.seed)
    if report.verdict == "witt-trivial":
        verdict = "cobordant-by-these-invariants"
    elif report.verdict == "nontrivial":
        verdict = "not-cobordant"
    else:
        verdict = "undetermined"
    doc = report_to_dict(report, difference.module, difference,
                         args.seed, args.degree)
    doc["verdict"] = verdict
    doc["pipeline_verdict"] = report.verdict
    sys.stdout.write(emit(doc, args.format))
    if report.verdict == "undetermined (quaternionic)":
        return EXIT_UNSUPPORTED
    return EXIT_OK


def run_cover(args) -> int:
    module, form = load_input(args.input)
    degree = args.degree
    pres = cover_presentation(module)
    sigma = [[e.serialize() for e in row] for row in pres.entries]
    inverse = sigma_inverse_truncated(module, degree)
    doc = {
        "input": {"mu": module.mu, "dim": module.dim, "ring": module.ring},
        "seed": args.seed,
        "degree": degree,
        "sigma": sigma,
        "sigma_inverse_truncated": _series_matrix_json(inverse),
    }
    if form is not None:
        err = form.validate()
        if err is not None:
            raise SeifertError(err)
        pairing = blanchfield_pairing(form, degree)
        witness = symmetry_witness(pairing, form.zeta, degree)
        doc["pairing"] = _series_matrix_json(
            [[e.truncated for e in row] for row in pairing])
        doc["symmetry_witness"] = (
            "found" if witness is not None
            else "no witness at this truncation")
        if witness is not None:
            doc["witness"] = [[e.serialize() for e in row]
                              for row in witness]
    sys.stdout.write(emit(doc, args.format))
    return EXIT_OK


def run_primitive(args) -> int:
    module, _form = load_input(args.input)
    analysis = analyze_primitives(module)
    doc = {
        "input": {"mu": module.mu, "dim": module.dim, "ring": module.ring},
        "seed": args.seed,
        "max_primitive_basis": _matrix_json(analysis.max_primitive.matrix),
        "max_primitive_dim": analysis.max_primitive.matrix.cols,
        "min_coprimitive_basis": _matrix_json(analysis.min_coprimitive.matrix),
        "min_coprimitive_dim": analysis.min_coprimitive.matrix.cols,
        "filtration": analysis.filtration,
        "primitive": analysis.is_primitive,
    }
    sys.stdout.write(emit(doc, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linkwitt",
        description="Cobordism invariants of boundary links from "
                    "Seifert-form input")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="64-bit seed recorded in the report (default 0)")
        p.add_argument("--degree", type=int, default=8,
                       help="truncation degree for series output (default 8)")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_inv = sub.add_parser("invariants", help="full invariant pipeline")
    p_inv.add_argument("input")
    common(p_inv)
    p_inv.set_defaults(func=run_invariants)

    p_cob = sub.add_parser("cobordant",
                           help="compare two forms through the invariants "
                                "of their difference")
    p_cob.add_argument("a")
    p_cob.add_argument("b")
    common(p_cob)
    p_cob.set_defaults(func=run_cobordant)

    p_cov = sub.add_parser("cover",
                           help="presentation, truncated inverse, pairing")
    p_cov.add_argument("input")
    common(p_cov)
    p_cov.set_defaults(func=run_cover)

    p_pri = sub.add_parser("primitive", help="primitivity analysis")
    p_pri.add_argument("input")
    common(p_pri)
    p_pri.set_defaults(func=run_primitive)
    return parser


# built once: parse_args keeps no state between calls, each call fills a new
# namespace from the defaults
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.degree < 0:
        print("schema error: --degree must be nonnegative", file=sys.stderr)
        return EXIT_SCHEMA
    if not 0 <= args.seed < 2 ** 64:
        print("schema error: --seed must fit in 64 bits", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except SeifertError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SimplicityUndecided, EndomorphismError) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
