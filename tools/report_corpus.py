"""Byte-identity corpus of linkwitt reports.

    python3 tools/report_corpus.py --seeds 11 12 --out corpus.jsonl
    python3 tools/report_corpus.py --seeds 11 \
        --check tests/data/expected/report_corpus_seed11.jsonl

Runs, through `linkwitt.cli.main` in-process and against the `src/` of this
checkout:
- every op of the four benchmark workloads (`bench/gen.py`'s `make_ops`, at
  `bench/run.py`'s `OPS` counts) for each seed;
- `invariants`, `primitive`, `cover --degree 6` and `cobordant f f`, in text
  and in json, on every `tests/data/*.json`.

Each run gives one JSON line: its key (no temporary path in it), the exit
code, the sha256 of stdout and the first 120 characters of stderr, with the
work directory written as `<work>`.  The lines are sorted by key.  With
`--check FILE` the lines are compared with FILE: the keys that differ are
printed and the exit code is 1.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import gen                      # noqa: E402
from run import OPS             # noqa: E402
from linkwitt import cli        # noqa: E402

FIXTURE_COMMANDS = [("invariants", ["invariants", "{f}"]),
                    ("primitive", ["primitive", "{f}"]),
                    ("cover", ["cover", "{f}", "--degree", "6"]),
                    ("cobordant", ["cobordant", "{f}", "{f}"])]
STDERR_CHARS = 120


def run_one(argv: list, work: str) -> dict:
    """Exit code, stdout digest and stderr head of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:    # a traceback is a result too
            code = f"exception {type(exc).__name__}"
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(
                out.getvalue().encode("utf-8")).hexdigest(),
            "stderr": err.getvalue().replace(work, "<work>")[:STDERR_CHARS]}


def runs(seeds: list, work: str):
    """(key, argv) of every run, with the input files written under work."""
    for seed in seeds:
        for workload in sorted(OPS):
            ops = gen.make_ops(workload, seed, OPS[workload])
            gen.write_ops(ops, os.path.join(work, f"{workload}-{seed}"))
            for op in ops:
                yield f"{workload}/seed{seed}/{op['id']:05d}", op["argv"]
    fixtures = os.path.join(work, "fixtures")
    os.makedirs(fixtures)
    for src in sorted(glob.glob(os.path.join(ROOT, "tests", "data",
                                             "*.json"))):
        name = os.path.basename(src)
        path = shutil.copy(src, os.path.join(fixtures, name))
        for command, template in FIXTURE_COMMANDS:
            argv = [path if a == "{f}" else a for a in template]
            for fmt in ("text", "json"):
                yield f"fixture/{name}/{command}/{fmt}", argv + ["--format",
                                                                 fmt]


def corpus(seeds: list) -> list:
    work = tempfile.mkdtemp(prefix="report-corpus-")
    try:
        lines = [json.dumps(dict(key=key, **run_one(argv, work)),
                            sort_keys=True)
                 for key, argv in runs(seeds, work)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return sorted(lines)


def differing_keys(lines: list, expected: list) -> list:
    mine = {json.loads(line)["key"]: line for line in lines}
    theirs = {json.loads(line)["key"]: line for line in expected}
    return sorted(key for key in mine.keys() | theirs.keys()
                  if mine.get(key) != theirs.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", help="write the lines here (default "
                        "stdout)")
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the lines of FILE")
    args = parser.parse_args(argv)
    lines = corpus(args.seeds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
    elif not args.check:
        sys.stdout.writelines(line + "\n" for line in lines)
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            expected = [line for line in fh.read().splitlines() if line]
        bad = differing_keys(lines, expected)
        for key in bad:
            print(f"differs: {key}")
        print(f"{len(lines)} runs, {len(bad)} differing keys")
        return 1 if bad else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
