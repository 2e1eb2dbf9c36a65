"""Tests of the benchmark itself: input determinism, failure counting, span
arithmetic and the output contract."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(run.OPS))
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    written = []
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        ops = gen.make_ops(workload, seed, 24)
        gen.write_ops(ops, str(tmp_path / sub))
        written.append(_tree_bytes(str(tmp_path / sub)))
    assert written[0] and written[0] == written[1]
    assert written[0] != written[2]


class FakeCli:
    """Stands in for linkwitt.cli: prints a fixed output."""

    def __init__(self, text, code=0):
        self.text, self.code = text, code

    def main(self, argv):
        sys.stdout.write(self.text)
        return self.code


def _failed_frac(fake, ops):
    _, _, _, shown = run.end_to_end(fake, ops, 1e-4, 0.0)
    return shown["failed_frac"][0]


def test_flipped_verdict_is_counted():
    ops = gen.make_ops("metabolic_pairs", 3, 3)
    right = json.dumps({"verdict": "cobordant-by-these-invariants"})
    wrong = json.dumps({"verdict": "not-cobordant"})
    assert _failed_frac(FakeCli(right), ops) == 0
    assert _failed_frac(FakeCli(wrong), ops) == 1
    assert _failed_frac(FakeCli(right, code=3), ops) == 1


def _series_doc(degree):
    """cover output for the one-dimensional module s = 1/2: sigma = 1/2 +
    1/2 z1 maps to 1 + x1/2, whose inverse is the sum of (-x1/2)^k."""
    inverse = [[" ".join(["x1"] * k) or "1",
                gen.rat_str(Fraction(-1, 2) ** k)] for k in range(degree + 1)]
    return {"degree": degree, "sigma": [[[["1", "1/2"], ["z1", "1/2"]]]],
            "sigma_inverse_truncated": [[inverse]]}


def test_perturbed_series_coefficient_is_counted():
    op = {"id": 0, "kind": "series", "expect": {"degree": 5}, "argv": []}
    doc = _series_doc(5)
    assert check.sigma_times_inverse_is_one(doc)
    assert _failed_frac(FakeCli(json.dumps(doc)), [op]) == 0
    doc["sigma_inverse_truncated"][0][0][3][1] = "1/7"
    assert not check.sigma_times_inverse_is_one(doc)
    assert _failed_frac(FakeCli(json.dumps(doc)), [op]) == 1


def test_self_time_of_a_span_tree():
    #  0 root [0, 10]
    #  1   a  [1, 4]    2 a1 [2, 3]
    #  3   b  [5, 9]    4 b1 [6, 8]
    #  5 root2 [20, 30], children overlapping: 6 [21, 25], 7 [23, 27]
    starts = [0, 1, 2, 5, 6, 20, 21, 23]
    ends = [10, 4, 3, 9, 8, 30, 25, 27]
    parents = [-1, 0, 1, 0, 3, -1, 5, 5]
    assert tracing.self_times(starts, ends, parents) == [
        3, 2, 1, 2, 2, 4, 4, 4]


def test_tracer_rebinds_and_restores():
    from linkwitt import cli, rational, seifert
    orig_load, orig_rref = cli.load_input, rational.QMatrix.rref
    orig_hom = seifert.hom_space
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.load_input is not orig_load
        module, form = cli.load_input(
            os.path.join(ROOT, "tests", "data", "worked_example.json"))
        rational.QMatrix.identity(3).rref()
    finally:
        tracer.uninstall()
    assert cli.load_input is orig_load
    assert rational.QMatrix.rref is orig_rref
    assert seifert.hom_space is orig_hom
    metrics = tracer.layer_metrics()
    assert metrics["cli.load_input.calls"] == 1
    assert metrics["rational.rref.calls"] >= 1
    assert metrics["rational.rref.cells"] >= 9
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("self_s"))


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_contract(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    result = _bench("--workload", "cover_series", "--seed", "1",
                    "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
