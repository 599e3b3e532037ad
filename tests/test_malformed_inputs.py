"""A number-bearing value of an input file replaced by a value of another kind: the command that reads the
file exits 1 and names it, whatever the value and wherever it sits."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cib.cli import run

# the kinds a number-bearing value is replaced with; a nested list wraps the value, and a bare number
# replaces only a list, as in place of a number it is no change of kind
REPLACEMENTS = {
    "string": st.sampled_from(["0.5", "1", ""]),
    "bool": st.booleans(),
    "null": st.none(),
    "nested": None,
    "bare number": st.sampled_from([1, 0.5, 2.0]),
    "int beyond float range": st.sampled_from([10**400, -(10**400)]),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A trained run directory, a dataset and an oracle instance with samples, each valid."""
    root = tmp_path_factory.mktemp("inputs")
    config = root / "config.json"
    config.write_text(json.dumps({
        "dataset": {"kind": "gmm", "classes": 2, "dim": 2, "per_class": 6, "sep": 4.0, "seed": 3},
        "encoder": {"layer_dims": [2, 3, 2]},
        "loss": {"beta_prime": 1.0},
        "optim": {"steps": 3, "batch": 4, "log_every": 3},
        "seed": 3,
    }))
    instance = root / "instance.json"
    instance.write_text(json.dumps({"p": [[0.25, 0.125], [0.125, 0.5]], "arities": [2, 2],
                                    "q": [[0.5, 0.25, 0.25, 0.0], [0.0, 0.5, 0.5, 0.0]],
                                    "samples": [[0, 0], [1, 1], [1, 0]]}))
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        assert run(["train", "--config", str(config), "--out", str(root / "run")]) == 0
        argv = f"gen-data --classes 2 --dim 2 --per-class 3 --sep 4 --seed 5 --out {root / 'd.json'}"
        assert run(argv.split()) == 0
    return {"checkpoint": root / "run" / "checkpoint.json", "dataset": root / "d.json", "instance": instance,
            "point": root / "run" / "point.json"}


def _number_paths(doc) -> list[tuple]:
    """The key paths of every number and every list that holds one; a dataset's provenance is a free record."""
    found = []

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                if key != "provenance":
                    walk(item, (*path, key))
        elif isinstance(value, list):
            before = len(found)
            for i, item in enumerate(value):
                walk(item, (*path, i))
            if len(found) > before:
                found.append(path)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            found.append(path)

    walk(doc, ())
    return found


def _argv(which, paths, broken):
    if which in ("checkpoint", "dataset"):
        files = {**paths, which: broken}
        return ["estimate", "--checkpoint", str(files["checkpoint"]), "--data", str(files["dataset"])]
    if which == "instance":
        return ["oracle", "--instance", str(broken)]
    return ["report", "--runs", str(broken.parent), "--out", str(broken.parent / "tradeoff.csv")]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(which=st.sampled_from(["checkpoint", "dataset", "instance", "point"]), data=st.data())
def test_a_malformed_number_exits_one_naming_the_file(inputs, which, data):
    doc = json.loads(inputs[which].read_text())
    *parents, last = data.draw(st.sampled_from(_number_paths(doc)), label="path")
    holder = doc
    for key in parents:
        holder = holder[key]
    kinds = [kind for kind in REPLACEMENTS if isinstance(holder[last], list) or kind != "bare number"]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    holder[last] = [holder[last]] if kind == "nested" else data.draw(REPLACEMENTS[kind], label="value")
    broken = inputs[which].parent / "broken" / inputs[which].name
    broken.parent.mkdir(exist_ok=True)
    if which == "point":  # report reads a run directory whole
        for name in ("checkpoint.json", "metrics.csv"):
            (broken.parent / name).write_bytes((inputs[which].parent / name).read_bytes())
    broken.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(_argv(which, inputs, broken))
    assert code == 1 and str(broken) in err.getvalue(), (code, err.getvalue())
