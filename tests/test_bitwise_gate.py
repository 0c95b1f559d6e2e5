"""scripts/bitwise_gate.py prints the digests committed in tests/bitwise_digests.json.

The script runs in a subprocess: it pins BLAS to one thread before NumPy
loads, which this process cannot do any more. A change that means to move
bits regenerates the file with `python3 scripts/bitwise_gate.py --write`.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bitwise_gate.py"
DIGESTS = ROOT / "tests" / "bitwise_digests.json"


def leaves(tree, prefix=""):
    """{"group/key": value} for each leaf of nested dicts; a list is one leaf."""
    out = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(leaves(value, path + "/"))
        else:
            out[path] = value
    return out


def repr_floats(value):
    """The floats of a repr-loss leaf (one repr or a list of them); None for a digest."""
    try:
        return [float(v) for v in (value if isinstance(value, list) else [value])]
    except (TypeError, ValueError):
        return None


def gate_mismatch(expected, actual):
    """Why the gate output `actual` differs from the committed `expected`; None when equal."""
    if expected.get("env") != actual.get("env"):
        return (f"the digests were made under env {expected.get('env')!r}, this run is "
                f"{actual.get('env')!r}; compare under the same env")
    want, got = leaves(expected), leaves(actual)
    for key in sorted(want.keys() | got.keys()):
        if key not in got:
            return f"key {key!r} is committed but the gate no longer prints it"
        if key not in want:
            return f"the gate prints key {key!r}, which is not committed; regenerate with --write"
    differing = [key for key in sorted(want) if want[key] != got[key]]
    if not differing:
        return None
    moves = []
    for key in differing:
        old, new = repr_floats(want[key]), repr_floats(got[key])
        if old is not None and new is not None and len(old) == len(new):
            moves += [(abs(b - a) / max(abs(a), abs(b), math.ulp(0.0)), key)
                      for a, b in zip(old, new)]
    message = f"{len(differing)} of {len(want)} keys differ, first {differing[0]!r}"
    if moves:
        move, key = max(moves)
        message += f"; largest relative move of a repr loss {move:.3g} at {key!r}"
    return message


def test_gate_prints_the_committed_digests():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         check=False, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    mismatch = gate_mismatch(json.loads(DIGESTS.read_text(encoding="utf-8")),
                             json.loads(run.stdout))
    assert mismatch is None, mismatch


COMMITTED = {"env": "python 3.11.7, numpy 2.4.6, blas b 1, x86_64",
             "desk/float64": {"final_loss": "46.5", "loss_trace": "ab12"},
             "full/float32": {"arena": "cd34", "step_losses": ["15.0", "14.0"]}}


def changed(edits):
    """COMMITTED with the leaf under each (group, key) of edits replaced."""
    out = json.loads(json.dumps(COMMITTED))
    for (group, key), value in edits.items():
        out[group][key] = value
    return out


def test_equal_output_passes():
    assert gate_mismatch(COMMITTED, changed({})) is None


def test_moved_digests_name_the_first_key_and_the_largest_loss_move():
    message = gate_mismatch(COMMITTED, changed({("full/float32", "step_losses"): ["15.0", "14.0014"],
                                                ("desk/float64", "loss_trace"): "ef56",
                                                ("desk/float64", "final_loss"): "46.50001"}))
    assert message.startswith("3 of 5 keys differ, first 'desk/float64/final_loss'")
    assert message.endswith("largest relative move of a repr loss 0.0001 at 'full/float32/step_losses'")


def test_a_moved_digest_without_loss_reprs_names_its_key():
    message = gate_mismatch(COMMITTED, changed({("full/float32", "arena"): "ef56"}))
    assert message == "1 of 5 keys differ, first 'full/float32/arena'"


def test_another_env_fails_and_names_both():
    other = "python 3.12.1, numpy 2.4.6, blas b 1, x86_64"
    actual = changed({})
    actual["env"] = other
    message = gate_mismatch(COMMITTED, actual)
    assert COMMITTED["env"] in message and other in message


def test_added_and_dropped_keys_fail():
    grown = changed({})
    grown["init"] = {"desk/float64": "0a"}
    assert "not committed" in gate_mismatch(COMMITTED, grown)
    shrunk = changed({})
    del shrunk["full/float32"]["arena"]
    assert "no longer prints it" in gate_mismatch(COMMITTED, shrunk)
