"""The byte-identity harness, end to end: two runs of one tree give the same digests."""

import importlib.util
from pathlib import Path

import qtomo

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

# A seeded simulate, the multi-batch bootstrap that reads its file at n = 5, a
# study, and a defective file: the determinism contract of the ``measurement``
# docstring, through the command line.
SUBSET = [
    "simulate --n 5 --m 100 --state ghz --seed 5 --out ghz5.json",
    "estimate ghz5.json --penalty bootstrap --reps 8 --seed 3 --out boot5/",
    "rank-study --n 3 --m 60 --d 1,2,4 --reps 3 --seed 1 --out rank3.csv",
    "estimate data-m-2.0.json --out x/",
]


def test_two_runs_of_one_tree_write_the_same_bytes():
    assert set(SUBSET) <= set(identity.INVOCATIONS)
    src = Path(qtomo.__file__).resolve().parents[1]
    first = identity.run(src, SUBSET)
    assert first == identity.run(src, SUBSET)
    assert [line.split(" | ")[1].split()[0] for line in first] == [
        "exit=0", "exit=0", "exit=0", "exit=4"]
    written = [[field.split("=")[0] for field in line.split(" | ")[1].split()[3:]]
               for line in first]
    assert written == [["ghz5.json"],
                       ["boot5/estimate_state.json", "boot5/fit.json", "boot5/physical_state.json"],
                       ["rank3.csv"], []]
