"""Golden CLI corpus: committed inputs with recorded stdout and exit codes.

Each case runs `qgrass` on a committed map table or plane set in
`tests/golden/` and compares stdout byte for byte with `<case>.stdout` and
the exit code with `exit_codes.json`.  The map tables cover every classifier
branch: line tables with a Frobenius twist at (4,3,1) and, on the hyperplane
side, at (4,3,2), the adjacency-based classifier on a linear and on a
form-composed (2,4,2) table and on linear (2,5,2) and (3,5,2) tables, a
linear hyperplane table at (2,4,3), a corrupted (2,4,2) table and a (2,4,3)
table with one transposition, whose witness comes from the walk over
hyperplane systems.  Line tables of G_1(F_8^3) and G_1(F_16^3) with
Frobenius exponents 2 and 3, each also with two lines' images transposed,
pin the coordinate automorphism beyond GF(4); they were recorded while the
rebuild still read scales and automorphisms off 2-column matrix solves and
mapped one vector per line.  The (3,5,2) output was recorded while the incidence and
distance tables were still built by row reduction (15 s per call), and both
(4,3,2) and the transposed (2,4,3) outputs while hyperplane tables were
still reconstructed by conjugation through a dot-form map.  The
inputs are files rather than tables rebuilt by `induced_map`, so an error
shared by the code that builds tables and the code that classifies them
still shows.  Three (2,4,2) plane sets are analyzed in regular, irregular
and degree mode; the degree outputs were recorded before `analyze` moved to
one covering search per call.

The `verify-*` cases pin the report and exit code of `qgrass verify` for
every check id at a cheap point: (2,4,2) for each id whose envelope takes
it, except thm-2.2.1 and thm-2.2.2, which take 19 s and 30 s there and are
pinned through criteria 4 and 5 of the acceptance suite instead; thm-1.3.1
at (2,3,1); the line-set branch of thm-2.2.2 at (2,4,1); thm-3.2.3 at
(2,5,2) and thm-3.2.4 at (2,5,3); one infeasible scope (thm-1.3.1 at
(2,4,1), exit 3) and one unknown id (exit 2).  They were recorded before the
harness merged its duplicate sweeps, shape tests and construction checks.
prop-1.1.2 and prop-1.4.2 are also pinned at (3,4,2), the other point of the
CLI corpus; those two were recorded while the symplectic splitting still
went through `Subspace` meets and the adjacent families were still read off
the distance matrix.

To re-record a case after an intended output change, run the same command
from `tests/golden/` and overwrite its `.stdout` file.
"""

import json
from pathlib import Path

import pytest

from qgrass.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "classify-frobenius-4-3-1": ["classify", "--in", "frobenius-4-3-1.maptable"],
    "classify-linear-2-4-2": ["classify", "--in", "linear-2-4-2.maptable"],
    "classify-form-2-4-2": ["classify", "--in", "form-2-4-2.maptable"],
    "classify-linear-2-4-3": ["classify", "--in", "linear-2-4-3.maptable"],
    "classify-linear-2-5-2": ["classify", "--in", "linear-2-5-2.maptable"],
    "classify-linear-3-5-2": ["classify", "--in", "linear-3-5-2.maptable"],
    "classify-corrupted-2-4-2": ["classify", "--in", "corrupted-2-4-2.maptable"],
    "classify-frobenius-4-3-2": ["classify", "--in", "frobenius-4-3-2.maptable"],
    "classify-swapped-2-4-3": ["classify", "--in", "swapped-2-4-3.maptable"],
}
for q in (8, 16):
    for name in (f"frobenius-{q}-3-1", f"swapped-{q}-3-1"):
        CASES[f"classify-{name}"] = ["classify", "--in", f"{name}.maptable"]
for name in ("regular", "meeting", "superset"):
    for mode in ("regular", "irregular", "degree"):
        CASES[f"analyze-{name}-2-4-2-{mode}"] = [
            "analyze", "--in", f"{name}-2-4-2.planeset", "--mode", mode,
        ]
VERIFY_POINTS = [
    (cid, "2-4-2")
    for cid in (
        "remark-2.2.1", "prop-1.1.2", "prop-1.4.2", "prop-3.1.3", "prop-3.2.1", "thm-3.2.1",
        "thm-3.2.2", "thm-3.2.3", "thm-3.2.4", "lemma-3.2.1", "cor-3.2.2",
    )
] + [
    ("prop-1.1.2", "3-4-2"),
    ("prop-1.4.2", "3-4-2"),
    ("thm-1.3.1", "2-3-1"),
    ("thm-1.3.1", "2-4-1"),
    ("thm-2.2.2", "2-4-1"),
    ("thm-3.2.3", "2-5-2"),
    ("thm-3.2.4", "2-5-3"),
]
for cid, point in VERIFY_POINTS:
    q, n, k = point.split("-")
    CASES[f"verify-{cid}-{point}"] = ["verify", "--theorem", cid, "--q", q, "--n", n, "--k", k]
CASES["verify-unknown-id"] = ["verify", "--theorem", "no-such-id", "--q", "2", "--n", "4", "--k", "2"]

def test_every_recorded_case_is_run():
    recorded = {p.stem for p in GOLDEN.glob("*.stdout")}
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert recorded == set(codes) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_recording(case, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    code = main(CASES[case])
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{case}.stdout").read_text()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[case]
