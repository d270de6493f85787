import glob
import io
import json
import os
import random
import subprocess
import sys

import pytest

import qgrass
from qgrass import cli, irregularity, regularity
from qgrass.cli import (
    ParseError,
    main,
    read_map_table,
    read_plane_set,
    write_map_table,
    write_plane_set,
)
from qgrass.grassmann import PlaneSet, Space
from qgrass.harness import random_semilinear
from qgrass.irregularity import planes_meeting
from qgrass.maps import induced_map


def roundtrip_plane_set(ps):
    buf = io.StringIO()
    write_plane_set(buf, ps)
    buf.seek(0)
    return read_plane_set(buf)


def test_plane_set_roundtrip():
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    ps = planes_meeting(space, s, 2)
    again = roundtrip_plane_set(ps)
    assert again == ps
    # byte-exact second pass
    b1, b2 = io.StringIO(), io.StringIO()
    write_plane_set(b1, ps)
    write_plane_set(b2, again)
    assert b1.getvalue() == b2.getvalue()
    assert b1.getvalue().endswith("\n")
    assert "\r" not in b1.getvalue()
    assert not any(line != line.rstrip() for line in b1.getvalue().split("\n"))


def test_plane_set_rejects_duplicates_and_bad_rank():
    text = "planeset 2 3 2 2\n\n1 0 0\n0 1 0\n\n0 1 0\n1 0 0\n"
    with pytest.raises(ParseError):
        read_plane_set(io.StringIO(text))
    text = "planeset 2 3 2 1\n\n1 0 0\n1 0 0\n"
    with pytest.raises(ParseError):
        read_plane_set(io.StringIO(text))


def test_plane_set_noncanonical_rows_canonicalize():
    text = "planeset 2 3 2 1\n\n1 1 0\n1 0 0\n"
    ps = read_plane_set(io.StringIO(text))
    assert ps.members()[0].rows == ((1, 0, 0), (0, 1, 0))


def test_map_table_roundtrip():
    space = Space.get(2, 4)
    rng = random.Random(1)
    f = induced_map(space, random_semilinear(space, rng), 2)
    buf = io.StringIO()
    write_map_table(buf, f)
    buf.seek(0)
    again = read_map_table(buf)
    assert again == f


def test_map_table_rejects_non_bijection():
    text = "maptable 2 3 1 1\n" + "\n".join("0" for _ in range(7)) + "\n"
    with pytest.raises(ParseError):
        read_map_table(io.StringIO(text))


@pytest.mark.parametrize("bad", [-1, 7])
def test_map_table_entry_out_of_range_is_a_parse_error(tmp_path, capsys, bad):
    path = tmp_path / "range.maptable"
    path.write_text("maptable 2 3 1 1\n" + "".join(f"{i}\n" for i in [*range(6), bad]))
    assert main(["classify", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "parse-error table entry out of codomain range\n"


def test_cmd_enumerate_count(capsys):
    assert main(["enumerate", "--q", "2", "--n", "4", "--k", "2", "--count-only"]) == 0
    out = capsys.readouterr().out
    assert "count 35" in out
    payload = json.loads(out.splitlines()[-1].removeprefix("REPORT-JSON "))
    assert payload["schema"] == "qgrass-report/1"
    assert payload["verdicts"] == ["count 35"]


def test_cmd_enumerate_full_list(capsys):
    assert main(["enumerate", "--q", "3", "--n", "3", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "count 13" in out
    payload = json.loads(out.splitlines()[-1].removeprefix("REPORT-JSON "))
    assert len(payload["certificates"]["planes"]) == 13


def test_cmd_enumerate_too_large(capsys):
    assert main(["enumerate", "--q", "2", "--n", "7", "--k", "2"]) == 2
    assert main(["enumerate", "--q", "6", "--n", "3", "--k", "1"]) == 2
    assert main(["enumerate", "--q", "16", "--n", "6", "--k", "3"]) == 2
    assert "above" in capsys.readouterr().err


def test_cmd_enumerate_count_only_by_formula(capsys):
    assert main(["enumerate", "--q", "16", "--n", "6", "--k", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "count 73605001745"
    for argv in (["--count-only"], []):
        assert main(["enumerate", "--q", "3", "--n", "4", "--k", "2"] + argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == "count 130"


def test_cmd_analyze_regular(tmp_path, capsys):
    space = Space.get(2, 4)
    from qgrass.regularity import all_coordinate_systems

    planes = all_coordinate_systems(space)[0].coordinate_planes(2)
    path = tmp_path / "maximal.planeset"
    with open(path, "w") as fp:
        write_plane_set(fp, planes)
    assert main(["analyze", "--in", str(path), "--mode", "regular"]) == 0
    out = capsys.readouterr().out
    assert "regular" in out and "exact" in out and "degree 0" in out


def test_cmd_analyze_irregular_and_characteristics(tmp_path, capsys):
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    x = planes_meeting(space, s, 2)
    path = tmp_path / "meeting.planeset"
    with open(path, "w") as fp:
        write_plane_set(fp, x)
    assert main(["analyze", "--in", str(path), "--mode", "irregular"]) == 0
    out = capsys.readouterr().out
    assert "irregular" in out and "maximal" in out
    assert main(["analyze", "--in", str(path), "--mode", "characteristics"]) == 0
    out = capsys.readouterr().out
    assert "line-span-dim 2" in out
    payload = json.loads(out.splitlines()[-1].removeprefix("REPORT-JSON "))
    assert payload["certificates"]["line_span"] == [[1, 0, 0, 0], [0, 1, 0, 0]]


def counted_inside_searches(monkeypatch):
    """Patch the inside search's set-up, its join masks and its search: one
    list per set-up, of the planes its searches are forced through (None for
    the unforced search); and a list with one entry per join-mask build."""
    setups, builds = [], []
    join_masks, setup = irregularity._join_masks, irregularity._system_search

    def counted_masks(plane_set):
        builds.append(plane_set)
        return join_masks(plane_set)

    def counted(space, k, ok=None):
        search = setup(space, k, ok)
        forced = []
        setups.append(forced)

        def counting(plane=None, members=()):
            forced.append(plane)
            return search(plane, members)

        return counting

    monkeypatch.setattr(irregularity, "_join_masks", counted_masks)
    monkeypatch.setattr(irregularity, "_system_search", counted)
    return setups, builds


def test_analyze_irregular_searches_once_for_a_maximal_regular_subset(monkeypatch, capsys):
    # the not-irregular verdict and its certificate come from one unforced
    # search inside the set
    setups, builds = counted_inside_searches(monkeypatch)
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), "golden"))
    assert main(["analyze", "--in", "superset-2-4-2.planeset", "--mode", "irregular"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("not-irregular") and "maximal_regular_witness" in out
    assert setups == [[None]] and len(builds) == 1


def test_analyze_irregular_sets_up_the_inside_search_once(monkeypatch, capsys):
    # on an irregular set the verdict's unforced search and the maximality
    # verdict's forced searches share one set-up, and regularity is decided once
    setups, builds = counted_inside_searches(monkeypatch)
    decided = []
    covering = regularity.associated_systems

    def counted(plane_set, limit=None):
        decided.append(limit)
        return covering(plane_set, limit)

    monkeypatch.setattr(regularity, "associated_systems", counted)
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), "golden"))
    assert main(["analyze", "--in", "meeting-2-4-2.planeset", "--mode", "irregular"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["irregular", "not-maximal"]
    assert len(setups) == len(builds) == 1 and decided == [1]
    assert setups[0][0] is None and len(setups[0]) > 1 and None not in setups[0][1:]


def test_analyze_and_a_one_off_decision_build_no_plane_index(monkeypatch, capsys):
    # the plane -> systems index serves the degree sweeps only: analyze in
    # every mode and a one-off is_regular run the covering search and pay no
    # build, which takes about a second at F_2^5
    regularity._systems_by_plane.cache_clear()
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), "golden"))
    for path in sorted(glob.glob("*.planeset")):
        for mode in cli.MODE_K:
            assert main(["analyze", "--in", path, "--mode", mode]) in (0, 1)
    g2 = Space.get(2, 5).grassmannian(2)
    assert qgrass.is_regular(PlaneSet(g2, [0, 1])) is not None
    assert regularity._systems_by_plane.cache_info().currsize == 0


def test_cmd_analyze_degree_of_extremal(tmp_path, capsys):
    space = Space.get(2, 4)
    from qgrass.grassmann import join
    from qgrass.regularity import all_coordinate_systems, restrict

    system = all_coordinate_systems(space)[0]
    planes = system.coordinate_planes(2)
    g1 = space.grassmannian(1)
    axes = [g1[i] for i in system.line_indices]
    hyp = join(join(axes[0], axes[1]), axes[2])
    biax = join(axes[2], axes[3])
    rp = restrict(planes, hyp).with_index(space.grassmannian(2).index(biax))
    path = tmp_path / "extremal.planeset"
    with open(path, "w") as fp:
        write_plane_set(fp, rp)
    assert main(["analyze", "--in", str(path), "--mode", "degree"]) == 0
    out = capsys.readouterr().out
    assert "degree 1" in out
    payload = json.loads(out.splitlines()[-1].removeprefix("REPORT-JSON "))
    witness = payload["certificates"]["exact_superset"]
    assert len(witness) == len(rp) + 1
    # the witness certificate re-validates
    rows = [space.subspace(block) for block in witness]
    ws = PlaneSet.from_subspaces(space.grassmannian(2), rows)
    from qgrass.regularity import is_exact

    assert is_exact(ws) and rp.issubset(ws)


def test_cmd_classify_linear(tmp_path, capsys):
    space = Space.get(4, 3)
    rng = random.Random(9)
    h = random_semilinear(space, rng)
    f = induced_map(space, h, 1)
    path = tmp_path / "line.maptable"
    with open(path, "w") as fp:
        write_map_table(fp, f)
    assert main(["classify", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "linear" in out and "verified True" in out
    payload = json.loads(out.splitlines()[-1].removeprefix("REPORT-JSON "))
    assert payload["certificates"]["frobenius_exponent"] == h.sigma.exp


def test_cmd_classify_form_composed(tmp_path, capsys):
    space = Space.get(2, 4)
    from qgrass.forms import form_map, standard_symplectic

    fm = form_map(space, standard_symplectic(space.field, 4), 2)
    path = tmp_path / "form.maptable"
    with open(path, "w") as fp:
        write_map_table(fp, fm)
    assert main(["classify", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "form_composed" in out


def test_cmd_classify_corrupted(tmp_path, capsys):
    space = Space.get(2, 4)
    rng = random.Random(10)
    f = induced_map(space, random_semilinear(space, rng), 2)
    table = list(f.table)
    table[3], table[5] = table[5], table[3]
    from qgrass.grassmann import GrassmannMap

    bad = GrassmannMap(f.domain, f.codomain, table)
    path = tmp_path / "bad.maptable"
    with open(path, "w") as fp:
        write_map_table(fp, bad)
    assert main(["classify", "--in", str(path)]) == 1
    out = capsys.readouterr().out
    assert "not-classifiable" in out


def test_cmd_verify_exit_codes(capsys):
    assert main(["verify", "--theorem", "remark-2.2.1", "--q", "2", "--n", "4", "--k", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "--theorem", "thm-2.2.1", "--q", "3", "--n", "4", "--k", "2"]) == 3
    capsys.readouterr()
    assert main(["verify", "--theorem", "no-such-check", "--q", "2", "--n", "4", "--k", "2"]) == 2


def test_cmd_checks_lists_ids(capsys):
    assert main(["checks"]) == 0
    out = capsys.readouterr().out
    for cid in ("thm-2.2.1", "prop-1.4.2", "thm-1.3.1", "lemma-3.2.1"):
        assert cid in out


def test_reports_deterministic(tmp_path, capsys):
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    x = planes_meeting(space, s, 2)
    path = tmp_path / "m.planeset"
    with open(path, "w") as fp:
        write_plane_set(fp, x)
    main(["analyze", "--in", str(path), "--mode", "characteristics"])
    first = capsys.readouterr().out
    main(["analyze", "--in", str(path), "--mode", "characteristics"])
    second = capsys.readouterr().out
    assert first == second



LINE = "planeset 2 4 1 1\n\n1 0 0 0\n"
SWAPPED_LINES = "maptable 2 3 1 1\n1\n0\n" + "".join(f"{i}\n" for i in range(2, 7))


def identity_table(q, n, k, planes):
    return f"maptable {q} {n} {k} {k}\n" + "".join(f"{i}\n" for i in range(planes))


@pytest.mark.parametrize(
    "argv,files,code",
    [
        pytest.param(["enumerate", "--q", "2", "--n", "4", "--k", "7"], {}, 2, id="enumerate-k-above-n"),
        pytest.param(["enumerate", "--q", "2", "--n", "4", "--k", "-1"], {}, 2, id="enumerate-k-negative"),
        pytest.param(["analyze", "--in", "{f}"], {"f": "planeset 2 4 9 0\n"}, 2, id="planeset-header-k"),
        pytest.param(["classify", "--in", "{f}"], {"f": "maptable 2 4 9 9\n"}, 2, id="maptable-header-k"),
        pytest.param(["analyze", "--in", "{f}", "--mode", "characteristics"], {"f": LINE}, 2,
                     id="characteristics-of-lines"),
        pytest.param(["analyze", "--in", "{f}"], {"f": "planeset 2 4 0 0\n"}, 2, id="regular-at-k0"),
        pytest.param(["classify", "--in", "{f}"], {"f": "maptable 2 2 1 1\n0\n1\n2\n"}, 2,
                     id="classify-projective-line"),
        pytest.param(["analyze", "--in", "{f}"], {"f": None}, 2, id="analyze-directory"),
        pytest.param(["classify", "--in", "{f}"], {"f": None}, 2, id="classify-directory"),
        pytest.param(["analyze", "--in", "{missing}"], {}, 2, id="missing-file"),
        pytest.param(["analyze", "--in", "{f}", "--mode", "degree"], {"f": LINE}, 0, id="degree-of-a-line"),
        pytest.param(["analyze", "--in", "{f}", "--mode", "degree"],
                     {"f": "planeset 2 3 1 3\n\n1 0 0\n\n0 1 0\n\n1 1 0\n"}, 1, id="degree-not-regular"),
        pytest.param(["classify", "--in", "{f}"], {"f": SWAPPED_LINES}, 1, id="classify-corrupted"),
        pytest.param(["analyze", "--in", "{f}", "--mode", "irregular"],
                     {"f": "planeset 2 4 4 1\n\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"}, 2,
                     id="irregular-at-k-equal-n"),
        pytest.param(["analyze", "--in", "{f}"], {"f": "planeset 16 6 3 0\n"}, 2, id="planeset-huge"),
        # small sets in large spaces have too many associated systems to analyze
        pytest.param(["analyze", "--in", "{f}", "--mode", "regular"],
                     {"f": "planeset 2 6 1 1\n\n1 0 0 0 0 0\n"}, 2, id="regular-of-a-line-2-6"),
        pytest.param(["analyze", "--in", "{f}", "--mode", "degree"],
                     {"f": "planeset 2 6 2 1\n\n1 0 0 0 0 0\n0 1 0 0 0 0\n"}, 2, id="degree-of-a-plane-2-6"),
        pytest.param(["analyze", "--in", "{f}", "--mode", "regular"],
                     {"f": "planeset 3 5 2 1\n\n1 0 0 0 0\n0 1 0 0 0\n"}, 2, id="regular-of-a-plane-3-5"),
        pytest.param(["classify", "--in", "{f}"], {"f": "maptable 16 6 3 3\n"}, 2, id="maptable-huge"),
        pytest.param(["analyze", "--in", "{f}"], {"f": b"planeset 2 4 2 1\n\xff\n"}, 2, id="planeset-not-utf8"),
        pytest.param(["classify", "--in", "{f}"], {"f": b"maptable 2 4 2 2\n\xff\n"}, 2, id="maptable-not-utf8"),
        pytest.param(["classify", "--in", "{f}"], {"f": identity_table(3, 5, 2, 1210)}, 0,
                     id="classify-inside-envelope"),
        pytest.param(["classify", "--in", "{f}"], {"f": identity_table(4, 5, 2, 5797)}, 2,
                     id="classify-outside-envelope"),
        pytest.param(["verify", "--theorem", "prop-1.4.2", "--q", "16", "--n", "6", "--k", "3"], {}, 3,
                     id="verify-huge-outside-envelope"),
    ],
)
def test_exit_codes_on_bad_and_degenerate_inputs(tmp_path, capsys, argv, files, code):
    names = {"missing": str(tmp_path / "missing")}
    for name, text in files.items():
        path = tmp_path / name
        if text is None:
            path.mkdir()
        elif isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        names[name] = str(path)
    assert main([a.format(**names) for a in argv]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def run_child(args, timeout=60, cwd=None):
    """Run Python in a child process that imports qgrass from where this
    process found it, also when pytest put src on sys.path through its own
    configuration only; a hang fails the test at the timeout."""
    src = os.path.dirname(os.path.dirname(qgrass.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout, cwd=cwd)


@pytest.mark.parametrize(
    "module,unloaded",
    [
        # analyze and classify need no harness; only verify and checks load it
        ("qgrass.cli", "qgrass.harness"),
        # the result records are built without dataclasses, whose import costs every process
        ("qgrass", "dataclasses"),
        ("qgrass.cli", "dataclasses"),
        ("qgrass.harness", "dataclasses"),
    ],
)
def test_cli_import_leaves_harness_unloaded(module, unloaded):
    out = run_child(["-c", f"import sys, {module}; print({unloaded!r} in sys.modules)"])
    assert out.stdout == "False\n"


@pytest.mark.parametrize(
    "argv,files,err",
    [
        pytest.param(["enumerate", "--q", "0", "--n", "2", "--k", "1"], {}, "error", id="enumerate"),
        pytest.param(["enumerate", "--q", "0", "--n", "2", "--k", "1", "--count-only"], {}, "error",
                     id="enumerate-count-only"),
        pytest.param(["analyze", "--in", "f"], {"f": "planeset 0 2 1 0\n"}, "parse-error", id="planeset"),
        pytest.param(["classify", "--in", "f"], {"f": "maptable 0 2 1 1\n"}, "parse-error", id="maptable"),
        pytest.param(["verify", "--theorem", "thm-2.2.2", "--q", "0", "--n", "4", "--k", "2"], {}, "error",
                     id="verify"),
    ],
)
def test_field_order_zero_refused(tmp_path, argv, files, err):
    # factoring 0 into a prime power never ends, so the order is checked first
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = run_child(["-m", "qgrass.cli", *argv], timeout=30, cwd=tmp_path)
    assert (out.returncode, out.stderr) == (2, f"{err} unsupported field order 0\n")


def test_library_field_order_zero_refused():
    out = run_child(["-c", "import qgrass\ntry:\n    qgrass.field(0)\nexcept ValueError as e:\n    print(e)"],
                    timeout=30)
    assert out.stdout == "unsupported field order 0\n"


VERIFY_SWEEP = """
import contextlib, io
from qgrass.cli import main
from qgrass.harness import CHECKS
for cid in sorted(CHECKS):
    for q in (0, 1, 2):
        for n in range(-1, 4):
            for k in range(-1, 3):
                argv = ["verify", "--theorem", cid, "--q", str(q), "--n", str(n), "--k", str(k)]
                try:
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        code = main(argv)
                except Exception as exc:
                    code = repr(exc)
                if code not in (0, 2, 3):
                    print(cid, q, n, k, code)
"""


def test_verify_exit_codes_on_small_and_degenerate_parameters():
    # every check id at q in {0, 1, 2}, -1 <= n <= 3, -1 <= k <= 2: a verdict,
    # a usage error or an envelope refusal, never a traceback, a hang or a
    # FAIL reported outside what the check covers
    out = run_child(["-c", VERIFY_SWEEP], timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "", "")
