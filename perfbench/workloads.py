"""The four benchmark workloads: seeded input generation, fixed warm-up
inputs, the timed operation, its canonical result, and the certificate
re-checks made outside timing.

Inputs are plain JSON ("specs": plane indices, map tables, argv lists) so
they can be generated in one process, digested, and materialised in
another.  Every workload class exposes:

  generate(rng, out_dir) -> list of specs        (library used freely)
  warm_up()                                      (fixed inputs, seed-free)
  materialize(spec) -> input                     (cheap constructors only)
  execute(input) -> raw result                   (the timed operation)
  canonical(spec, input, raw) -> JSON value      (compared against digests)
  check(spec, input, raw) -> list of problems    (certificate re-checks)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import qgrass as Q
from qgrass.regularity import CoordinateSystem, maximal_regular_family
from qgrass.reconstruction import (
    AutomorphismMismatchError,
    NotDistancePreservingError,
    NotIndependencePreservingError,
    NotRegularTransformationError,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Cap on one operation, far above the slowest one seen at the default seed
# (about 2.5 s in-process, 1.5 s for a CLI call).
IN_PROCESS_CAP_S = 30.0
SUBPROCESS_CAP_S = 60.0


def _rand_invertible(field, n, rng):
    while True:
        rows = tuple(tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(n))
        if Q.Mat(field, rows).rank() == n:
            return rows


def _rand_system(space, rng):
    f, n = space.field, space.n
    rows = _rand_invertible(f, n, rng)
    return CoordinateSystem(space, [Q.Subspace.span(f, n, (r,)) for r in rows])


def _canonical_system(space):
    f, n = space.field, space.n
    return CoordinateSystem(space, [Q.Subspace.span(f, n, (r,)) for r in Q.Mat.identity(f, n).rows])


def _rand_linear_image(space, k, rng):
    """The transformation of G_k induced by a seeded invertible matrix."""
    f = space.field
    return Q.induced_map(space, Q.SemilinearMap(f, Q.Mat(f, _rand_invertible(f, space.n, rng))), k)


def _spread(length, base, rare):
    """A slot pattern: `base` kinds cycled, with each (position, kind) of
    `rare` put in place, so every prefix of the pattern keeps its mix."""
    out = [base[i % len(base)] for i in range(length)]
    for pos, kind in rare:
        out[pos] = kind
    return tuple(out)


def _after_each(pattern, space):
    """The pattern with, after each slot at `space`, the next of the other
    slots in turn, so those kinds come twice and every prefix keeps its mix."""
    others = iter([slot for slot in pattern if slot[0] != space])
    out = []
    for slot in pattern:
        out.append(slot)
        if slot[0] == space:
            out.append(next(others))
    return tuple(out)


def _plane_set(q, n, k, indices):
    return Q.PlaneSet(Q.Space.get(q, n).grassmannian(k), indices)


def _covers(system, ps):
    """Every member of ps is a coordinate k-plane of the system."""
    return ps.iset <= system.coordinate_planes(ps.gr.k).iset


def _inside(system, ps):
    """Every coordinate k-plane of the system lies in ps."""
    return system.coordinate_planes(ps.gr.k).iset <= ps.iset


# ---------------------------------------------------------------------------
# regular-degree


class RegularDegree:
    """is_regular -> associated_systems -> is_exact -> degree on regular sets.

    120 slots.  Large sets (at or above the exactness threshold; 3..4 lines
    at (2,4,1)) take 99 slots at a few ms each and hold the median; each
    slot takes the sizes of its range in turn.
    Eighteen three-plane sets at (2,4,2), below the threshold, hold p90.
    Three rare slots make the far tail: a large (3,4,2) set, a large
    (2,5,2) set and a two-plane set at (2,4,2).  Their searches vary most
    in cost (up to 0.5 s), so they stay rare enough for each run's total
    to settle.
    """

    name = "regular-degree"
    SPACES = ((2, 4, 2), (2, 5, 2), (3, 4, 2), (2, 4, 1))
    LARGE = {(2, 4, 2): (4, 6), (2, 5, 2): (7, 10), (3, 4, 2): (4, 6), (2, 4, 1): (3, 4)}
    PATTERN = _spread(
        120,
        tuple(((2, 4, 2), 3, 3) if i in (3, 10, 17) else ((2, 4, 2), 4, 6) if i % 2 else ((2, 4, 1), 3, 4)
              for i in range(20)),
        ((36, ((3, 4, 2), 4, 6)), (76, ((2, 5, 2), 7, 10)), (116, ((2, 4, 2), 2, 2))),
    )
    LENGTH = 2400
    TRACE_PREFIX = 240

    def generate(self, rng, out_dir):
        specs = []
        seen = {}
        for i in range(self.LENGTH):
            slot = self.PATTERN[i % len(self.PATTERN)]
            (q, n, k), lo, hi = slot
            # sizes in turn, not drawn: cost depends steeply on size, so a
            # drawn share of small sets would move every run's percentiles
            nth = seen[slot] = seen.get(slot, -1) + 1
            space = Q.Space.get(q, n)
            system = _rand_system(space, rng)
            planes = system.coordinate_planes(k).indices
            chosen = sorted(rng.sample(planes, lo + nth % (hi - lo + 1)))
            specs.append({"q": q, "n": n, "k": k, "planes": chosen, "system": list(system.line_indices)})
        return specs

    def warm_up(self):
        for q, n, k in self.SPACES:
            space = Q.Space.get(q, n)
            self.execute(_canonical_system(space).coordinate_planes(k))

    def materialize(self, spec):
        return _plane_set(spec["q"], spec["n"], spec["k"], spec["planes"])

    def execute(self, ps):
        first = Q.is_regular(ps)
        systems = Q.associated_systems(ps)
        exact = Q.is_exact(ps)
        d, witness = Q.degree(ps)
        return first, systems, exact, d, witness

    def canonical(self, spec, ps, raw):
        first, systems, exact, d, witness = raw
        return {
            "system": list(first.line_indices),
            "systems": [list(s.line_indices) for s in systems],
            "exact": exact,
            "degree": d,
            "witness": list(witness.indices),
        }

    def check(self, spec, ps, raw):
        first, systems, exact, d, witness = raw
        bad = []
        if first is None or first != systems[0]:
            bad.append("is_regular disagrees with the first associated system")
        if not all(_covers(s, ps) for s in systems):
            bad.append("an associated system does not cover the set")
        if tuple(spec["system"]) not in {s.line_indices for s in systems}:
            bad.append("the generating system is not associated")
        if exact != (len(systems) == 1) or (d == 0) != exact:
            bad.append("exactness disagrees with the system count or the degree")
        if not ps.issubset(witness) or len(witness) != len(ps) + d or not Q.is_exact(witness):
            bad.append("degree witness is not an exact superset of size |R| + d")
        return bad


# ---------------------------------------------------------------------------
# irregular-decide


class IrregularDecide:
    """is_irregular on random and constructed sets; irregular ones then get
    is_maximal_irregular, complete_to_maximal_irregular and characteristics,
    the others the contains_maximal_regular witness.

    Thirty slots: ten kinds at (2,5,2) and ten at (2,4,2), each (2,4,2)
    kind twice.  Random subsets are drawn from size bands on either side
    of the regular/irregular transition, where cost is steady: large ones
    contain a maximal regular set, small ones are irregular.  Meeting and
    cohyperplanar sets of each dimension, and seeded linear images of three
    deficient constructions and three dual constructions per space (the
    cost of the later operations depends on the construction, so one alone
    would make the whole run's cost hang on it), are irregular by
    construction.  The (2,5,2) constructions take nearly all the time and
    hold p90; the twenty cheap (2,4,2) slots hold the median and add only
    a few percent to a cycle, so doubling them doubles the samples the
    median is taken from.
    """

    name = "irregular-decide"
    SPACES = ((2, 4, 2), (2, 5, 2))
    PATTERN = _after_each(
        (
            ((2, 4, 2), "random", (5, 10)), ((2, 5, 2), "meeting", 3), ((2, 5, 2), "random", (77, 103)),
            ((2, 4, 2), "meeting", 1), ((2, 5, 2), "random", (15, 38)), ((2, 4, 2), "random", (17, 23)),
            ((2, 4, 2), "cohyperplanar", 2), ((2, 5, 2), "cohyperplanar", 3), ((2, 4, 2), "deficient", None),
            ((2, 5, 2), "deficient", None), ((2, 4, 2), "random", (5, 10)), ((2, 5, 2), "meeting", 2),
            ((2, 5, 2), "random", (77, 103)), ((2, 4, 2), "meeting", 2), ((2, 5, 2), "random", (15, 38)),
            ((2, 4, 2), "random", (17, 23)), ((2, 4, 2), "cohyperplanar", 3), ((2, 5, 2), "cohyperplanar", 4),
            ((2, 4, 2), "deficient_dual", None), ((2, 5, 2), "deficient_dual", None),
        ),
        (2, 5, 2),
    )
    LENGTH = 450
    TRACE_PREFIX = 30
    CONSTRUCTIONS = 3       # of each deficient kind per space, taken in turn

    def _random_subspace(self, space, dim, rng):
        while True:
            rows = [tuple(rng.randrange(space.field.q) for _ in range(space.n)) for _ in range(dim)]
            s = Q.Subspace.span(space.field, space.n, rows)
            if s.k == dim:
                return s

    def _transverse_pair(self, space, ds, dt, rng):
        while True:
            s = self._random_subspace(space, ds, rng)
            t = self._random_subspace(space, dt, rng)
            if Q.meet(s, t).k == 0:
                return s, t

    def generate(self, rng, out_dir):
        built = {}
        for q, n, k in self.SPACES:
            space = Q.Space.get(q, n)
            prims, duals = [], []
            for _ in range(self.CONSTRUCTIONS):
                s, t = self._transverse_pair(space, n - k - 1, k + 1, rng)
                prims.append(Q.deficient_irregular(space, s, t).result)
                s, t = self._transverse_pair(space, n - k + 1, k - 1, rng)
                duals.append(Q.deficient_irregular_dual(space, s, t).result)
            built[(q, n, k)] = {"deficient": prims, "deficient_dual": duals}
        specs = []
        for i in range(self.LENGTH):
            (q, n, k), kind, param = self.PATTERN[i % len(self.PATTERN)]
            space = Q.Space.get(q, n)
            gk = space.grassmannian(k)
            truth = None
            if kind == "random":
                planes = rng.sample(range(len(gk)), rng.randint(*param))
            elif kind == "meeting":
                planes = Q.planes_meeting(space, self._random_subspace(space, param, rng), k).indices
                truth = {"irregular": True, "maximal": param == n - k}
            elif kind == "cohyperplanar":
                planes = Q.planes_cohyperplanar(space, self._random_subspace(space, param, rng), k).indices
                truth = {"irregular": True, "maximal": True} if param == n - k else {"irregular": True}
            else:
                # regular transformations preserve maximal irregularity
                base = built[(q, n, k)][kind][(i // len(self.PATTERN)) % self.CONSTRUCTIONS]
                planes = _rand_linear_image(space, k, rng).apply_set(base).indices
                truth = {"irregular": True, "maximal": True}
            specs.append({"q": q, "n": n, "k": k, "kind": kind, "planes": sorted(planes), "truth": truth})
        return specs

    def warm_up(self):
        for q, n, k in self.SPACES:
            space = Q.Space.get(q, n)
            gk = space.grassmannian(k)
            s = space.grassmannian(n - k)[0]
            self.execute(Q.planes_meeting(space, s, k))
            self.execute(Q.PlaneSet(gk, range(len(gk))))

    def materialize(self, spec):
        return _plane_set(spec["q"], spec["n"], spec["k"], spec["planes"])

    def execute(self, ps):
        if Q.is_irregular(ps):
            return (
                True,
                Q.is_maximal_irregular(ps),
                Q.complete_to_maximal_irregular(ps),
                Q.characteristics(ps),
            )
        return False, Q.contains_maximal_regular(ps)

    def canonical(self, spec, ps, raw):
        if raw[0]:
            _, maximal, completion, ch = raw
            return {
                "irregular": True,
                "maximal": maximal,
                "completion": list(completion.indices),
                "characteristics": [
                    ch.line_span_dim,
                    ch.hyperplane_core_dim,
                    list(ch.saturated_lines.indices),
                    list(ch.saturated_hyperplanes.indices),
                ],
            }
        witness = raw[1]
        return {"irregular": False, "witness": None if witness is None else list(witness.line_indices)}

    def check(self, spec, ps, raw):
        bad = []
        truth = spec["truth"] or {}
        if "irregular" in truth and truth["irregular"] != raw[0]:
            bad.append(f"irregularity verdict {raw[0]} contradicts the construction")
        if raw[0]:
            _, maximal, completion, ch = raw
            if "maximal" in truth and truth["maximal"] != maximal:
                bad.append(f"maximality verdict {maximal} contradicts the construction")
            if maximal and completion != ps:
                bad.append("a maximal irregular set was completed to a larger set")
            if not ps.issubset(completion):
                bad.append("completion does not contain the input")
            elif Q.is_regular(completion) is not None or Q.contains_maximal_regular(completion) is not None:
                bad.append("completion is not irregular")
            gr = ps.gr
            space = gr.space
            through = space.incidence(gr.k, 1)
            if any(not set(through[t]) <= ps.iset for t in ch.saturated_lines.indices):
                bad.append("a reported saturated line is not saturated")
        else:
            witness = raw[1]
            if witness is not None:
                if not _inside(witness, ps):
                    bad.append("maximal regular witness is not inside the set")
            else:
                system = Q.is_regular(ps)
                if system is None or not _covers(system, ps):
                    bad.append("not irregular, yet neither regular nor containing a maximal regular set")
        return bad


# ---------------------------------------------------------------------------
# transform-classify


class _Rejected:
    __slots__ = ("error", "witness")

    def __init__(self, error, witness):
        self.error = error
        self.witness = witness


class TransformClassify:
    """Classification of tables induced by seeded semilinear maps (composed
    with a form map at n = 2k), a share of them corrupted by one
    transposition that must be rejected, plus are_similar on image pairs and
    equal-size random pairs of two or three planes at (2,4,2).

    Forty slots, ordered by typical cost: six corrupted tables (one per
    space, two at (2,4,2)) and two random pairs are cheap; eighteen
    classifications at (4,3,1), (2,4,2), (2,4,3) hold the median; seven
    (2,5,2) classifications follow; six (3,4,1) classifications (each scans
    the 63,180 coordinate systems) hold p90; one image pair sits above.
    The similarity search stops at a witness whose position is uniform in
    the group, so it is kept to one slot in forty.
    """

    name = "transform-classify"
    SPACES = ((2, 4, 2), (2, 5, 2), (2, 4, 3), (4, 3, 1), (3, 4, 1))
    PATTERN = _spread(
        40,
        (((2, 4, 3), "classify"), ((2, 5, 2), "classify"), ((4, 3, 1), "classify"),
         ((2, 5, 2), "classify"), ((2, 4, 2), "classify"), ((2, 4, 3), "classify")),
        ((1, ((3, 4, 1), "classify")), (3, ((2, 4, 2), "corrupt")), (6, ((2, 4, 2), "similar_random")),
         (8, ((3, 4, 1), "classify")), (9, ((2, 5, 2), "corrupt")), (13, ((2, 4, 3), "corrupt")),
         (14, ((3, 4, 1), "classify")), (16, ((2, 4, 2), "similar_image")), (19, ((4, 3, 1), "corrupt")),
         (21, ((3, 4, 1), "classify")), (23, ((3, 4, 1), "corrupt")), (26, ((2, 4, 2), "similar_random")),
         (28, ((3, 4, 1), "classify")), (33, ((2, 4, 2), "corrupt")), (34, ((3, 4, 1), "classify"))),
    )
    LENGTH = 800
    TRACE_PREFIX = 80

    @staticmethod
    def classify(space, gmap):
        """The classifier the command line picks for this table."""
        n, k = space.n, gmap.domain.k
        if 1 < k < n - 1:
            return Q.chow_classify(space, gmap)
        return Q.regular_classify(space, gmap)

    def _table(self, space, k, matrix, frob, gram):
        f = space.field
        h = Q.SemilinearMap(f, Q.Mat(f, matrix), f.frobenius(frob))
        table = Q.induced_map(space, h, k)
        if gram is not None:
            table = Q.form_map(space, Q.BilinearForm(f, Q.Mat(f, gram)), k).compose(table)
        return table

    def generate(self, rng, out_dir):
        specs = []
        for i in range(self.LENGTH):
            (q, n, k), kind = self.PATTERN[i % len(self.PATTERN)]
            space = Q.Space.get(q, n)
            f = space.field
            matrix = _rand_invertible(f, n, rng)
            frob = rng.randrange(f.m)
            gram = _rand_invertible(f, n, rng) if n == 2 * k and rng.random() < 0.5 else None
            if kind in ("classify", "corrupt"):
                table = list(self._table(space, k, matrix, frob, gram).table)
                corrupt = None
                if kind == "corrupt":
                    corrupt = sorted(rng.sample(range(len(table)), 2))
                    a, b = corrupt
                    table[a], table[b] = table[b], table[a]
                specs.append({"q": q, "n": n, "k": k, "kind": "classify", "table": table, "corrupt": corrupt,
                              "source": {"matrix": matrix, "frob": frob, "gram": gram}})
            else:
                gk = space.grassmannian(k)
                size = rng.randint(2, 3)
                left = rng.sample(range(len(gk)), size)
                if kind == "similar_image":
                    right = self._table(space, k, matrix, frob, gram).apply_set(
                        Q.PlaneSet(gk, left)).indices
                else:
                    right = rng.sample(range(len(gk)), size)
                specs.append({"q": q, "n": n, "k": k, "kind": kind,
                              "left": sorted(left), "right": sorted(right)})
        return specs

    def warm_up(self):
        for q, n, k in self.SPACES:
            space = Q.Space.get(q, n)
            ident = Q.GrassmannMap.identity(space.grassmannian(k))
            self.execute(("classify", space, ident))
        gk = Q.Space.get(2, 4).grassmannian(2)
        pair = Q.PlaneSet(gk, (0, 1, 2)), Q.PlaneSet(gk, (0, 1, 3))
        self.execute(("similar",) + pair)

    def materialize(self, spec):
        space = Q.Space.get(spec["q"], spec["n"])
        gk = space.grassmannian(spec["k"])
        if spec["kind"] == "classify":
            return "classify", space, Q.GrassmannMap(gk, gk, spec["table"])
        return "similar", Q.PlaneSet(gk, spec["left"]), Q.PlaneSet(gk, spec["right"])

    def execute(self, inp):
        if inp[0] == "similar":
            return Q.are_similar(inp[1], inp[2])
        _, space, gmap = inp
        try:
            return self.classify(space, gmap)
        except (NotIndependencePreservingError, NotDistancePreservingError,
                NotRegularTransformationError) as exc:
            return _Rejected(type(exc).__name__, exc.witness)
        except AutomorphismMismatchError as exc:
            return _Rejected(type(exc).__name__, None)

    def canonical(self, spec, inp, raw):
        if inp[0] == "similar":
            return {"similar": raw.kind, "reason": raw.reason,
                    "witness": None if raw.witness is None else list(raw.witness.table)}
        if isinstance(raw, _Rejected):
            w = raw.witness
            if isinstance(w, Q.Subspace):
                w = [list(r) for r in w.rows]
            elif isinstance(w, frozenset):
                w = sorted(w)
            return {"rejected": raw.error, "witness": w}
        return {"kind": raw.kind, "matrix": [list(r) for r in raw.map.normal_form().matrix.rows],
                "frobenius": raw.map.sigma.exp}

    def check(self, spec, inp, raw):
        if inp[0] == "similar":
            left, right = inp[1], inp[2]
            if raw.kind == "yes":
                if raw.witness.apply_set(left) != right:
                    return ["similarity witness does not map the left set onto the right"]
            elif spec["kind"] == "similar_image":
                return [f"image pair reported as {raw.kind!r}"]
            return []
        _, space, gmap = inp
        if spec["corrupt"] is not None:
            if not isinstance(raw, _Rejected):
                return ["corrupted table was classified"]
            return self._check_rejection(space, gmap, raw)
        if isinstance(raw, _Rejected) or raw.kind == "not_classifiable":
            return ["induced table was not classified"]
        k = gmap.domain.k
        rebuilt = Q.induced_map(space, raw.map, k)
        if raw.kind == "form_composed":
            rebuilt = Q.form_map(space, raw.form, k).inverse().compose(rebuilt)
        if rebuilt.table != gmap.table or not raw.verified:
            return ["classified map does not induce the table"]
        return []

    def _check_rejection(self, space, gmap, raw):
        w, t = raw.witness, gmap.table
        if raw.error == "NotDistancePreservingError":
            d = space.distance_matrix(gmap.domain.k)
            i, j = w
            ok = d[i][j] != d[t[i]][t[j]]
        elif raw.error == "NotRegularTransformationError":
            fam = set(maximal_regular_family(space, gmap.domain.k))
            inv = gmap.inverse().table
            ok = w in fam and (frozenset(t[i] for i in w) not in fam or frozenset(inv[i] for i in w) not in fam)
        else:
            ok = True   # independence/automorphism failures carry no pair to re-check
        return [] if ok else [f"rejection witness {w!r} does not show a violation"]


# ---------------------------------------------------------------------------
# cli-corpus


# verify ids that finish well under a second at these parameters, split by
# cost so that the slower half sits at p90 on every run
VERIFY_QUICK = (
    ("remark-2.2.1", 2, 4, 2), ("prop-1.4.2", 2, 4, 2), ("thm-3.2.3", 2, 4, 2),
    ("thm-3.2.4", 2, 4, 2), ("lemma-3.2.1", 2, 4, 2),
)
VERIFY_SLOW = (
    ("prop-1.1.2", 2, 4, 2), ("prop-1.4.2", 3, 4, 2), ("thm-1.3.1", 2, 3, 1),
    ("thm-3.2.1", 2, 4, 2), ("cor-3.2.2", 2, 4, 2), ("prop-1.1.2", 3, 4, 2),
)


def cli_argv(args, trace_out=None):
    """Command line running the qgrass CLI through the benchmark's runner."""
    argv = [sys.executable, os.path.join(BENCH_DIR, "clirun.py")]
    if trace_out is not None:
        argv += ["--trace-out", trace_out]
    return argv + ["--"] + list(args)


class CliCorpus:
    """One qgrass invocation per operation, as a subprocess, over a seeded
    corpus of plane-set and map-table files plus quick verify ids."""

    name = "cli-corpus"
    PATTERN = (
        "analyze-regular", "classify", "verify-quick", "analyze-irregular", "verify-slow",
        "analyze-degree", "classify", "analyze-characteristics", "verify-slow", "classify",
    )
    LENGTH = 200
    TRACE_PREFIX = 20
    trace_dir = None        # set by the worker for traced runs

    def generate(self, rng, out_dir):
        from qgrass import cli as Q_cli

        corpus = os.path.join(out_dir, "corpus")
        os.makedirs(corpus, exist_ok=True)
        irr, tc = IrregularDecide(), TransformClassify()
        seen = {}
        specs = []
        for i in range(self.LENGTH):
            kind = self.PATTERN[i % len(self.PATTERN)]
            nth = seen[kind] = seen.get(kind, -1) + 1      # cycles spaces and ids per kind
            path = os.path.relpath(os.path.join(corpus, f"op{i:04d}"))
            if kind in ("analyze-regular", "analyze-degree"):
                (q, n, k) = RegularDegree.SPACES[nth % 4]
                lo, hi = RegularDegree.LARGE[(q, n, k)]
                space = Q.Space.get(q, n)
                planes = _rand_system(space, rng).coordinate_planes(k).indices
                ps = _plane_set(q, n, k, rng.sample(planes, rng.randint(lo, hi)))
                path += ".planeset"
                with open(path, "w") as fp:
                    Q_cli.write_plane_set(fp, ps)
                args = ["analyze", "--in", path, "--mode", kind.split("-")[1]]
                expect = {"rc": 0, "q": q, "n": n, "k": k, "planes": list(ps.indices)}
            elif kind in ("analyze-irregular", "analyze-characteristics"):
                q, n, k = 2, 4, 2
                space = Q.Space.get(q, n)
                if nth % 2:
                    s = irr._random_subspace(space, rng.randint(1, n - k), rng)
                    ps = Q.planes_meeting(space, s, k)
                else:
                    gk = space.grassmannian(k)
                    ps = Q.PlaneSet(gk, rng.sample(range(len(gk)), rng.randint(6, 17)))
                path += ".planeset"
                with open(path, "w") as fp:
                    Q_cli.write_plane_set(fp, ps)
                args = ["analyze", "--in", path, "--mode", kind.split("-")[1]]
                expect = {"rc": 0, "q": q, "n": n, "k": k, "planes": list(ps.indices)}
            elif kind == "classify":
                q, n, k = ((2, 4, 2), (2, 4, 3), (4, 3, 1), (2, 5, 2), (2, 4, 1))[nth % 5]
                space = Q.Space.get(q, n)
                f = space.field
                gram = _rand_invertible(f, n, rng) if n == 2 * k and rng.random() < 0.5 else None
                gmap = tc._table(space, k, _rand_invertible(f, n, rng), rng.randrange(f.m), gram)
                table = list(gmap.table)
                corrupt = nth % 5 == 2
                if corrupt:
                    a, b = rng.sample(range(len(table)), 2)
                    table[a], table[b] = table[b], table[a]
                path += ".maptable"
                gk = space.grassmannian(k)
                with open(path, "w") as fp:
                    Q_cli.write_map_table(fp, Q.GrassmannMap(gk, gk, table))
                args = ["classify", "--in", path]
                expect = {"rc": 1 if corrupt else 0, "q": q, "n": n, "k": k, "table": table}
            else:
                ids = VERIFY_QUICK if kind == "verify-quick" else VERIFY_SLOW
                cid, q, n, k = ids[nth % len(ids)]
                args = ["verify", "--theorem", cid, "--q", str(q), "--n", str(n), "--k", str(k),
                        "--seed", str(rng.randrange(1000))]
                expect = {"rc": 0}
            specs.append({"kind": kind, "args": args, "expect": expect})
        return specs

    def warm_up(self):
        pass

    def materialize(self, spec):
        return spec["args"]

    def execute(self, args):
        trace_out = None
        if self.trace_dir is not None:
            self._calls = getattr(self, "_calls", 0) + 1
            trace_out = os.path.join(self.trace_dir, f"call{self._calls:05d}.json")
        r = subprocess.run(cli_argv(args, trace_out), capture_output=True, text=True,
                           timeout=SUBPROCESS_CAP_S)
        return r.returncode, r.stdout

    def canonical(self, spec, args, raw):
        import hashlib

        rc, out = raw
        return {"rc": rc, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}

    def check(self, spec, args, raw):
        rc, out = raw
        expect = spec["expect"]
        if rc != expect["rc"]:
            return [f"exit code {rc}, expected {expect['rc']}"]
        lines = [ln for ln in out.splitlines() if ln.startswith("REPORT-JSON ")]
        if len(lines) != 1:
            return ["stdout lacks exactly one REPORT-JSON line"]
        report = json.loads(lines[0][len("REPORT-JSON "):])
        kind = spec["kind"]
        if kind.startswith("verify"):
            return [] if report["verdicts"][0] == "PASS" else ["verify did not PASS"]
        space = Q.Space.get(expect["q"], expect["n"])
        f, n, k = space.field, space.n, expect["k"]
        certs = report["certificates"]
        if kind.startswith("analyze"):
            ps = _plane_set(expect["q"], n, k, expect["planes"])
            if kind == "analyze-regular":
                system = CoordinateSystem(space, [Q.Subspace.span(f, n, (r,)) for r in certs["coordinate_system"]])
                if not _covers(system, ps):
                    return ["reported coordinate system does not cover the set"]
            if kind in ("analyze-regular", "analyze-degree"):
                gk = space.grassmannian(k)
                sup = Q.PlaneSet(gk, [gk.index(Q.Subspace.span(f, n, rows)) for rows in certs["exact_superset"]])
                d = int(next(v for v in report["verdicts"] if v.startswith("degree")).split()[1])
                if not ps.issubset(sup) or len(sup) != len(ps) + d or not Q.is_exact(sup):
                    return ["reported exact superset fails its certificate"]
            if kind == "analyze-irregular" and "maximal_regular_witness" in certs:
                system = CoordinateSystem(space, [Q.Subspace.span(f, n, (r,)) for r in certs["maximal_regular_witness"]])
                if not _inside(system, ps):
                    return ["maximal regular witness is not inside the set"]
            return []
        if expect["rc"] == 1:
            return []
        sigma = f.frobenius(certs["frobenius_exponent"])
        h = Q.SemilinearMap(f, Q.Mat(f, certs["matrix"]), sigma)
        rebuilt = Q.induced_map(space, h, k)
        if certs["form_composed"]:
            form = Q.BilinearForm(f, Q.Mat(f, certs["form_gram"]))
            rebuilt = Q.form_map(space, form, k).inverse().compose(rebuilt)
        if list(rebuilt.table) != expect["table"]:
            return ["classified map does not induce the table"]
        return []

WORKLOADS = {w.name: w for w in (RegularDegree, IrregularDecide, TransformClassify, CliCorpus)}
