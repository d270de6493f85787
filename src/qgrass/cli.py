"""Command-line front end: enumeration, plane-set analysis, transformation
classification, and the named verification checks, over flat text files.

File formats (LF line endings, no trailing whitespace):

  plane-set file    header "planeset q n k count", then `count` blocks of
                    k lines of n space-separated element codes, blocks
                    separated by one blank line
  map-table file    header "maptable q n k k2", then one line per domain
                    plane in canonical order holding the codomain index

Reports are printed as text plus one line starting with "REPORT-JSON "
holding the machine-readable section; elapsed time goes to stderr so the
stdout report is deterministic.

Exit codes: 0 verdict produced / PASS, 1 FAIL or counterexample, 2 usage or
parse error, 3 infeasible scope.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .gf import UnsupportedOrderError
from .grassmann import GrassmannMap, PlaneSet, Space, Subspace, TooLargeError, _subspace_cert, gaussian_binomial
from .irregularity import characteristics, is_irregular, is_maximal_irregular
from .reconstruction import (
    AutomorphismMismatchError,
    NotDistancePreservingError,
    NotIndependencePreservingError,
    NotRegularTransformationError,
    chow_classify,
    regular_classify,
)
from .regularity import NotRegularError, degree, is_exact, is_maximal_regular, is_regular

SCHEMA = "qgrass-report/1"


class ParseError(ValueError):
    pass


class UsageError(ValueError):
    """Arguments or file contents outside what the command is defined for."""


# the most planes `classify` accepts: up to it every call takes about a
# second and under 100 MB; the distance matrix grows with the square of the
# plane count, and G_2(F_4^5) would need one of 33.6 M entries
MAX_CLASSIFY_PLANES = 1_500

# the least k and the least n - k each analyze mode is defined for
MODE_K = {"regular": (1, 1), "irregular": (1, 1), "characteristics": (2, 2), "degree": (1, 1)}


def _check_dims(what, n, *ks):
    for k in ks:
        if not 0 <= k <= n:
            raise ParseError(f"bad {what} header: k={k} outside 0..{n}")


# ---------------------------------------------------------------------------
# file formats


def write_plane_set(fp, plane_set):
    gr = plane_set.gr
    fp.write(f"planeset {gr.field.q} {gr.n} {gr.k} {len(plane_set)}\n")
    for idx in plane_set.indices:
        fp.write("\n")
        for row in gr[idx].rows:
            fp.write(" ".join(str(x) for x in row) + "\n")


def read_plane_set(fp):
    lines = [ln.rstrip("\n") for ln in fp]
    if not lines:
        raise ParseError("empty plane-set file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "planeset":
        raise ParseError("bad plane-set header; expected 'planeset q n k count'")
    try:
        q, n, k, count = (int(x) for x in head[1:])
    except ValueError as exc:
        raise ParseError(f"bad plane-set header: {exc}") from None
    try:
        space = Space.get(q, n)
    except (UnsupportedOrderError, TooLargeError) as exc:
        raise ParseError(str(exc)) from None
    _check_dims("plane-set", n, k)
    gr = space.grassmannian(k)
    blocks = []
    block = []
    for ln in lines[1:]:
        if ln.strip() == "":
            if block:
                blocks.append(block)
                block = []
        else:
            block.append(ln)
    if block:
        blocks.append(block)
    if len(blocks) != count:
        raise ParseError(f"expected {count} blocks, found {len(blocks)}")
    indices = []
    for bi, rows_text in enumerate(blocks):
        if len(rows_text) != k:
            raise ParseError(f"block {bi}: expected {k} rows, found {len(rows_text)}")
        rows = []
        for ln in rows_text:
            try:
                row = tuple(int(x) for x in ln.split())
            except ValueError:
                raise ParseError(f"block {bi}: non-integer entry") from None
            if len(row) != n or any(not 0 <= x < q for x in row):
                raise ParseError(f"block {bi}: row needs {n} codes below {q}")
            rows.append(row)
        s = Subspace.span(space.field, n, rows)
        if s.k != k:
            raise ParseError(f"block {bi}: rows span dimension {s.k}, not {k}")
        idx = gr.index(s)
        if idx in indices:
            raise ParseError(f"block {bi}: duplicate plane")
        indices.append(idx)
    return PlaneSet(gr, indices)


def write_map_table(fp, gmap):
    d, c = gmap.domain, gmap.codomain
    fp.write(f"maptable {d.field.q} {d.n} {d.k} {c.k}\n")
    for j in gmap.table:
        fp.write(f"{j}\n")


def read_map_table(fp):
    lines = [ln.strip() for ln in fp if ln.strip()]
    if not lines:
        raise ParseError("empty map-table file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "maptable":
        raise ParseError("bad map-table header; expected 'maptable q n k k2'")
    try:
        q, n, k, k2 = (int(x) for x in head[1:])
    except ValueError as exc:
        raise ParseError(f"bad map-table header: {exc}") from None
    try:
        space = Space.get(q, n)
    except (UnsupportedOrderError, TooLargeError) as exc:
        raise ParseError(str(exc)) from None
    _check_dims("map-table", n, k, k2)
    domain = space.grassmannian(k)
    codomain = space.grassmannian(k2)
    try:
        table = [int(x) for x in lines[1:]]
    except ValueError:
        raise ParseError("non-integer table entry") from None
    if len(table) != len(domain):
        raise ParseError(f"expected {len(domain)} entries, found {len(table)}")
    if any(not 0 <= x < len(codomain) for x in table):
        raise ParseError("table entry out of codomain range")
    try:
        return GrassmannMap(domain, codomain, table)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# reports


def _emit(command, params, verdicts, certificates=None, counterexample=None, t0=None):
    for v in verdicts:
        print(v)
    payload = {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "verdicts": verdicts,
        "certificates": certificates or {},
        "counterexample": counterexample,
    }
    print("REPORT-JSON " + json.dumps(payload, sort_keys=True))
    if t0 is not None:
        print(f"elapsed: {time.time() - t0:.2f}s", file=sys.stderr)


def _system_cert(system):
    return [_subspace_cert(l)[0] for l in system.lines]


# ---------------------------------------------------------------------------
# commands


def cmd_enumerate(args):
    t0 = time.time()
    space = Space.get(args.q, args.n)
    if not 0 <= args.k <= args.n:
        raise UsageError(f"--k {args.k} outside 0..{args.n}")
    params = {"q": args.q, "n": args.n, "k": args.k}
    certificates = {}
    if args.count_only:
        count = gaussian_binomial(args.n, args.k, args.q)
    else:
        gr = space.grassmannian(args.k)
        count = len(gr)
        certificates["planes"] = [_subspace_cert(s) for s in gr]
    verdicts = [f"count {count}"]
    _emit("enumerate", params, verdicts, certificates, t0=t0)
    return 0


def cmd_analyze(args):
    t0 = time.time()
    with open(args.infile) as fp:
        ps = read_plane_set(fp)
    n, k = ps.gr.n, ps.gr.k
    low, gap = MODE_K[args.mode]
    if not low <= k <= n - gap:
        raise UsageError(f"--mode {args.mode} needs {low} <= k <= {n - gap} at n={n}; the file has k={k}")
    params = {"in": args.infile, "mode": args.mode}
    certificates = {}
    verdicts = []
    if args.mode == "regular":
        system = is_regular(ps)
        if system is None:
            verdicts.append("not-regular")
        else:
            verdicts.append("regular")
            certificates["coordinate_system"] = _system_cert(system)
            verdicts.append("maximal" if is_maximal_regular(ps) else "not-maximal")
            exact = is_exact(ps)
            verdicts.append("exact" if exact else "not-exact")
            d, witness = degree(ps)
            verdicts.append(f"degree {d}")
            certificates["exact_superset"] = [_subspace_cert(s) for s in witness.members()]
    elif args.mode == "irregular":
        irr = is_irregular(ps)
        verdicts.append("irregular" if irr else "not-irregular")
        if irr:
            verdicts.append("maximal" if is_maximal_irregular(ps) else "not-maximal")
        else:
            from .irregularity import contains_maximal_regular

            witness = contains_maximal_regular(ps)
            if witness is not None:
                certificates["maximal_regular_witness"] = _system_cert(witness)
    elif args.mode == "characteristics":
        ch = characteristics(ps)
        verdicts.append(f"line-span-dim {ch.line_span_dim}")
        verdicts.append(f"hyperplane-core-dim {ch.hyperplane_core_dim}")
        if ch.line_span is not None:
            certificates["line_span"] = _subspace_cert(ch.line_span)
        if ch.hyperplane_core is not None:
            certificates["hyperplane_core"] = _subspace_cert(ch.hyperplane_core)
        certificates["saturated_lines"] = [_subspace_cert(s) for s in ch.saturated_lines.members()]
        certificates["saturated_hyperplanes"] = [
            _subspace_cert(s) for s in ch.saturated_hyperplanes.members()
        ]
    elif args.mode == "degree":
        try:
            d, witness = degree(ps)
        except NotRegularError as exc:
            _emit("analyze", params, [f"error {exc}"], t0=t0)
            return 1
        verdicts.append(f"degree {d}")
        certificates["exact_superset"] = [_subspace_cert(s) for s in witness.members()]
    _emit("analyze", params, verdicts, certificates, t0=t0)
    return 0


def cmd_classify(args):
    t0 = time.time()
    with open(args.infile) as fp:
        gmap = read_map_table(fp)
    space = gmap.domain.space
    n, k = space.n, gmap.domain.k
    params = {"in": args.infile, "q": space.field.q, "n": n, "k": k}
    if gmap.codomain.k != k:
        _emit("classify", params, ["error classification needs a transformation (k2 = k)"], t0=t0)
        return 2
    if not (n >= 3 and 1 <= k <= n - 1):
        raise UsageError(f"classification needs n >= 3 and 1 <= k <= n-1; the file has n={n}, k={k}")
    if len(gmap.domain) > MAX_CLASSIFY_PLANES:
        raise UsageError(
            f"G_{k}(F_{space.field.q}^{n}) has {len(gmap.domain)} planes, "
            f"above the classify limit of {MAX_CLASSIFY_PLANES}"
        )
    try:
        if 1 < k < n - 1:
            result = chow_classify(space, gmap)
        else:
            result = regular_classify(space, gmap)
    except (
        NotIndependencePreservingError,
        NotDistancePreservingError,
        NotRegularTransformationError,
    ) as exc:
        witness = getattr(exc, "witness", None)
        cert = None
        if isinstance(witness, tuple) and len(witness) == 2:
            cert = {"pair": list(witness)}
        elif witness is not None:
            cert = {"witness": str(witness)}
        _emit("classify", params, [f"not-classifiable {exc}"], counterexample=cert, t0=t0)
        return 1
    except AutomorphismMismatchError as exc:
        _emit("classify", params, [f"not-classifiable {exc}"], t0=t0)
        return 1
    if result.kind == "not_classifiable":
        _emit("classify", params, ["not-classifiable verification mismatch"],
              counterexample={"witness": str(result.witness)}, t0=t0)
        return 1
    verdicts = [result.kind, f"verified {result.verified}"]
    certificates = {
        "matrix": [list(r) for r in result.map.matrix.rows],
        "frobenius_exponent": result.map.sigma.exp,
        "form_composed": result.kind == "form_composed",
    }
    if result.form is not None:
        certificates["form_gram"] = [list(r) for r in result.form.gram.rows]
    _emit("classify", params, verdicts, certificates, t0=t0)
    return 0


def cmd_verify(args):
    # verify and checks import the harness themselves, so that the other
    # commands do not load it
    from .harness import InfeasibleScopeError, run_check

    t0 = time.time()
    params = {"theorem": args.theorem, "q": args.q, "n": args.n, "k": args.k, "seed": args.seed}
    try:
        result = run_check(args.theorem, args.q, args.n, args.k, seed=args.seed)
    except KeyError as exc:
        _emit("verify", params, [f"error {exc.args[0]}"], t0=t0)
        return 2
    except InfeasibleScopeError as exc:
        _emit("verify", params, [f"infeasible-scope supported envelope: {exc}"], t0=t0)
        return 3
    verdicts = [
        "PASS" if result.passed else "FAIL",
        f"scope {result.scope}",
    ]
    _emit(
        "verify",
        params,
        verdicts,
        certificates=result.details,
        counterexample=result.counterexample,
        t0=t0,
    )
    return 0 if result.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qgrass",
        description="Exact Grassmannian combinatorics over small finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate a Grassmannian")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("analyze", help="analyze a plane-set file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=list(MODE_K), default="regular")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("classify", help="classify a map-table file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run a named verification check")
    p.add_argument("--theorem", required=True, metavar="ID",
                   help="check id, e.g. thm-2.2.1; see the README table")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("checks", help="list the verification check ids")
    p.set_defaults(fn=cmd_checks)
    return parser


def cmd_checks(args):
    from .harness import CHECKS

    for cid in sorted(CHECKS):
        _, statement, envelope = CHECKS[cid]
        print(f"{cid}: {statement} [{envelope}]")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse-error {exc}", file=sys.stderr)
        return 2
    except (UnsupportedOrderError, TooLargeError, UsageError, OSError) as exc:
        print(f"error {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
