import random
from itertools import combinations

import pytest

from qgrass.forms import dot_form, form_map, standard_symplectic
from qgrass.grassmann import PlaneSet, Space, incidence_set, join, meet
from qgrass.harness import random_irregular, random_semilinear
from qgrass.irregularity import (
    STATUS_CONTAINS_MAXIMAL_REGULAR,
    STATUS_IRREGULAR,
    STATUS_MAXIMAL_IRREGULAR,
    STATUS_REGULAR,
    NotIrregularError,
    are_similar,
    characteristics,
    complete_to_maximal_irregular,
    completion_witness,
    contains_maximal_regular,
    deficient_irregular,
    deficient_irregular_dual,
    is_irregular,
    is_maximal_irregular,
    planes_cohyperplanar,
    planes_meeting,
    restricted_status,
)
from qgrass.linalg import EchelonBasis
from qgrass.maps import induced_map
from qgrass.regularity import is_regular


def line_set_oracle(space, line_indices):
    """Rank-based oracle for subsets of the line Grassmannian: irregular means
    dependent and without n independent members."""
    g1 = space.grassmannian(1)
    eb = EchelonBasis(space.field)
    rank = 0
    for i in line_indices:
        if eb.add(g1[i].rows[0]):
            rank += 1
    independent = rank == len(line_indices)
    return not independent and rank < space.n


def test_contains_maximal_regular_whole_grassmannian():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    everything = PlaneSet(g2, range(len(g2)))
    system = contains_maximal_regular(everything)
    assert system is not None
    assert system.coordinate_planes(2).issubset(everything)


def test_meeting_set_has_no_maximal_regular_subset():
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    x = planes_meeting(space, s, 2)
    assert contains_maximal_regular(x) is None


def test_line_grassmannian_classification_exhaustive():
    # every subset of the 15 lines of GF(2)^4, against the rank oracle;
    # the maximal irregular ones are exactly the hyperplane line sets
    space = Space.get(2, 4)
    g1 = space.grassmannian(1)
    hyperplane_sets = {
        frozenset(incidence_set(space, h, 1).indices) for h in space.grassmannian(3)
    }
    maximal_found = set()
    for mask in range(1 << len(g1)):
        subset = tuple(i for i in range(len(g1)) if mask >> i & 1)
        oracle = line_set_oracle(space, subset)
        ps = PlaneSet(g1, subset)
        # library decision must match the rank oracle
        assert is_irregular(ps) == oracle
        if not oracle:
            continue
        # maximal iff adding any line either completes a base or stays short
        maximal = True
        for extra in range(len(g1)):
            if extra in subset:
                continue
            if line_set_oracle(space, subset + (extra,)):
                maximal = False
                break
        if maximal:
            maximal_found.add(frozenset(subset))
    assert maximal_found == hyperplane_sets


def test_hyperplane_grassmannian_classification_exhaustive():
    # dual side: transport every subset of the 15 hyperplane-planes through
    # the complement bijection and classify with the rank oracle; the maximal
    # irregular subsets are exactly the line stars
    space = Space.get(2, 4)
    g3 = space.grassmannian(3)
    om = dot_form(space.field, 4)
    fmap = form_map(space, om, 3)  # G_3 -> G_1, class-preserving both ways
    star_sets = {
        frozenset(incidence_set(space, l, 3).indices) for l in space.grassmannian(1)
    }

    def oracle_irregular(subset):
        return line_set_oracle(space, tuple(sorted(fmap.table[i] for i in subset)))

    maximal_found = set()
    for mask in range(1 << len(g3)):
        subset = tuple(i for i in range(len(g3)) if mask >> i & 1)
        if not oracle_irregular(subset):
            continue
        if all(
            not oracle_irregular(subset + (extra,))
            for extra in range(len(g3))
            if extra not in subset
        ):
            maximal_found.add(frozenset(subset))
    assert maximal_found == star_sets
    # library predicates agree with the transported oracle on a sample
    rng = random.Random(27)
    for _ in range(40):
        subset = tuple(sorted(rng.sample(range(len(g3)), rng.randrange(1, 12))))
        ps = PlaneSet(g3, subset)
        assert is_irregular(ps) == oracle_irregular(subset)
    for fs in list(star_sets)[:3]:
        assert is_maximal_irregular(PlaneSet(g3, fs))


def test_is_maximal_irregular_matches_oracle_on_line_sets():
    space = Space.get(2, 4)
    g1 = space.grassmannian(1)
    rng = random.Random(3)
    hyp = space.grassmannian(3)[4]
    full = incidence_set(space, hyp, 1)
    assert is_maximal_irregular(full)
    smaller = PlaneSet(g1, full.indices[:5])
    assert is_irregular(smaller) and not is_maximal_irregular(smaller)


def test_dual_hyperplane_stars_maximal():
    space = Space.get(2, 4)
    line = space.subspace([(1, 1, 0, 0)])
    star = incidence_set(space, line, 3)
    assert is_maximal_irregular(star)


def test_downward_closure():
    space = Space.get(2, 4)
    rng = random.Random(8)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    x = planes_meeting(space, s, 2)
    for _ in range(25):
        size = rng.randrange(1, len(x))
        sub = PlaneSet(x.gr, rng.sample(x.indices, size))
        if is_regular(sub) is None:
            assert is_irregular(sub)


def test_completion_idempotent_on_maximal():
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    x = planes_meeting(space, s, 2)
    assert complete_to_maximal_irregular(x) == x


def test_completion_from_small_meeting_set():
    space = Space.get(2, 4)
    line = space.subspace([(1, 0, 1, 0)])
    x = planes_meeting(space, line, 2)  # the star of the line: not maximal
    assert is_irregular(x) and not is_maximal_irregular(x)
    completed = complete_to_maximal_irregular(x)
    assert x.issubset(completed)
    assert is_maximal_irregular(completed)
    ch = characteristics(completed)
    assert ch.line_span_dim <= 2 and ch.hyperplane_core_dim >= 2


def test_completion_rejects_non_irregular():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    with pytest.raises(NotIrregularError):
        complete_to_maximal_irregular(PlaneSet(g2, range(len(g2))))


def test_completion_witness_certificate():
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    x = planes_meeting(space, s, 2)
    outside = next(i for i in range(len(x.gr)) if i not in x.iset)
    system = completion_witness(x, outside)
    assert system is not None
    planes = system.coordinate_planes(2)
    assert outside in planes.iset
    assert planes.without_index(outside).issubset(x)


def test_meeting_set_line_case_is_incidence_set():
    space = Space.get(2, 4)
    line = space.subspace([(0, 1, 1, 0)])
    assert planes_meeting(space, line, 2) == incidence_set(space, line, 2)


def test_meeting_cohyperplanar_agree_at_complementary_dim():
    space = Space.get(2, 4)
    for s in space.grassmannian(2):
        assert planes_meeting(space, s, 2) == planes_cohyperplanar(space, s, 2)


def test_meeting_count_oracle():
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    x = planes_meeting(space, s, 2)
    assert len(x) == 19
    for i, sub in enumerate(space.grassmannian(2)):
        assert (meet(sub, s).k >= 1) == (i in x.iset)


def test_cohyperplanar_membership_oracle():
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    y = planes_cohyperplanar(space, s, 2)
    for i, sub in enumerate(space.grassmannian(2)):
        expected = any(
            h.contains(sub) and h.contains(s) for h in space.grassmannian(3)
        )
        assert expected == (i in y.iset)


def test_characteristics_of_meeting_sets():
    space = Space.get(2, 4)
    # dim s <= n - k: the line span recovers s
    for m in (1, 2):
        for s in space.grassmannian(m):
            ch = characteristics(planes_meeting(space, s, 2))
            assert ch.line_span_dim == m
            assert ch.line_span == s
            if m < 2:
                # no hyperplane saturates, so the core convention applies
                assert len(ch.saturated_hyperplanes) == 0
                assert ch.hyperplane_core_dim == 4
            else:
                assert ch.hyperplane_core_dim == 2
    # dim s >= n - k on the cohyperplanar side: the core recovers s
    for m in (2, 3):
        for s in space.grassmannian(m):
            ch = characteristics(planes_cohyperplanar(space, s, 2))
            assert ch.hyperplane_core_dim == m
            assert ch.hyperplane_core == s
            if m > 2:
                assert len(ch.saturated_lines) == 0
                assert ch.line_span_dim == 0


def test_characteristics_empty_set():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    ch = characteristics(PlaneSet(g2, []))
    assert ch.line_span_dim == 0
    assert ch.hyperplane_core_dim == 4


def test_unique_maximal_superset_at_full_span():
    # an irregular set whose line span already has complementary dimension
    # completes to the meeting set of that span, whatever the path
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 1, 0)])
    x = planes_meeting(space, s, 2)
    lines_in_s = incidence_set(space, s, 1)
    keep = set()
    for t in lines_in_s.members():
        keep |= set(incidence_set(space, t, 2).indices)
    core = PlaneSet(x.gr, keep)  # stars of the lines of s: keeps the span
    assert characteristics(core).line_span_dim == 2
    assert complete_to_maximal_irregular(core) == x
    rng = random.Random(19)
    for _ in range(5):
        h = random_semilinear(space, rng)
        fmap = induced_map(space, h, 2)
        image = fmap.apply_set(core)
        assert complete_to_maximal_irregular(image) == fmap.apply_set(x)


def test_deficient_construction_certificates():
    space = Space.get(2, 4)
    s = space.subspace([(0, 0, 0, 1)])
    t = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    built = deficient_irregular(space, s, t)
    assert meet(built.base, built.carrier).k == 0
    assert meet(built.carrier, built.carrier_companion) == built.hinge
    assert built.hinge.contains(built.pencil_line)
    assert built.carrier_companion.contains(built.companion_line)
    assert not built.hinge.contains(built.companion_line)
    assert built.stage.issubset(built.result)
    assert is_maximal_irregular(built.result)
    ch = characteristics(built.result)
    assert ch.line_span_dim == 1
    # the stage trace on the carrier is the punctured pencil
    g2 = space.grassmannian(2)
    trace = built.stage.intersection(incidence_set(space, t, 2))
    pencil = incidence_set(space, t, 2).intersection(incidence_set(space, built.pencil_line, 2))
    assert trace == pencil.without_index(g2.index(built.hinge))


def test_deficient_construction_validates_inputs():
    space = Space.get(2, 4)
    s = space.subspace([(0, 0, 0, 1)])
    bad_t = space.subspace([(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)])
    with pytest.raises(ValueError):
        deficient_irregular(space, s, bad_t)  # not transverse
    with pytest.raises(ValueError):
        deficient_irregular(space, space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)]), bad_t)


def test_deficient_dual_certificates():
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    t = space.subspace([(0, 0, 0, 1)])
    built = deficient_irregular_dual(space, s, t)
    assert is_maximal_irregular(built.result)
    assert planes_cohyperplanar(space, s, 2).issubset(built.result)
    assert characteristics(built.result).hyperplane_core_dim == 3


def test_restricted_status_cases():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    t = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    inside = incidence_set(space, t, 2)
    # the full trace contains a maximal regular subset of the sub
    assert restricted_status(PlaneSet(g2, range(len(g2))), t) == STATUS_CONTAINS_MAXIMAL_REGULAR
    # a single plane inside: regular there
    assert restricted_status(PlaneSet(g2, inside.indices[:1]), t) == STATUS_REGULAR
    # the star of a line inside t is maximal irregular in the sub
    p = space.subspace([(1, 0, 0, 0)])
    star = inside.intersection(incidence_set(space, p, 2))
    assert restricted_status(star, t) == STATUS_MAXIMAL_IRREGULAR
    with pytest.raises(ValueError):
        restricted_status(star, space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)]))


def test_restricted_status_through_line_carrier():
    space = Space.get(2, 4)
    t = space.subspace([(0, 0, 0, 1)])
    over = incidence_set(space, t, 2)
    # all planes through t: contains a maximal regular subset of the sub
    assert restricted_status(over, t) == STATUS_CONTAINS_MAXIMAL_REGULAR
    one = PlaneSet(over.gr, over.indices[:1])
    assert restricted_status(one, t) == STATUS_REGULAR


def test_extension_of_sub_maximal_irregular():
    # a maximal irregular subset of the trace extends to a global maximal
    # irregular set with the same trace
    space = Space.get(2, 4)
    t = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    p = space.subspace([(0, 1, 0, 0)])
    inside = incidence_set(space, t, 2)
    sub_max = inside.intersection(incidence_set(space, p, 2))
    assert restricted_status(sub_max, t) == STATUS_MAXIMAL_IRREGULAR
    s = next(l for l in space.grassmannian(1) if meet(l, t).k == 0)
    seed = planes_meeting(space, s, 2).union(sub_max)
    assert is_irregular(seed)
    completed = complete_to_maximal_irregular(seed)
    assert completed.intersection(inside) == sub_max


def test_similarity_identity_and_meeting_sets():
    space = Space.get(2, 4)
    s1 = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    s2 = space.subspace([(1, 1, 0, 0), (0, 0, 1, 1)])
    x1 = planes_meeting(space, s1, 2)
    x2 = planes_meeting(space, s2, 2)
    self_sim = are_similar(x1, x1)
    assert self_sim.kind == "yes"
    sim = are_similar(x1, x2)
    assert sim.kind == "yes"
    assert sim.witness.apply_set(x1) == x2


def test_similarity_distinguishes_characteristics():
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    x = planes_meeting(space, s, 2)
    sdef = space.subspace([(0, 0, 0, 1)])
    t = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    built = deficient_irregular(space, sdef, t)
    sim = are_similar(x, built.result)
    assert sim.kind == "no"


def test_similarity_inconclusive_on_large_fields():
    space = Space.get(3, 4)
    s1 = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    s2 = space.subspace([(0, 0, 1, 0), (0, 0, 0, 1)])
    x1 = planes_meeting(space, s1, 2)
    x2 = planes_meeting(space, s2, 2)
    assert are_similar(x1, x2).kind == "inconclusive"


def test_similarity_swapped_characteristics_at_middle_dimension():
    # a form map image has complement-swapped characteristics yet stays
    # similar when n = 2k
    space = Space.get(2, 4)
    line = space.subspace([(1, 0, 1, 0)])
    x = planes_meeting(space, line, 2)
    fmap = form_map(space, standard_symplectic(space.field, 4), 2)
    image = fmap.apply_set(x)
    sim = are_similar(x, image)
    assert sim.kind == "yes"
    assert sim.witness.apply_set(x) == image


def test_primal_and_dual_constructions_similar_at_middle_dimension():
    # computed resolution of an ambiguity: at n = 2k the two deficient
    # constructions land in one similarity class, through a form-composed
    # transformation; the exhaustive search provides the witness
    space = Space.get(2, 4)
    s = space.grassmannian(1)[0]
    t = next(tt for tt in space.grassmannian(3) if meet(s, tt).k == 0)
    primal = deficient_irregular(space, s, t).result
    s2 = space.grassmannian(3)[0]
    t2 = next(tt for tt in space.grassmannian(1) if meet(s2, tt).k == 0)
    dual = deficient_irregular_dual(space, s2, t2).result
    sim = are_similar(primal, dual)
    assert sim.kind == "yes"
    assert sim.witness.apply_set(primal) == dual
    # their characteristics agree only up to the complement swap
    cp, cd = characteristics(primal), characteristics(dual)
    assert (cp.line_span_dim, cp.hyperplane_core_dim) == (1, 3)
    assert (cd.line_span_dim, cd.hyperplane_core_dim) == (1, 3)


def test_singular_restriction_set_irregular_not_maximal():
    # empirical status of the symplectic singular-restriction set at even k:
    # irregular, and not maximal (it completes to a larger irregular set)
    from qgrass.forms import singular_restriction_planes, standard_symplectic

    space = Space.get(2, 4)
    om = standard_symplectic(space.field, 4)
    s = singular_restriction_planes(space, om, 2)
    assert len(s) == 15
    assert is_irregular(s)
    assert not is_maximal_irregular(s)
    completed = complete_to_maximal_irregular(s)
    assert len(completed) > len(s)


def test_span_constrained_similarity_search_at_n5():
    # the n = 5 searcher gives definite answers when a characteristic span
    # pins the candidate matrices
    space = Space.get(2, 5)
    s1 = space.subspace([(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)])
    s2 = space.subspace([(0, 1, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 0, 1)])
    x1 = planes_meeting(space, s1, 2)
    x2 = planes_meeting(space, s2, 2)
    sim = are_similar(x1, x2)
    assert sim.kind == "yes"
    assert sim.witness.apply_set(x1) == x2


def test_meeting_set_search_runs_no_span(monkeypatch):
    # no system lies inside the meeting set of a 3-space at (2,5,2), and the
    # viable-line pruning proves it before the search spans a single line
    space = Space.get(2, 5)
    ps = planes_meeting(space, space.grassmannian(3)[0], 2)
    assert contains_maximal_regular(ps) is None      # warm: the tables are built with spans
    calls = []
    span_with = Space.span_with

    def counted(self, mask, points, t):
        calls.append(t)
        return span_with(self, mask, points, t)

    monkeypatch.setattr(Space, "span_with", counted)
    assert contains_maximal_regular(ps) is None
    assert len(calls) == 0
