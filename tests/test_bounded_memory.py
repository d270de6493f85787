"""Library calls on spaces whose whole families or distance matrices would
not fit in memory: each runs in a child process whose address space is
capped at 400 MB, with a 60 s timeout.

The middle-dimension witness walk of `regular_violation` must not hold a
plane set per coordinate system (G_2(F_3^5) has 123,845,436 systems), and
the similarity filter must not read the whole distance matrix (11,011^2
entries at G_2(F_3^6)); either raises `MemoryError` under the cap.  The
list of every coordinate system is refused with `TooLargeError` before it
is searched (27,998,208 systems of F_2^6), and so is the distance matrix of
G_2(F_4^5) (5,797 planes, 33.6 M entries), also when a library
`chow_classify` of a corrupted table there falls back to the distance scan.
"""

from test_cli import run_child

CAP = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
"""

REGULAR_CLASSIFY = CAP + """
from qgrass.grassmann import GrassmannMap, Space
from qgrass.reconstruction import NotRegularTransformationError, regular_classify
space = Space.get(3, 5)
g2 = space.grassmannian(2)
table = list(range(len(g2)))
table[0], table[-1] = table[-1], table[0]
try:
    regular_classify(space, GrassmannMap(g2, g2, table))
except NotRegularTransformationError as exc:
    print(sorted(exc.witness))
"""


def test_regular_classify_names_a_witness_at_g2_f3_5_under_a_memory_cap():
    # planes 0 and N-1 swapped: the first system's coordinate planes hold
    # plane 0 and not N-1, so its image is no maximal regular set
    out = run_child(["-c", REGULAR_CLASSIFY], timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[0, 1, 2, 13, 14, 17, 130, 131, 134, 143]\n", "")


ARE_SIMILAR = CAP + """
from qgrass.grassmann import PlaneSet, Space
from qgrass.irregularity import are_similar
g2 = Space.get(3, 6).grassmannian(2)
for left, right in (([0, 1, 2], [0, 1, len(g2) - 1]), ([0, 5, 700], [3, 900, 4000])):
    result = are_similar(PlaneSet(g2, left), PlaneSet(g2, right))
    print(result.kind, result.reason, sep=": ")
"""


def test_are_similar_at_g2_f3_6_under_a_memory_cap():
    out = run_child(["-c", ARE_SIMILAR], timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines() == [
        "inconclusive: regular group too large to enumerate",
        "no: pairwise distance multisets differ",
    ]


ALL_SYSTEMS = CAP + """
from qgrass.grassmann import Space, TooLargeError
from qgrass.regularity import all_coordinate_systems, maximal_regular_family
for q, n in ((2, 6), (3, 5)):
    for build in (all_coordinate_systems, lambda space: maximal_regular_family(space, 2)):
        try:
            build(Space.get(q, n))
        except TooLargeError as exc:
            print(exc)
"""


def test_all_coordinate_systems_refuses_f2_6_and_f3_5_under_a_memory_cap():
    out = run_child(["-c", ALL_SYSTEMS], timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines() == [
        "F_2^6 has 27998208 coordinate systems, above 100000",
        "F_2^6 has 27998208 coordinate systems, above 100000",
        "F_3^5 has 123845436 coordinate systems, above 100000",
        "F_3^5 has 123845436 coordinate systems, above 100000",
    ]


DISTANCE_MATRIX = CAP + """
from qgrass.grassmann import GrassmannMap, Space, TooLargeError
from qgrass.reconstruction import chow_classify
space = Space.get(4, 5)
g2 = space.grassmannian(2)
table = list(range(len(g2)))
table[0], table[1] = table[1], table[0]
for call in (lambda: space.distance_matrix(2), lambda: chow_classify(space, GrassmannMap(g2, g2, table))):
    try:
        call()
    except TooLargeError as exc:
        print(exc)
"""


def test_distance_matrix_refuses_g2_f4_5_under_a_memory_cap():
    out = run_child(["-c", DISTANCE_MATRIX], timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.splitlines() == ["distance matrix of G_2(F_4^5): 5797 planes, above 1500"] * 2
