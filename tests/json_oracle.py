"""Checks of CLI answers against their inputs that read JSON only.

Each ``check_<command>(payload, output)`` takes the parsed input payload and
the stdout of one CLI run, parsed by ``read``, and returns None when the
output answers the input, or a one-line reason when it does not.  The
checks follow the definitions, not the library's algorithms, and this
module imports the standard library only (``tests/test_surface.py`` guards
that), so no code path of ``qtdelta`` is shared with what it checks
(McKeeman, "Differential Testing for Software", Digital Technical Journal
10(1), 1998).  A printed fan is read as the canonical H-representations
of its cones, which the library reads off each cone's raw rows with no
double description; the checks test membership in them point by point.
Every rational, of the input or of the answer, is read by ``_rational``
under the same lift of the int-string limit as ``read``, so an exact
answer of any size can be checked.

- ``torus-mul``: the naive product, term by term, from
  x^a x^b = q^(a B b) x^(a+b), every parameter exponent padded with zeros
  to the cocycle's count.
- ``delta``: on every integer character chi of [-2, 2]^n, membership in the
  printed H-representation equals "the minimum of chi over the relator's
  support is attained at least twice".
- ``initform``: the printed B is in row Hermite normal form, orthogonal
  to chi, of rank n - rank(chi) and saturated (the gcd of its maximal
  minors is 1), so it is the HNF basis of ker chi in Z^n; r_chi is
  supported on the chi-minimal support points of the relator, less the
  lexicographically least one, in the coordinates of B.
- ``tc``: on every integer character psi of [-2, 2]^k, k the rank of B,
  membership in the printed H-representation equals "the minimum of psi
  over the chi-minimal support in B's coordinates is attained at least
  twice", with the B that ``check_initform`` verified.
- ``lc``: on every integer direction y of [-2, 2]^n, membership in the
  printed H-representation equals the epsilon rule on the input fan's
  rows at the point x: some cone holds x, and y satisfies its equalities
  and its inequalities tight at x.
- ``check-lemma31``: for every printed character chi, both printed fans
  hold an integer y of [-2, 2]^n iff the minimum of y over the
  chi-minimal support points is attained at least twice, and every
  verdict says equal.
- ``check-dim``: for every printed character chi, chi_rank is 1 for chi
  nonzero and 0 otherwise; delta_dim is n - 1 when the support has two or
  more points, and -1 otherwise; tc_dim is n - chi_rank - 1 when the
  chi-minimal support has two or more points, and -1 otherwise; holds says
  whether chi_rank + tc_dim = delta_dim, and all_hold whether every report
  does, with the first that does not as the witness.
- ``center``: the printed subspace basis is in reduced row echelon form,
  every row v has v^T Phi_k = 0 for every form, its dimension is n minus the
  rank of the forms stacked, and the printed lattice has that rank.
- ``abelian-split``: one component per block of the given base, each in
  reduced row echelon form, inside U and its block, of dimension
  dim U + dim V_i - rank(U + V_i), so the whole of U cap V_i, and of half
  the block's dimension; the components together span U.
"""

import contextlib
import itertools
import json
import math
import sys
from fractions import Fraction


@contextlib.contextmanager
def _exact():
    """Lift the interpreter's limit on int-string conversion, where there
    is one, and restore it after, since the whole process shares it."""
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


def read(text):
    """A CLI answer parsed from its JSON text.  An exact answer may hold an
    int of more digits than the interpreter's limit on int-string
    conversion, so the limit is lifted for the parse."""
    with _exact():
        return json.loads(text)


def _rational(x):
    """A JSON int or "p/q" string as a Fraction, under the same lift as
    ``read``: every rational of an input or an answer is read here."""
    with _exact():
        return Fraction(x)


def _nonzero(terms):
    """{exp: {qexp: value}} without zero values and empty coefficients."""
    out = {}
    for exp, coeff in terms.items():
        kept = {q: v for q, v in coeff.items() if v}
        if kept:
            out[exp] = kept
    return out


def _element(data, width=None):
    """The terms of an element as {exp: {qexp: value}}, each parameter
    exponent padded to ``width`` (by default the longest one), repeated
    exponents and parameter exponents summed."""
    coeffs = [c for term in data["terms"] for c in term["coeff"]]
    if width is None:
        width = max((len(c["qexp"]) for c in coeffs), default=0)
    terms = {}
    for term in data["terms"]:
        coeff = terms.setdefault(tuple(term["exp"]), {})
        for c in term["coeff"]:
            q = tuple(c["qexp"]) + (0,) * (width - len(c["qexp"]))
            coeff[q] = coeff.get(q, 0) + _rational(c["c"])
    return _nonzero(terms)


def check_torus_mul(payload, output):
    """The printed product against the naive one; JSON numbers and "p/q"
    strings are read by ``_rational``."""
    cocycle = payload["cocycle"]
    n, forms = cocycle["rank"], cocycle["B"]
    width = cocycle["s"]
    a = _element(payload["a"], width)
    b = _element(payload["b"], width)
    expected = {}
    for (ea, ca), (eb, cb) in itertools.product(a.items(), b.items()):
        twist = tuple(sum(ea[i] * m[i][j] * eb[j]
                          for i in range(n) for j in range(n)) for m in forms)
        twist += (0,) * (width - len(twist))
        coeff = expected.setdefault(
            tuple(x + y for x, y in zip(ea, eb)), {})
        for (qa, va), (qb, vb) in itertools.product(ca.items(), cb.items()):
            q = tuple(x + y + z for x, y, z in zip(qa, qb, twist))
            coeff[q] = coeff.get(q, 0) + va * vb
    expected = _nonzero(expected)
    if output.get("rank") != n:
        return f"rank {output.get('rank')!r}, expected {n}"
    got = {}
    for term in output["terms"]:
        exp = tuple(term["exp"])
        if exp in got:
            return f"exponent {list(exp)} printed twice"
        got[exp] = {tuple(c["qexp"]): _rational(c["c"])
                    for c in term["coeff"]}
        if any(len(q) != width for q in got[exp]):
            return f"parameter exponent of exponent {list(exp)} not of " \
                   f"length {width}"
    for exp in sorted(set(got) | set(expected)):
        if got.get(exp) != expected.get(exp):
            with _exact():  # a coefficient is written at any size
                return (f"coefficient of x^{list(exp)} is {got.get(exp)}, "
                        f"expected {expected.get(exp)}")
    return None


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _cones(fan):
    """The (equalities, inequalities) of each cone of a JSON fan, their
    entries read by ``_rational``."""
    return [([[_rational(x) for x in row] for row in cone.get("eq", [])],
             [[_rational(x) for x in row] for row in cone.get("ineq", [])])
            for cone in fan["cones"]]


def _in_cone(cone, y):
    eq, ineq = cone
    return (all(_dot(e, y) == 0 for e in eq)
            and all(_dot(a, y) >= 0 for a in ineq))


def _box_fault(output, n, box, name, rule, expected):
    """The printed fan in Q^n against ``expected``, a membership test named
    ``rule``, on the integer points of [-box, box]^n, or None."""
    if output.get("dim") != n:
        return f"fan dimension {output.get('dim')!r}, expected {n}"
    cones = _cones(output)
    for y in itertools.product(range(-box, box + 1), repeat=n):
        want = expected(y)
        in_fan = any(_in_cone(cone, y) for cone in cones)
        if want != in_fan:
            return (f"{name} {list(y)}: {rule} is {want}, printed fan "
                    f"member is {in_fan}")
    return None


def _fan_fault(output, support, n, box, name):
    """The printed fan in Q^n against direct min-evaluation over the
    support on the integer points of [-box, box]^n, or None."""
    def attained_twice(chi):
        values = [_dot(chi, a) for a in support]
        return values.count(min(values)) >= 2
    return _box_fault(output, n, box, name, "minimum attained twice",
                      attained_twice)


def check_delta(payload, output, box=2):
    """The printed fan against direct min-evaluation on the integer points
    of [-box, box]^n."""
    return _fan_fault(output, list(_element(payload["relator"])),
                      payload["relator"]["rank"], box, "chi")


def check_lc(payload, output, box=2):
    """The printed local cone at x against the epsilon rule on the input
    fan's rows, on the integer points y of [-box, box]^n: x + eps*y lies in
    the fan for all small eps > 0 iff, for some cone holding x, every
    equality e has e.y = 0 and every inequality a with a.x = 0 has
    a.y >= 0 (the others stay positive for small eps)."""
    fan = payload["fan"]
    n = fan["dim"]
    x = [_rational(v) for v in payload["point"]]
    # the cones holding x, each cut down to its rows tight at x
    tangents = [(eq, [a for a in ineq if _dot(a, x) == 0])
                for eq, ineq in _cones(fan) if _in_cone((eq, ineq), x)]
    return _box_fault(output, n, box, "y", "the epsilon rule",
                      lambda y: any(_in_cone(t, y) for t in tangents))


def check_lemma31(payload, output, box=2):
    """Each printed report's two fans against Lemma 3.1's common answer: on
    the integer points y of [-box, box]^n, both hold y iff the minimum of y
    over the chi-minimal support points is attained at least twice.  Every
    report and the verdict say equal, and no witness is printed."""
    n = payload["relator"]["rank"]
    support = list(_element(payload["relator"]))
    for k, report in enumerate(output["checks"]):
        chi = [_rational(x) for x in report["chi"]]
        low = min(_dot(chi, a) for a in support)
        minimal = [a for a in support if _dot(chi, a) == low]
        for side in ("lhs", "rhs"):
            fault = _fan_fault(report[side], minimal, n, box,
                               f"check {k} {side} y")
            if fault:
                return fault
        if report.get("equal") is not True:
            return f"check {k} says equal is {report.get('equal')!r}"
    if output.get("all_equal") is not True or "witness" in output:
        return f"all_equal is {output.get('all_equal')!r} with " \
               f"{len(output['checks'])} equal checks"
    return None


def check_dim(payload, output):
    """Each printed dimension report against the relator's support.  A
    Delta set of two or more points is a union of tie cones
    {chi(a) = chi(b) <= chi(c)}, the top ones of dimension n - 1, and the
    trailing Delta set at chi is that of the chi-minimal support inside
    ker chi, of rank n - chi_rank."""
    n = payload["relator"]["rank"]
    support = list(_element(payload["relator"]))
    reports = output["checks"]
    for k, report in enumerate(reports):
        chi = [_rational(x) for x in report["chi"]]
        low = min(_dot(chi, a) for a in support)
        ties = sum(_dot(chi, a) == low for a in support)
        expected = {"chi_rank": 1 if any(chi) else 0,
                    "delta_dim": n - 1 if len(support) >= 2 else -1}
        expected["tc_dim"] = (n - expected["chi_rank"] - 1 if ties >= 2
                              else -1)
        expected["holds"] = (expected["chi_rank"] + expected["tc_dim"]
                             == expected["delta_dim"])
        for key, want in expected.items():
            if report.get(key) != want:
                return f"check {k} {key} is {report.get(key)!r}, expected " \
                       f"{want!r}"
    failed = [r for r in reports if not r["holds"]]
    if output.get("all_hold") is not (not failed):
        return f"all_hold is {output.get('all_hold')!r}, expected " \
               f"{not failed}"
    if output.get("witness") != (failed[0] if failed else None):
        return "the witness is not the first report that fails"
    return None


def _det(rows):
    """Determinant of a square rational matrix, by Fraction elimination."""
    rows = [[_rational(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def _hnf_fault(rows):
    """Why the integer rows are not in row Hermite normal form (positive
    pivots, strictly right of the row above, entries above a pivot in
    [0, pivot)), or None."""
    last = -1
    for k, row in enumerate(rows):
        if any(not isinstance(x, int) for x in row):
            return f"B row {k} has an entry that is not an integer"
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            return f"B row {k} is zero"
        if c <= last:
            return f"B row {k} has its pivot in column {c}, not right of " \
                   f"{last}"
        if row[c] < 0:
            return f"B row {k} has pivot entry {row[c]}, expected positive"
        if any(not 0 <= above[c] < row[c] for above in rows[:k]):
            return f"column {c}, the pivot of B row {k}, is not reduced " \
                   f"above it"
        last = c
    return None


def _coordinates(v, basis):
    """The integer coefficients of v in the rows of a matrix in row
    Hermite normal form, read pivot by pivot, or None."""
    residual = [_rational(x) for x in v]
    coords = []
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        q = residual[c] / row[c]
        if q.denominator != 1:
            return None
        coords.append(int(q))
        residual = [x - q * y for x, y in zip(residual, row)]
    return tuple(coords) if not any(residual) else None


def _initial_support(payload, basis):
    """The chi-minimal support points a of the relator, as the coordinates
    of a - a0 in the basis, a0 the lexicographically least of them; None
    for a point off the basis's lattice."""
    chi = [_rational(x) for x in payload["chi"]]
    support = list(_element(payload["relator"]))
    low = min(_dot(chi, a) for a in support)
    minimal = sorted(a for a in support if _dot(chi, a) == low)
    coords = [_coordinates([x - y for x, y in zip(a, minimal[0])], basis)
              for a in minimal]
    return None if None in coords else coords


def check_initform(payload, output):
    """The printed kernel lattice B and initial form r_chi against chi: B
    is in row HNF, orthogonal to chi, of rank n - rank(chi) and saturated
    (its maximal minors have gcd 1), and r_chi is supported on the
    chi-minimal support points, less the least one, in B's coordinates."""
    n = payload["relator"]["rank"]
    chi = [_rational(x) for x in payload["chi"]]
    lattice, form = output["B"], output["r_chi"]
    if lattice.get("ambient_rank") != n:
        return f"B of ambient rank {lattice.get('ambient_rank')!r}, " \
               f"expected {n}"
    basis = lattice["basis"]
    if any(len(row) != n for row in basis):
        return f"B row of length other than {n}"
    fault = _hnf_fault(basis)
    if fault:
        return fault
    for k, row in enumerate(basis):
        if _dot(row, chi):
            return f"B row {k} is not orthogonal to chi"
    rank = n - (1 if any(chi) else 0)
    if len(basis) != rank:
        return f"B has {len(basis)} rows, expected {rank}"
    g = math.gcd(*[int(_det([[row[j] for j in cols] for row in basis]))
                   for cols in itertools.combinations(range(n), rank)])
    if g != 1:
        return f"B is not saturated: its maximal minors have gcd {g}"
    if form.get("rank") != rank:
        return f"r_chi of rank {form.get('rank')!r}, expected {rank}"
    expected = _initial_support(payload, basis)
    if expected is None:
        return "a chi-minimal support point is off the lattice of B"
    got = sorted(_element(form))
    if got != sorted(expected):
        return f"r_chi is supported on {[list(a) for a in got]}, expected " \
               f"{sorted(list(a) for a in expected)}"
    return None


def check_tc(payload, output, basis, box=2):
    """The printed trailing-coefficient Delta set, in the coordinates of
    the rows ``basis`` of B as ``check_initform`` verified them, against
    direct min-evaluation over the chi-minimal support in those
    coordinates on the integer points of [-box, box]^rank B."""
    support = _initial_support(payload, basis)
    if support is None:
        return "a chi-minimal support point is off the lattice of B"
    return _fan_fault(output, support, len(basis), box, "psi")


def _rank(rows):
    """Rank of a list of rational rows, by Gauss elimination on Fractions."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rref_fault(rows):
    """Why the rows are not in reduced row echelon form with pivot entries
    1, or None."""
    last = -1
    for k, row in enumerate(rows):
        c = next((j for j, x in enumerate(row) if x), None)
        if c is None:
            return f"row {k} is zero"
        if c <= last:
            return f"row {k} has its pivot in column {c}, not right of {last}"
        if row[c] != 1:
            return f"row {k} has pivot entry {row[c]}, expected 1"
        if any(other[c] for other in rows[:k] + rows[k + 1:]):
            return f"column {c}, the pivot of row {k}, is nonzero elsewhere"
        last = c
    return None


def check_center(payload, output):
    """The printed radical {v : v^T Phi_k = 0 for all k} against the forms.
    Each Phi_k is antisymmetric, so the radical is the kernel of the forms
    stacked; the printed lattice is integral, inside it and of full rank."""
    form = payload["form"]
    n = form["n"]
    forms = [[[_rational(x) for x in row] for row in m] for m in form["phi"]]
    sub, lat = output["subspace"], output["lattice"]
    if sub.get("ambient_dim") != n or lat.get("ambient_rank") != n:
        return f"ambient dimensions {sub.get('ambient_dim')!r} and " \
               f"{lat.get('ambient_rank')!r}, expected {n}"
    basis = [[_rational(x) for x in row] for row in sub["basis"]]
    lattice = [[_rational(x) for x in row] for row in lat["basis"]]
    if any(len(row) != n for row in basis + lattice):
        return f"basis row of length other than {n}"
    fault = _rref_fault(basis)
    if fault:
        return fault
    for name, rows in (("subspace", basis), ("lattice", lattice)):
        for k, v in enumerate(rows):
            for f, m in enumerate(forms):
                if any(sum(v[i] * m[i][j] for i in range(n))
                       for j in range(n)):
                    return f"{name} row {k} is not in the radical of form {f}"
    dim = n - _rank([row for m in forms for row in m])
    if len(basis) != dim:
        return f"subspace dimension {len(basis)}, expected {dim}"
    if any(x.denominator != 1 for row in lattice for x in row):
        return "lattice row with a non-integer entry"
    if len(lattice) != dim or _rank(lattice) != dim:
        return f"lattice of {len(lattice)} rows and rank {_rank(lattice)}, " \
               f"expected rank {dim}"
    return None


def _rows(data):
    return [[_rational(x) for x in row] for row in data]


def check_abelian_split(payload, output):
    """The printed components against U and the blocks of the base: each
    is U cap V_i, found by ranks, and half of V_i; together they span U."""
    n = payload["form"]["n"]
    space = _rows(payload["U"])
    blocks = [_rows(b) for b in payload["base"]["blocks"]]
    components = output["components"]
    if len(components) != len(blocks):
        return f"{len(components)} components, expected {len(blocks)}"
    dim_u = _rank(space)
    stacked = []
    for i, (comp, block) in enumerate(zip(components, blocks)):
        if comp.get("ambient_dim") != n:
            return f"component {i} has ambient dimension " \
                   f"{comp.get('ambient_dim')!r}, expected {n}"
        basis = _rows(comp["basis"])
        if any(len(row) != n for row in basis):
            return f"component {i} has a row of length other than {n}"
        fault = _rref_fault(basis)
        if fault:
            return f"component {i}: {fault}"
        dim_v = _rank(block)
        for k, row in enumerate(basis):
            if _rank(space + [row]) != dim_u:
                return f"component {i} row {k} is not in U"
            if _rank(block + [row]) != dim_v:
                return f"component {i} row {k} is not in block {i}"
        meet = dim_u + dim_v - _rank(space + block)
        if len(basis) != meet:
            return f"component {i} has dimension {len(basis)}, expected " \
                   f"{meet}, that of U cap block {i}"
        if 2 * len(basis) != dim_v:
            return f"component {i} has dimension {len(basis)}, not half " \
                   f"of block {i}'s {dim_v}"
        stacked += basis
    if _rank(stacked) != dim_u:
        return f"components span rank {_rank(stacked)}, expected " \
               f"dim U = {dim_u}"
    return None
