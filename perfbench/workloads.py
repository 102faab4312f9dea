"""Seeded workloads of the qtdelta benchmark.

Each workload turns ``(seed, index)`` into one operation's input, runs the
operation against the package (the timed part) and checks the result (the
untimed part).  Generators use the standard library only and the package is
reached only through names that ``qtdelta`` exports, so the benchmark keeps
working while private helpers move.

Every workload cycles through a fixed list of strata (input shapes).  Each
cycle visits every stratum once, in a seeded order, and a run is a whole
number of cycles, so two seeds differ in the instances drawn but not in the
mix of shapes.  Cost depends mostly on the shape, which keeps run-to-run
spread small.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import qtdelta

HERE = os.path.dirname(os.path.abspath(__file__))


def derive(seed, *labels) -> random.Random:
    """Independent random stream for a seed and a label path."""
    key = ":".join(str(x) for x in (seed,) + labels)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _laurent(rng, s):
    """One to two parameter monomials with small nonzero rational weights."""
    out = {}
    while len(out) < rng.randint(1, 2):
        q = tuple(rng.randint(-2, 2) for _ in range(s))
        out[q] = Fraction(rng.choice([x for x in range(-5, 6) if x]),
                          rng.randint(1, 3))
    return tuple(sorted(out.items()))


def _cocycle(rng, n, s):
    return tuple(tuple(tuple(rng.randint(-2, 2) for _ in range(n))
                       for _ in range(n)) for _ in range(s))


def _module(op):
    relator = qtdelta.QTorusElement(
        op["n"], op["s"], {a: dict(c) for a, c in op["terms"]})
    return qtdelta.OneRelatorModule(relator,
                                    qtdelta.CocycleForm(op["n"], op["cocycle"]))


def _values(chi, support):
    return [sum(c * x for c, x in zip(chi, a)) for a in support]


def on_delta(chi, support):
    """Direct min-evaluation: the minimum over the support is attained at
    least twice."""
    values = _values(chi, support)
    return values.count(min(values)) >= 2


class Workload:
    """One seeded input stream plus the operation run on each input."""

    name = ""
    strata = ()
    # A run's op list is this many cycles through the strata.
    cycles = 1
    params = {}

    def __init__(self, root):
        self.root = root

    def make_op(self, seed, index):
        cycle, position = divmod(index, len(self.strata))
        order = list(range(len(self.strata)))
        derive(seed, self.name, "order", cycle).shuffle(order)
        return self.build(seed, index, self.strata[order[position]])

    def warm_up_op(self, seed):
        """The set-up probe's op: the first stratum, whatever the seed."""
        return self.build(seed, -1, self.strata[0])

    def build(self, seed, index, stratum):
        raise NotImplementedError

    def variant(self, op, r):
        """Input of repetition r: equal in cost and in result to ``op`` but
        not equal as a value, so no cache keyed on inputs can serve a
        repetition from an earlier one.  Repetition 0 is ``op`` itself."""
        return op

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result):
        """None when the result is correct, else the reason it is not."""
        raise NotImplementedError

    def warm_up(self, op):
        """Run one operation the way a fresh interpreter would."""
        return self.run(op)


def _translated(op, r):
    """Relator times the monomial x^v: every tie, hence the Delta set and
    the local-cone data, is unchanged (constraints are support
    differences)."""
    if not r:
        return op
    v = tuple(r * (k + 1) for k in range(op["n"]))
    terms = tuple((tuple(x + y for x, y in zip(a, v)), c)
                  for a, c in op["terms"])
    return dict(op, terms=terms)


class LocalCone(Workload):
    """Acceptance-style modules, many checks per module."""

    name = "local-cone"
    params = {"rank": [2, 3, 4], "s": [1, 2], "support_size": [2, 8],
              "support_box": [-3, 3], "lemma31_checks": 4,
              "sampled_cones": 2}
    strata = tuple(itertools.product((2, 3, 4), range(2, 9)))
    cycles = 6

    def build(self, seed, index, stratum):
        n, size = stratum
        rng = derive(seed, self.name, index)
        s = rng.choice([1, 2])
        support = set()
        while len(support) < size:
            support.add(tuple(rng.randint(-3, 3) for _ in range(n)))
        support = sorted(support)
        terms = tuple((a, _laurent(rng, s)) for a in support)
        off = []
        while len(off) < 4:
            chi = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                        for _ in range(n))
            if not on_delta(chi, support):
                off.append(chi)
        return {"n": n, "s": s, "terms": terms,
                "cocycle": _cocycle(rng, n, s), "off_delta": tuple(off),
                "sample_seed": index}

    variant = staticmethod(_translated)

    def run(self, op):
        module = _module(op)
        fan = qtdelta.delta_set(module)
        top = qtdelta.fan_dim(fan)
        top_cones = [i for i, c in enumerate(fan.cones) if c.dim == top]
        samples = [qtdelta.sample_delta_point(module, i, op["sample_seed"])
                   for i in top_cones[:2]]
        chars = samples + [qtdelta.Character(c)
                           for c in op["off_delta"][:4 - len(samples)]]
        lemma = [qtdelta.check_lemma31(module, chi) for chi in chars]
        dims = [qtdelta.check_dim_identity(module, chi) for chi in samples]
        return samples, lemma, dims

    def check(self, op, result):
        samples, lemma, dims = result
        support = [a for a, _ in op["terms"]]
        if not samples:
            return "Delta set has no top-dimensional cone"
        for chi in samples:
            if not on_delta(chi.coords, support):
                return f"sampled character {chi.coords} is off Delta"
        for report in lemma:
            if not report.equal:
                return f"local-cone identity fails at {report.chi.coords}"
        for report in dims:
            if not report.holds:
                return f"dimension identity fails at {report.chi.coords}"
        return None


class WideSupport(Workload):
    """One local-cone check per module on wide supports, where building the
    Delta set (one double description per support pair) dominates."""

    name = "wide-support"
    params = {"rank": [3, 4], "s": [1, 2], "support_size": [12, 16],
              "support_box": [-3, 3], "tied_points": [2, 3],
              "character_box": [-2, 2]}
    strata = tuple(itertools.product((3, 4), range(12, 17)))
    cycles = 8

    def build(self, seed, index, stratum):
        n, size = stratum
        rng = derive(seed, self.name, index)
        s = rng.choice([1, 2])
        tied = rng.choice([2, 3])
        box = list(itertools.product(range(-3, 4), repeat=n))
        while True:
            chi = tuple(rng.randint(-2, 2) for _ in range(n))
            if not any(chi):
                continue
            level = sum(c * x for c, x in zip(chi, rng.choice(box)))
            values = _values(chi, box)
            lowest = [p for p, v in zip(box, values) if v == level]
            above = [p for p, v in zip(box, values) if v > level]
            if len(lowest) >= tied and len(above) >= size - tied:
                break
        support = sorted(rng.sample(lowest, tied)
                         + rng.sample(above, size - tied))
        terms = tuple((a, _laurent(rng, s)) for a in support)
        return {"n": n, "s": s, "terms": terms,
                "cocycle": _cocycle(rng, n, s), "chi": chi, "tied": tied}

    variant = staticmethod(_translated)

    def run(self, op):
        return qtdelta.check_lemma31(_module(op), qtdelta.Character(op["chi"]))

    def check(self, op, result):
        support = [a for a, _ in op["terms"]]
        values = _values(op["chi"], support)
        if values.count(min(values)) != op["tied"]:
            return "planted character does not tie the planted points"
        if result.lhs.is_empty:
            return f"empty local cone at the planted character {op['chi']}"
        if not result.equal:
            return f"local-cone identity fails at {op['chi']}"
        return None


def _unimodular(rng, n, adds):
    """Random unimodular G and its inverse: exactly ``adds`` row additions
    (the only elementary operations that grow entries, so their count
    fixes the cost), then a random signed row permutation."""
    G = [[int(i == j) for j in range(n)] for i in range(n)]
    Gi = [row[:] for row in G]
    for _ in range(adds):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        G[j] = [a + c * b for a, b in zip(G[j], G[i])]
        for row in Gi:
            row[i] -= c * row[j]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice([-1, 1]) for _ in range(n)]
    G = [[signs[k] * x for x in G[perm[k]]] for k in range(n)]
    Gi = [[signs[k] * row[perm[k]] for k in range(n)] for row in Gi]
    return G, Gi


def _line_key(w):
    """Primitive representative of the line through w, first entry > 0."""
    g = 0
    for x in w:
        g = math.gcd(g, x)
    key = tuple(x // g for x in w)
    return key if next(x for x in key if x) > 0 else tuple(-x for x in key)


def _lines(rng, t, s):
    """t image lines in Z^s, pairwise distinct up to scaling."""
    lines, keys = [], set()
    while len(lines) < t:
        w = tuple(rng.randint(-2, 2) for _ in range(s))
        if not any(w):
            continue
        key = _line_key(w)
        if key not in keys:
            keys.add(key)
            lines.append(w)
    return lines


def _symbase_strata():
    """Every block-dimension multiset with every line count s and central
    dimension (s = 1 allows a single block only: Z^1 has one line up to
    scaling)."""
    return tuple(
        (dims, s, central)
        for t in (1, 2, 3)
        for dims in itertools.combinations_with_replacement((2, 4), t)
        for s in ((1, 2, 3) if t == 1 else (2, 3))
        for central in (0, 1, 2))


class Symbase(Workload):
    """Conjugated block forms: base search, verification, abelian split."""

    name = "symbase"
    params = {"blocks": [1, 3], "block_dims": [2, 4], "s": [1, 3],
              "central": [0, 2], "line_box": [-2, 2], "row_additions": 4,
              "lagrangians": 2, "retries": 8}
    strata = _symbase_strata()

    def build(self, seed, index, stratum):
        dims, s, central = stratum
        rng = derive(seed, self.name, index)
        dims = list(dims)
        rng.shuffle(dims)
        lines = _lines(rng, len(dims), s)
        n = sum(dims) + central
        G, Gi = _unimodular(rng, n, self.params["row_additions"])
        forms = []
        for k in range(s):
            J = [[0] * n for _ in range(n)]
            off = 0
            for d, w in zip(dims, lines):
                h = d // 2
                for i in range(h):
                    J[off + i][off + h + i] = w[k]
                    J[off + h + i][off + i] = -w[k]
                off += d
            GtJ = [[sum(G[a][i] * J[a][b] for a in range(n))
                    for b in range(n)] for i in range(n)]
            forms.append(tuple(tuple(sum(GtJ[i][b] * G[b][j]
                                         for b in range(n))
                                     for j in range(n)) for i in range(n)))
        columns = [tuple(Gi[r][c] for r in range(n)) for c in range(n)]
        blocks, off = [], 0
        for d in dims:
            blocks.append(tuple(columns[off:off + d]))
            off += d
        lagrangians = []
        if central == 0:
            for _ in range(self.params["lagrangians"]):
                rows, off = [], 0
                for d in dims:
                    h = d // 2
                    sym = [[0] * h for _ in range(h)]
                    for i in range(h):
                        for j in range(i, h):
                            sym[i][j] = sym[j][i] = rng.randint(-2, 2)
                    for i in range(h):
                        vec = [0] * n
                        vec[off + i] = 1
                        for j in range(h):
                            vec[off + h + j] = sym[i][j]
                        rows.append(tuple(sum(Gi[r][c] * vec[c]
                                              for c in range(n))
                                          for r in range(n)))
                    off += d
                lagrangians.append(tuple(rows))
        return {"n": n, "s": s, "forms": tuple(forms), "dims": tuple(dims),
                "blocks": tuple(blocks), "centre": tuple(columns[off:]),
                "lagrangians": tuple(lagrangians),
                "search_seed": rng.randrange(1 << 30)}

    def variant(self, op, r):
        """The same form with the sign of coordinate r - 1 (mod n) flipped
        (a two-dimensional form has only two sign patterns)."""
        if not r:
            return op
        d = [-1 if i == (r - 1) % op["n"] else 1 for i in range(op["n"])]

        def flip(vectors):
            return tuple(tuple(x * e for x, e in zip(v, d)) for v in vectors)

        forms = tuple(tuple(tuple(m[i][j] * d[i] * d[j]
                                  for j in range(op["n"]))
                            for i in range(op["n"])) for m in op["forms"])
        return dict(op, forms=forms, centre=flip(op["centre"]),
                    blocks=tuple(flip(b) for b in op["blocks"]),
                    lagrangians=tuple(flip(u) for u in op["lagrangians"]))

    def run(self, op):
        n = op["n"]
        phi = qtdelta.AlternatingMapQ(n, op["s"], op["forms"])
        base = qtdelta.compute_symplectic_base(
            phi, seed=op["search_seed"], retries=self.params["retries"])
        if isinstance(base, qtdelta.NoBaseFound):
            return base, None, []
        report = qtdelta.verify_symplectic_base(phi, base)
        splits = []
        for rows in op["lagrangians"]:
            space = qtdelta.Subspace.from_rows(n, rows)
            splits.append((space, qtdelta.decompose_abelian(phi, base, space)))
        return base, report, splits

    def check(self, op, result):
        base, report, splits = result
        n = op["n"]
        if isinstance(base, qtdelta.NoBaseFound):
            return f"no base found: {base.reason}"
        if not report.passed:
            return f"base fails verification: {report.to_json()}"
        centre = qtdelta.Subspace.from_rows(n, op["centre"])
        if base.V0 != centre:
            return "radical differs from the planted centre"

        def spans(blocks):
            return sorted(qtdelta.Subspace.from_rows(
                n, list(centre.basis) + list(b)).basis for b in blocks)

        if spans(b.basis for b in base.blocks) != spans(op["blocks"]):
            return "recovered blocks differ from the planted blocks"
        if len(splits) != len(op["lagrangians"]):
            return "abelian split skipped"
        for space, parts in splits:
            if (sum(p.dim for p in parts) != space.dim
                    or 2 * space.dim != n
                    or any(2 * p.dim != b.dim
                           for p, b in zip(parts, base.blocks))):
                return "abelian split has wrong dimensions"
            joined = [row for p in parts for row in p.basis]
            if qtdelta.Subspace.from_rows(n, joined) != space:
                return "abelian split does not span the subspace"
        return None


CLI_CASES = os.path.join(HERE, "cli_cases.json")


def load_cli_cases():
    with open(CLI_CASES, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CliCold(Workload):
    """One fresh ``python -m qtdelta.cli`` process per operation."""

    name = "cli-cold"
    params = {"cases": "cli_cases.json (acceptance criterion 10 payloads)",
              "order": "seeded permutation of the 15 subcommands per cycle"}
    cycles = 6

    def __init__(self, root):
        super().__init__(root)
        self.env = child_env(root)
        self.cases = load_cli_cases()
        self.strata = tuple(range(len(self.cases)))

    def build(self, seed, index, stratum):
        return self.cases[stratum]

    def run(self, op, importtime=False):
        argv = ([sys.executable] + (["-X", "importtime"] if importtime else [])
                + ["-m", "qtdelta.cli", op["command"]] + op["flags"])
        proc = subprocess.run(argv, input=json.dumps(op["payload"]).encode(),
                              capture_output=True, cwd=self.root,
                              env=self.env, timeout=120, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def warm_up(self, op):
        from qtdelta import cli
        out = io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(op["payload"]))
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main([op["command"]] + op["flags"])
        finally:
            sys.stdin = stdin
        return code, out.getvalue().encode("utf-8"), b""

    def check(self, op, result):
        code, stdout, _ = result
        if code != op["exit"]:
            return f"{op['command']} exited {code}, expected {op['exit']}"
        if hashlib.sha256(stdout).hexdigest() != op["stdout_sha256"]:
            return f"{op['command']} stdout differs from the stored digest"
        return None


WORKLOADS = {w.name: w for w in (LocalCone, WideSupport, Symbase, CliCold)}


def input_digest(ops):
    """SHA-256 of the canonical text of the generated inputs."""
    h = hashlib.sha256()
    for op in ops:
        h.update(repr(sorted(op.items())).encode("utf-8"))
    return h.hexdigest()
