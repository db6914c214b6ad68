"""Seeded inputs, timed operations and reference checks for each workload.

Inputs are made from the workload seed alone; the program under test only
receives the generated graphs, matrices and input files. Every reply is
checked after the timed region, against references computed here: edge-list
recounts, and eigenvalue counts from numpy `eigvalsh` that are accepted only
when a gap separates the cluster from the rest of the spectrum (otherwise an
exact rank over the rationals decides).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# (instances, checks) that the connected campaign must report per cap
SWEEP_EXPECTED = {4: (43, 351), 6: (27475, 71301)}
SWEEP_CAP, SWEEP_CAP_TINY = 6, 4

# Inputs are generated, measured and checked CHUNK items at a time; the
# input digest covers the first chunk. A tiny run measures TINY_ITEMS items.
CHUNK = 200
TINY_ITEMS = 24

# The query mix is drawn from shuffled decks rather than independent coin
# flips, so that every seed sends nearly the same share of each request
# class (kind x matrix type), graph size and transport: the seed changes the
# instances, not the cost profile, which keeps runs on different seeds
# comparable.
QUERY_KINDS = ("report", "spectrum", "mult", "classify", "interlace")
QUERY_CLASSES = tuple((kind, weighted) for kind in QUERY_KINDS for weighted in (False, True))
QUERY_SIZES = tuple(range(10, 17))
QUERY_BLOCK = (True, True, False, False, False)  # two in five requests are re-asked
QUERY_CLI = (True, False, False, False)  # one in four CLI-capable requests uses cli.main

# eigvalsh counts: within HIT*scale is the eigenvalue, a value between
# HIT*scale and GAP*scale is too close to call numerically
HIT, GAP = 1e-9, 1e-5


def program():
    """Import the program under test (from the checkout's src/)."""
    import specmult
    import specmult.cli
    import specmult.oracle

    return specmult


# ---------------------------------------------------------------------------
# Seeded generation


def connected_pattern(rng: random.Random, n: int, max_chords: int) -> list[tuple[int, int]]:
    """Edges of a random spanning tree (Pruefer code) plus 0..max_chords chords."""
    if n == 1:
        return []
    if n == 2:
        edges = {(0, 1)}
    else:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = set()
        for x in seq:
            leaf = min(v for v in range(n) if degree[v] == 1)
            edges.add((min(leaf, x), max(leaf, x)))
            degree[leaf] -= 1
            degree[x] -= 1
        u, v = [w for w in range(n) if degree[w] == 1]
        edges.add((u, v))
    chords = rng.randint(0, max_chords)
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    rng.shuffle(free)
    edges.update(free[:chords])
    return sorted(edges)


class Deck:
    """Draws items in a random order, each once, then reshuffles."""

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def _canon_matrix(b) -> str:
    """Diagonal and edge entries; every other entry of a matrix in S(G) is 0."""
    e = b.entries
    return f"{[e[i][i].re for i in range(b.n)]}{[e[u][v] for u, v in b.pattern.edges]}"


def _canon_graph(g) -> str:
    return f"{g.n}:{list(g.edges)}"


def _degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _bound_from_edges(n: int, edges) -> int:
    return 2 * (len(edges) - n + 1) + _degrees(n, edges).count(1)


# ---------------------------------------------------------------------------
# References


def numeric(b) -> np.ndarray:
    return np.array(
        [[complex(float(e.re), float(e.im)) for e in row] for row in b.entries], dtype=complex
    )


def _exact_count(b_rows, lam: Fraction) -> int:
    """Multiplicity of lam by exact rank of the real symmetric 2n x 2n form
    [[A, -C], [C, A]] of B = A + iC, whose eigenvalues are B's, doubled."""
    n = len(b_rows)
    re = [[Fraction(e[0]) for e in row] for row in b_rows]
    im = [[Fraction(e[1]) for e in row] for row in b_rows]
    rows = []
    for i in range(n):
        rows.append(re[i] + [-x for x in im[i]])
    for i in range(n):
        rows.append(im[i] + re[i])
    for i in range(2 * n):
        rows[i][i] -= lam
    rank = 0
    for col in range(2 * n):
        piv = next((r for r in range(rank, 2 * n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, 2 * n):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return (2 * n - rank) // 2


class Reference:
    """Eigenvalue counts of one exact matrix and of its variants."""

    def __init__(self, b):
        self.rows = [[(e.re, e.im) for e in row] for row in b.entries]
        self.mat = numeric(b)
        self._spectra: dict = {}

    def _variant(self, key):
        if key == ():
            return self.mat, self.rows
        if key[0] == "minus":  # ("minus", v): vertex v deleted
            keep = [i for i in range(len(self.rows)) if i != key[1]]
            return self.mat[np.ix_(keep, keep)], [[self.rows[i][j] for j in keep] for i in keep]
        _, u, v = key  # ("zero", u, v): edge uv set to zero
        m = self.mat.copy()
        m[u, v] = m[v, u] = 0
        rows = [list(r) for r in self.rows]
        rows[u][v] = rows[v][u] = (Fraction(0), Fraction(0))
        return m, rows

    def spectrum(self, key=()) -> np.ndarray:
        if key not in self._spectra:
            self._spectra[key] = np.linalg.eigvalsh(self._variant(key)[0])
        return self._spectra[key]

    def count(self, lam: Fraction, key=()) -> int:
        ev = self.spectrum(key)
        if ev.size == 0:
            return 0
        scale = max(1.0, float(np.max(np.abs(ev))))
        dist = np.abs(ev - float(lam))
        if np.any((dist > HIT * scale) & (dist < GAP * scale)):
            return _exact_count(self._variant(key)[1], Fraction(lam))
        return int(np.count_nonzero(dist <= HIT * scale))


# ---------------------------------------------------------------------------
# Measurement


class Failures:
    """Failed operations, with the first few explanations kept for the record."""

    def __init__(self):
        self.count = 0
        self.notes: list[str] = []

    def add(self, what: str) -> None:
        self.count += 1
        if len(self.notes) < 5:
            self.notes.append(what)


@dataclass
class Measurement:
    items: int  # instances or requests completed
    wall_s: float  # time inside the timed slices
    latencies_s: list
    starts_s: list  # perf_counter time at which each timed call began
    attempted: int  # operations checked
    failures: Failures


@dataclass
class _Raised:
    trace: str


def _timed_call(fn, *args):
    try:
        return fn(*args)
    except Exception:  # counted as a failed operation by the checks
        return _Raised(traceback.format_exc(limit=3))


def _in_root(tracer, body):
    """body(), as the root span when tracing, with the layer wrappers
    installed only meanwhile."""
    if tracer is None:
        return body()
    tracer.install()
    try:
        return tracer.run_root(body)
    finally:
        tracer.uninstall()


class StreamWorkload:
    """A closed loop with one client: each call is sent after the previous
    reply arrived.

    Inputs are generated, measured and checked a chunk at a time. Generation
    and checks run between the timed slices (with tracing off), never inside
    one, so set-up does not grow with --seconds and the memory held for
    checking stays bounded.
    """

    name = ""
    per_item = 1  # timed calls per instance or request

    def setup(self, seed: int, tiny: bool, workdir: str) -> None:
        self.sm = program()
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.rng = random.Random(f"{self.name}/{seed}")
        self.tiny = tiny
        self._prepare()
        self.first = self.generate(TINY_ITEMS if tiny else CHUNK)
        self.digest = hashlib.sha256("".join(map(self.canon, self.first)).encode()).hexdigest()
        self._warm_up()

    def run(self, seconds: float, max_items, tracer, probe) -> Measurement:
        """Measure for `seconds` of timed slices, or exactly `max_items` items.

        Time the speed probe spends in its handler is taken out of every
        slice and every latency."""
        if max_items is None and self.tiny:
            max_items = TINY_ITEMS
        lat: list = []
        starts: list = []
        fails = Failures()
        measured, done, attempted = 0.0, 0, 0
        chunk = self.first
        while True:
            replies: list = []
            budget = seconds - measured
            left = None if max_items is None else max_items - done
            measured += _in_root(tracer, lambda: self._slice(chunk, lat, starts, replies, budget, left, probe))
            took = len(replies) // self.per_item
            self.check(chunk[:took], replies, fails)
            attempted += len(replies)
            done += took
            self.discard(chunk)
            if took < len(chunk) or done == max_items or (max_items is None and measured >= seconds):
                return Measurement(done, measured, lat, starts, attempted, fails)
            chunk = self.generate(CHUNK)

    def _slice(self, chunk, lat: list, starts: list, replies: list, budget: float, left, probe) -> float:
        clock = time.perf_counter
        call = self.call
        # clock before probe.spent at a start and after it at an end: a
        # handler that runs in between then adds to the time, never subtracts
        start, spent = clock(), probe.spent
        for i, item in enumerate(chunk):
            if (i >= left) if left is not None else (clock() - start - probe.spent + spent >= budget):
                break
            for k in range(self.per_item):
                t0 = clock()
                s0 = probe.spent
                r = _timed_call(call, item, k)
                s1 = probe.spent
                lat.append(clock() - t0 - (s1 - s0))
                starts.append(t0)
                replies.append(r)
        end_spent = probe.spent
        return clock() - start - (end_spent - spent)

    def _prepare(self) -> None:
        pass

    def _warm_up(self) -> None:
        pass

    def discard(self, chunk) -> None:
        pass

    def cleanup(self) -> None:
        import shutil

        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# sweep-connected


class SweepConnected:
    """run_campaign(CampaignConfig("connected", cap=6)) in a fresh interpreter."""

    name = "sweep-connected"

    def setup(self, seed: int, tiny: bool, workdir: str) -> None:
        self.sm = program()
        self.cap = SWEEP_CAP_TINY if tiny else SWEEP_CAP
        self.digest = hashlib.sha256(f"connected cap={self.cap}".encode()).hexdigest()

    def run(self, seconds: float, max_items, tracer, probe) -> Measurement:
        cfg = self.sm.CampaignConfig("connected", cap=self.cap)
        result = []

        def body():
            t0 = time.perf_counter()
            s0 = probe.spent
            result.append(_timed_call(self.sm.run_campaign, cfg))
            s1 = probe.spent
            return time.perf_counter() - t0 - (s1 - s0)

        start = time.perf_counter()
        wall = _in_root(tracer, body)
        instances = SWEEP_EXPECTED[self.cap][0]
        return Measurement(instances, wall, [wall], [start], instances, self.check(result[0]))

    def check(self, result) -> Failures:
        fails = Failures()
        instances, checks = SWEEP_EXPECTED[self.cap]
        if isinstance(result, _Raised):
            fails.count = instances
            fails.notes.append(result.trace)
            return fails
        summary, discrepancies = result
        if (summary["instances"], summary["checks"]) != (instances, checks) or not summary["complete"]:
            fails.count = instances
            fails.notes.append(
                f"campaign reported {summary['instances']} instances and {summary['checks']} "
                f"checks, expected {instances} and {checks}"
            )
            return fails
        for key in sorted({d.key for d in discrepancies}):
            fails.add(f"discrepancy on {key}")
        return fails

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# verify-weighted


@dataclass
class WeightedInstance:
    g: object
    b: object
    probes: tuple  # rational probes for check_upper_bound
    lam: Fraction  # probe used by the two interlacing checks
    vertex: int
    edge: tuple
    relations: tuple  # the two RelationProbe objects, built with the input


class VerifyWeighted(StreamWorkload):
    """Random exact matrices in S(G): bound at three probes, then interlacing."""

    name = "verify-weighted"
    per_item = 5

    def _prepare(self) -> None:
        self.sizes = Deck(self.rng, range(2, 11))

    def generate(self, count: int) -> list:
        sm, rng = self.sm, self.rng
        out = []
        for _ in range(count):
            n = self.sizes.draw()
            edges = connected_pattern(rng, n, 3)
            g = sm.Graph(n, edges)
            b = sm.random_in_S(g, rng.randrange(1 << 30))
            probes = (Fraction(0), Fraction(1), b.entries[0][0].re)
            lam = probes[rng.randrange(3)]
            vertex = rng.randrange(n)
            edge = edges[rng.randrange(len(edges))]
            rel = (
                sm.RelationProbe("interlace-v", vertex=vertex),
                sm.RelationProbe("interlace-e", edge=edge),
            )
            out.append(WeightedInstance(g, b, probes, lam, vertex, edge, rel))
        return out

    @staticmethod
    def canon(inst: WeightedInstance) -> str:
        g, b = inst.g, inst.b
        return f"{_canon_graph(g)}#{_canon_matrix(b)}#{inst.probes}#{inst.lam}#{inst.vertex}#{inst.edge}\n"

    def call(self, inst: WeightedInstance, k: int) -> tuple:
        sm = self.sm
        if k < 3:
            r = sm.check_upper_bound(inst.g, inst.b, inst.probes[k])
        else:
            r = sm.lemma_relation_checks(inst.g, inst.b, inst.lam, inst.relations[k - 3])
        return r.holds, r.lhs, r.rhs

    def check(self, chunk: list, replies: list, fails: Failures) -> None:
        for i, inst in enumerate(chunk):
            ref = Reference(inst.b)
            bound = _bound_from_edges(inst.g.n, inst.g.edges)
            m = ref.count(inst.lam)
            expected = [(ref.count(lam), bound) for lam in inst.probes] + [
                (m, ref.count(inst.lam, ("minus", inst.vertex))),
                (m, ref.count(inst.lam, ("zero", *inst.edge))),
            ]
            for k, want in enumerate(expected):
                r = replies[i * self.per_item + k]
                if isinstance(r, _Raised):
                    fails.add(f"call {k} on {self.canon(inst)} raised: {r.trace}")
                elif r != (True, *want):
                    fails.add(f"call {k} on {self.canon(inst)}: holds, lhs, rhs {r}, expected {want}")


# ---------------------------------------------------------------------------
# query-stream


@dataclass
class QueryInstance:
    ident: int
    g: object
    b: object
    weighted: bool
    eig: Fraction  # a known eigenvalue: twin pendants with equal diagonal entries
    files: tuple = ()  # (graph file, matrix file or None) once written


@dataclass
class Request:
    kind: str
    inst: QueryInstance
    lam: Fraction = Fraction(0)
    vertex: int = 0
    probe: object = None
    cli: bool = False  # sent through cli.main with argv instead of the library
    argv: tuple = ()
    popular: bool = False


class QueryStream(StreamWorkload):
    """Closed loop of mixed library and CLI requests, two in five repeated."""

    name = "query-stream"

    def _prepare(self) -> None:
        rng = self.rng
        self.made = 0
        self.sizes = Deck(rng, QUERY_SIZES)
        self.transports = Deck(rng, QUERY_CLI)
        self.classes = Deck(rng, QUERY_CLASSES)
        self.repeats = Deck(rng, QUERY_BLOCK)
        # the popular pool holds every request class at every graph size
        # once: 2 in 5 requests come from it, so a pool drawn at random would
        # make each seed's latency quantiles hinge on a few dozen instances
        popular = [self._request(cls, n) for cls in QUERY_CLASSES for n in QUERY_SIZES]
        for req in popular:
            req.popular = True
        self.popular = Deck(rng, popular)

    def generate(self, count: int) -> list:
        return [
            self.popular.draw() if self.repeats.draw() else self._fresh_request()
            for _ in range(count)
        ]

    def _fresh_request(self) -> Request:
        return self._request(self.classes.draw(), self.sizes.draw())

    def _request(self, cls: tuple, n: int) -> Request:
        sm, rng = self.sm, self.rng
        kind, weighted = cls
        core = connected_pattern(rng, n - 2, 3)
        hub = rng.randrange(n - 2)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in core + [(hub, n - 2), (hub, n - 1)]]
        g = sm.Graph(n, edges)
        t1, t2 = perm[n - 2], perm[n - 1]
        if weighted:
            rows = [list(r) for r in sm.random_in_S(g, rng.randrange(1 << 30)).entries]
            rows[t2][t2] = rows[t1][t1]
            b = sm.HermitianMatrix(n, tuple(tuple(r) for r in rows), g, "exact")
            eig = rows[t1][t1].re
        else:
            b = sm.adjacency_matrix(g)
            eig = Fraction(0)
        inst = QueryInstance(self.made, g, b, weighted, eig)
        self.made += 1
        req = Request(kind, inst)
        if kind == "mult":
            req.lam = eig if rng.random() < 0.5 else rng.choice(
                (Fraction(0), Fraction(1), Fraction(-1), b.entries[0][0].re)
            )
        elif kind == "classify":
            req.lam = eig
        elif kind == "interlace":
            req.lam = rng.choice((eig, Fraction(0), Fraction(1)))
            req.vertex = rng.randrange(n)
            req.probe = sm.RelationProbe("interlace-v", vertex=req.vertex)
        if kind != "spectrum" and self.transports.draw():
            req.cli = True
            inst.files = self._write_files(inst)
            req.argv = self._argv(req)
        return req

    @staticmethod
    def canon(req: Request) -> str:
        inst = req.inst
        return (
            f"{req.kind}#{req.cli}#{req.lam}#{req.vertex}#"
            f"{_canon_graph(inst.g)}#{_canon_matrix(inst.b)}\n"
        )

    def _write_files(self, inst: QueryInstance) -> tuple:
        gpath = os.path.join(self.workdir, f"g{inst.ident}.graph")
        with open(gpath, "w", encoding="utf-8") as fh:
            fh.write(f"{inst.g.n} {len(inst.g.edges)}\n")
            fh.writelines(f"{u} {v}\n" for u, v in inst.g.edges)
        if not inst.weighted:
            return gpath, None
        mpath = os.path.join(self.workdir, f"m{inst.ident}.mat")
        with open(mpath, "w", encoding="utf-8") as fh:
            fh.write(f"{inst.g.n}\n")
            for row in inst.b.entries:
                fh.write(
                    " ".join(
                        f"{e.re}{'+' if e.im >= 0 else '-'}{abs(e.im)}i" if e.im else f"{e.re}"
                        for e in row
                    )
                    + "\n"
                )
        return gpath, mpath

    def discard(self, chunk) -> None:
        """Remove the input files of the chunk's fresh requests."""
        for req in chunk:
            if req.cli and not req.popular:
                for path in req.inst.files:
                    if path:
                        os.remove(path)

    @staticmethod
    def _argv(req: Request) -> tuple:
        gpath, mpath = req.inst.files
        common = ["--graph", gpath] + (["--matrix", mpath] if mpath else [])
        if req.kind == "report":
            return ("analyze", "--graph", gpath, "--json")
        lam = [f"--lambda={req.lam}", "--json"]
        if req.kind == "mult":
            return tuple(["mult"] + common + lam)
        if req.kind == "classify":
            return tuple(["classify"] + common + lam)
        return tuple(["check", "--relation", "interlace-v", "--vertex", str(req.vertex)] + common + lam)

    def _warm_up(self) -> None:
        """Finish lazy imports (sympy) and first-call set-up before timing."""
        sm = self.sm
        g = sm.Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        a = sm.adjacency_matrix(g)
        sm.structure_report(g)
        sm.oracle.certified_spectrum(a)
        sm.conclusion_classifier(g, a, Fraction(0))
        sm.lemma_relation_checks(g, a, Fraction(0), sm.RelationProbe("interlace-v", vertex=0))
        path = os.path.join(self.workdir, "warmup.graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("4 4\n0 1\n1 2\n2 3\n3 0\n")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            sm.cli.main(["mult", "--graph", path, "--lambda=0", "--json"])

    def call(self, req: Request, _k: int):
        if req.cli:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.sm.cli.main(list(req.argv))
            return code, out.getvalue(), err.getvalue()
        return self._library_call(req)

    def _library_call(self, req: Request):
        sm = self.sm
        inst = req.inst
        kind = req.kind
        if kind == "report":
            return sm.structure_report(inst.g)
        if kind == "spectrum":
            return sm.oracle.certified_spectrum(inst.b)
        if kind == "mult":
            return sm.multiplicity(inst.b, req.lam)
        if kind == "classify":
            return sm.conclusion_classifier(inst.g, inst.b, req.lam)
        return sm.lemma_relation_checks(inst.g, inst.b, req.lam, req.probe)

    def _check_reply(self, req: Request, r, ref: Reference) -> bool:
        inst = req.inst
        n, edges = inst.g.n, inst.g.edges
        bound = _bound_from_edges(n, edges)
        if req.kind == "report":
            p = _degrees(n, edges).count(1)
            return (r["n"], r["m"], r["theta"], r["p"]) == (n, len(edges), len(edges) - n + 1, p)
        if req.kind == "spectrum":
            approx = sorted(c.approx for c in r for _ in range(c.multiplicity))
            ev = ref.spectrum()
            scale = max(1.0, float(np.max(np.abs(ev))))
            return len(approx) == n and bool(np.all(np.abs(np.array(approx) - ev) <= 1e-6 * scale))
        m = ref.count(req.lam)
        if req.kind == "mult":
            return r.multiplicity == m
        if req.kind == "classify":
            ev = r.evidence
            if m == bound:
                verdict_ok = r.verdict == "AttainsBound"
            elif m == bound - 1:
                verdict_ok = r.verdict.startswith("OneDeficient")
            else:
                verdict_ok = r.verdict == "TwoPlusDeficient"
            return ev["consistent"] is True and ev["multiplicity"] == m and ev["bound"] == bound and verdict_ok
        md = ref.count(req.lam, ("minus", req.vertex))
        return r.holds and (r.lhs, r.rhs) == (m, md)

    def check(self, chunk: list, replies: list, fails: Failures) -> None:
        refs: dict[int, Reference] = {}
        library: dict[int, tuple] = {}
        for req, r in zip(chunk, replies):
            inst = req.inst
            if isinstance(r, _Raised):
                fails.add(f"{req.kind} request raised: {r.trace}")
                continue
            if req.cli:
                code, out, err = r
                if id(req) not in library:
                    lib = self._library_call(req)
                    library[id(req)] = lib, json.loads(
                        json.dumps(lib if req.kind == "report" else lib.as_json())
                    )
                lib, lib_json = library[id(req)]
                try:
                    ok = code == 0 and not err and json.loads(out) == lib_json
                except json.JSONDecodeError:
                    ok = False
                if not ok:
                    fails.add(f"CLI {req.argv} replied {code} {out[:200]!r} {err[:200]!r}")
                    continue
                r = lib
            if inst.ident not in refs:
                refs[inst.ident] = Reference(inst.b)
            if not self._check_reply(req, r, refs[inst.ident]):
                fails.add(f"{req.kind} request (lambda {req.lam}) wrong: {str(r)[:300]}")


WORKLOADS = {w.name: w for w in (SweepConnected, VerifyWeighted, QueryStream)}
