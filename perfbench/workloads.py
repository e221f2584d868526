"""The three workloads: inputs from a seed, one timed round, output checks.

Each workload is a closed loop with one client: the next request is sent
when the previous one has returned. A round is a fixed batch of requests
built from the seed before timing starts, and every round of a run repeats
the same batch, so the package does the same work each round and the
traced counts repeat exactly.

* census-n7: one request is ``oddcross census -n 7`` run in-process
  through ``oddcross.cli.main``, writing its CSV to a file.
* enumerate-n9: one request streams N schemes of one first-axis subtree
  with ``enumerate_schemes`` and writes each as ``emit_scheme_text``.
* verify-mixed: one request is one scheme (canonical text plus two integer
  vectors, n in {5, 7, 9}) taken through parse, tensor build,
  classification, closure, witness search and the three X_AB routes.

Package functions are looked up on their modules at call time, so the
wrappers that the traced run installs see every call.

Checks run outside the timed region and use ``oracle``, never the package.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import random
import time
from typing import NamedTuple

import oracle

ENUM_N = 9
ENUM_LIMIT = 30_000
VERIFY_PER_DIM = 600  # requests per n in {5, 7, 9}; the pinned rows come on top
VECTOR_RANGE = 3


class Result(NamedTuple):
    """What one round produced; ``data`` is compared across rounds."""

    data: object
    ops: int
    latencies: list


class Workload:
    name = ""
    dims: tuple = ()

    def __init__(self, seed: int, out_dir: str):
        self.rng = random.Random(seed)

    def run_round(self, tracer) -> Result:
        raise NotImplementedError

    def check(self, data) -> tuple[int, list[str]]:
        """(failed operations, problems) for one round's output."""
        raise NotImplementedError

    def cleanup(self):
        pass


class CensusN7(Workload):
    name = "census-n7"
    dims = (7,)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.census_seed = self.rng.randrange(2**31)
        self.path = os.path.join(out_dir, f"census-n7-{os.getpid()}.csv")

    def run_round(self, tracer):
        import oddcross.cli

        argv = ["census", "-n", "7", "--seed", str(self.census_seed), "-o", self.path]
        with tracer.request_span(0):
            t0 = time.perf_counter()
            status = oddcross.cli.main(argv)
            elapsed = time.perf_counter() - t0
        with open(self.path, "rb") as fh:
            data = (status, fh.read())
        return Result(data, data[1].count(b"\n") - 1, [elapsed])

    def check(self, data):
        status, raw = data
        problems = []
        if status != 0:
            problems.append(f"census exited with {status}")
        rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
        if rows[:1] != [["scheme_id", "closed", "orthogonality_zero", "xab_zero", "witness"]]:
            problems.append(f"bad CSV header {rows[:1]}")
        rows = rows[1:]
        expected = list(oracle.branches(7))
        if len(rows) != len(expected):
            problems.append(f"{len(rows)} rows, expected {len(expected)}")
        failed = 0
        totals = [0, 0, 0]
        for row, branch in zip(rows, expected):
            scheme = oracle.scheme_of(7, branch)
            flags = [field == "true" for field in row[1:4]]
            totals = [t + f for t, f in zip(totals, flags)]
            ok = (
                len(row) == 5
                and flags == [oracle.closed(scheme), oracle.totally_antisymmetric(scheme), oracle.is_pinned(scheme)]
            )
            if ok and not flags[2]:
                ok = _witness_ok(scheme, row[4])
            if not ok:
                failed += 1
                if failed <= 3:
                    problems.append(f"row {row[0]} wrong: {row}")
        ids = [row[0] for row in rows]
        if ids != [str(i) for i in range(1, len(rows) + 1)]:
            problems.append("scheme ids are not 1..N in order")
        if [len(rows)] + totals != [6240, 30, 30, 2]:
            problems.append(f"counts {[len(rows)] + totals}, expected [6240, 30, 30, 2]")
        return failed, problems

    def cleanup(self):
        _remove(self.path)


def _witness_ok(scheme, text: str) -> bool:
    """A witness 'a1,..,an;b1,..,bn' on which X_AB is nonzero."""
    try:
        a_text, b_text = text.split(";")
        a = [int(x) for x in a_text.split(",")]
        b = [int(x) for x in b_text.split(",")]
    except ValueError:
        return False
    n = len(scheme)
    return len(a) == n and len(b) == n and oracle.xab(scheme, a, b) != 0


class EnumerateN9(Workload):
    name = "enumerate-n9"
    dims = (ENUM_N,)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        # The 105 first-axis subtrees are isomorphic, so every choice does
        # the same amount of work.
        self.first = self.rng.randrange(len(oracle.matchings(ENUM_N, 1)))
        self.path = os.path.join(out_dir, f"enumerate-n9-{os.getpid()}.txt")

    def run_round(self, tracer):
        import oddcross

        with tracer.request_span(0):
            t0 = time.perf_counter()
            dim = oddcross.schemes.feasible_dimension(ENUM_N)
            count = 0
            with open(self.path, "w", encoding="utf-8") as out:
                for scheme in oddcross.schemes.enumerate_schemes(
                    dim, prefix=(self.first,), limit=ENUM_LIMIT
                ):
                    if count:
                        out.write("\n")
                    out.write(oddcross.textio.emit_scheme_text(scheme))
                    count += 1
            elapsed = time.perf_counter() - t0
        with open(self.path, "rb") as fh:
            data = fh.read()
        return Result(data, count, [elapsed])

    def check(self, data):
        import oddcross

        problems = []
        texts = [t + "\n" for t in data.decode("utf-8").rstrip("\n").split("\n\n")] if data else []
        if len(texts) != ENUM_LIMIT:
            problems.append(f"{len(texts)} schemes, expected {ENUM_LIMIT}")
        expected = itertools.islice(oracle.branches(ENUM_N, first=self.first), ENUM_LIMIT)
        failed = 0
        previous = None
        for text, want in zip(texts, expected):
            try:
                scheme = oracle.parse_canonical(text)
                branch = oracle.branch_of(scheme) if oracle.is_scheme(scheme) else None
            except (ValueError, KeyError):
                branch = None
            ok = (
                branch is not None
                and (previous is None or branch > previous)
                and branch == want
                and oracle.canonical_text(scheme) == text
            )
            if not ok:
                failed += 1
                if failed <= 3:
                    problems.append(f"scheme {branch} wrong, expected {want}")
            previous = branch or previous
        # Round trip through the package's parser on a sample.
        sample = random.Random(self.first).sample(range(len(texts)), min(50, len(texts)))
        for i in sample:
            back = oddcross.textio.emit_scheme_text(oddcross.textio.parse_scheme_text(texts[i]))
            if back != texts[i]:
                failed += 1
                problems.append(f"scheme {i + 1} does not survive a parse round trip")
        return failed, problems

    def cleanup(self):
        _remove(self.path)


class VerifyMixed(Workload):
    name = "verify-mixed"
    dims = (5, 7, 9)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = self.rng
        self.witness_seed = rng.randrange(2**31)
        schemes = [oracle.parse_compact(text) for text in oracle.PINNED_ROWS.values()]
        for n in self.dims:
            schemes += [_random_scheme(n, rng) for _ in range(VERIFY_PER_DIM)]
        rng.shuffle(schemes)
        self.requests = [
            (oracle.canonical_text(s), _vector(len(s), rng), _vector(len(s), rng))
            for s in schemes
        ]

    def run_round(self, tracer):
        import oddcross

        textio = oddcross.textio
        tensors = oddcross.tensor
        verify = oddcross.verify
        schemes = oddcross.schemes
        out = []
        latencies = []
        for rid, (text, a, b) in enumerate(self.requests):
            with tracer.request_span(rid):
                t0 = time.perf_counter()
                scheme = textio.parse_scheme_text(text)
                tensor = tensors.build_tensor(scheme)
                ortho, xab_zero = verify.classify_tensor(tensor)
                closed = schemes.is_closed(scheme)
                witness = None if xab_zero else verify.find_witness(tensor, scheme, self.witness_seed)
                report = verify.defect_report(scheme, a, b, tensor=tensor)
                latencies.append(time.perf_counter() - t0)
            out.append(
                (closed, ortho, xab_zero, witness, report.dot_with_a, report.dot_with_b,
                 report.xab_direct, report.xab_tensor, report.xab_pairs)
            )
        return Result(out, len(out), latencies)

    def check(self, data):
        problems = []
        if len(data) != len(self.requests):
            problems.append(f"{len(data)} replies to {len(self.requests)} requests")
        failed = 0
        for (text, a, b), reply in zip(self.requests, data):
            scheme = oracle.parse_canonical(text)
            closed, ortho, xab_zero, witness, d_a, d_b, x_direct, x_tensor, x_pairs = reply
            c = oracle.cross(scheme, a, b)
            x = oracle.xab(scheme, a, b)
            ok = (
                closed == oracle.closed(scheme)
                and ortho == oracle.totally_antisymmetric(scheme)
                and xab_zero == oracle.is_pinned(scheme)
                and x_direct == x_tensor == x_pairs == x
                and (d_a, d_b) == (oracle.dot(c, a), oracle.dot(c, b))
            )
            if ok and not xab_zero:
                ok = witness is not None and oracle.xab(scheme, *witness) != 0
            if not ok:
                failed += 1
                if failed <= 3:
                    problems.append(f"n={len(scheme)} request wrong: {reply}")
        return failed, problems


def _random_scheme(n: int, rng: random.Random) -> tuple:
    def order(axis):
        choices = list(range(len(oracle.matchings(n, axis))))
        rng.shuffle(choices)
        return choices

    return oracle.scheme_of(n, next(oracle.branches(n, order=order)))


def _vector(n: int, rng: random.Random) -> tuple:
    return tuple(rng.randint(-VECTOR_RANGE, VECTOR_RANGE) for _ in range(n))


def _remove(path: str):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


WORKLOADS = {w.name: w for w in (CensusN7, EnumerateN9, VerifyMixed)}
