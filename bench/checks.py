"""Checks of ysyslab's outputs computed apart from the program.

Every expected value here comes from the benchmark's own table of Lie data
and the paper's closed forms, and every mutation path is replayed with the
benchmark's own matrix-mutation formula.  Nothing in this module imports
ysyslab, so a fault in the program cannot hide in its own oracle.

A ``Tally`` collects the outcome of each check: ``attempted`` and ``failed``
counts, the failures' descriptions, and the accuracy headroom of the
floating-point checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Tolerances stated by the acceptance criteria; a check here never takes a
#: tolerance from the program's own report.
RESIDUAL_TOL = 1e-9
PERIODICITY_TOL = 1e-8
DILOG_TOL = 1e-8
FUNCTIONAL_TOL = 1e-6

#: log10(tol / error) reported for an error of exactly 0.
HEADROOM_CAP = 16.0


def lie_data(family, rank):
    """(h, h_dual, t, sum of t_a, dim g) of the simple Lie algebra."""
    if family == "C":
        if rank < 2:
            raise ValueError("type C needs rank >= 2")
        return 2 * rank, rank + 1, 2, 2 * (rank - 1) + 1, rank * (2 * rank + 1)
    if family == "F4" and rank == 4:
        return 12, 9, 2, 6, 52
    if family == "G2" and rank == 2:
        return 6, 4, 3, 4, 14
    raise ValueError(f"no Lie data for {family}{rank}")


def di_rhs(family, rank, level):
    """Right-hand side r(l h - h*)/(h* + l) of the constant identity, exactly."""
    h, hd, _, _, _ = lie_data(family, rank)
    return Fraction(rank * (level * h - hd), hd + level)


def mutation_points(family, rank, level):
    """Mutation points in one full period: t (h* + l) (l sum_a t_a - r)."""
    _, hd, t, t_sum, _ = lie_data(family, rank)
    return t * (hd + level) * (level * t_sum - rank)


def tropical_tallies(family, rank, level):
    """Closed forms (N+, N-) of the tropical sign tallies over one period.

    N- = t r (l h - h*) and N+ = t l (sum_a t_a (h* + l) - dim g); they add
    up to ``mutation_points``.  They are also the targets (N-, N+) of the
    functional dilogarithm sums.
    """
    h, hd, t, t_sum, dim = lie_data(family, rank)
    return t * level * (t_sum * (hd + level) - dim), t * rank * (level * h - hd)


# -- mutation paths -----------------------------------------------------------


def mutate(B, k):
    """Matrix mutation: B'_ij = -B_ij if k in (i, j), else
    B_ij + (|B_ik| B_kj + B_ik |B_kj|) / 2."""
    n = len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-B[i][j])
            else:
                row.append(B[i][j] + (abs(B[i][k]) * B[k][j] + B[i][k] * abs(B[k][j])) // 2)
        out.append(row)
    return out


def find_permutation(A, B):
    """A vertex permutation p with A[i][j] == B[p[i]][p[j]] for all i, j, or None."""
    n = len(A)
    if len(B) != n:
        return None

    def signature(M, i):
        return sorted(M[i][j] for j in range(n) if M[i][j])

    sig_a = [signature(A, i) for i in range(n)]
    sig_b = [signature(B, j) for j in range(n)]
    if sorted(sig_a) != sorted(sig_b):
        return None
    # place vertices so that each one after the first has a placed neighbour
    order, seen = [], set()
    for root in range(n):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in range(n):
                if A[v][w] and w not in seen:
                    seen.add(w)
                    queue.append(w)
    p = [-1] * n
    used = [False] * n

    def place(pos):
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if used[j] or sig_b[j] != sig_a[i]:
                continue
            if all(A[i][i2] == B[j][p[i2]] for i2 in order[:pos]):
                p[i], used[j] = j, True
                if place(pos + 1):
                    return True
                p[i], used[j] = -1, False
        return False

    return p if place(0) else None


def path_reaches(start, target, moves):
    """True when mutating start along moves gives target up to an explicit,
    re-verified vertex permutation."""
    B = [list(map(int, row)) for row in start]
    T = [list(map(int, row)) for row in target]
    n = len(B)
    for k in moves:
        if not 0 <= k < n:
            return False
        B = mutate(B, k)
    p = find_permutation(B, T)
    return p is not None and all(B[i][j] == T[p[i]][p[j]] for i in range(n) for j in range(n))


# -- the tally ----------------------------------------------------------------


class Tally:
    """Attempted and failed checks, plus the headroom of the float checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.headroom = HEADROOM_CAP

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def within(self, error, tol, what):
        """Float check error < tol; also lowers the headroom to log10(tol/error)."""
        error = abs(float(error))
        if not math.isfinite(error):
            return self.check(False, f"{what}: error is {error}")
        digits = HEADROOM_CAP if error == 0 else math.log10(tol / error)
        self.headroom = min(self.headroom, digits)
        return self.check(error < tol, f"{what}: error {error:.3e} >= tol {tol:.1e}")

    def constant_dilog(self, case, lhs, rhs):
        """A (lhs, rhs) pair of the constant identity against the exact value."""
        exact = di_rhs(*case)
        self.check(
            math.isclose(rhs, float(exact), rel_tol=1e-15),
            f"{case} dilog-constant: rhs {rhs!r} != {exact}",
        )
        self.within(lhs - float(exact), DILOG_TOL, f"{case} dilog-constant")

    def row(self, case, check, status, metrics, pair_matrices=None):
        """One report row of run_suite: its status and the checks it supports."""
        self.check(status == "pass", f"{case} {check}: status {status}")
        if check == "tropical-counts":
            want = list(tropical_tallies(*case))
            got = metrics.get("got")
            self.check(got == want, f"{case} tropical-counts: got {got}, closed form {want}")
            self.check(
                got is not None and sum(got) == mutation_points(*case),
                f"{case} tropical-counts: tallies do not add up to the mutation points",
            )
        elif check == "numeric-residuals":
            self.within(metrics["max_residual"], RESIDUAL_TOL, f"{case} numeric-residuals")
        elif check == "numeric-periodicity":
            self.within(metrics["max_error"], PERIODICITY_TOL, f"{case} numeric-periodicity")
        elif check == "dilog-constant":
            self.constant_dilog(case, metrics["lhs"], metrics["rhs"])
        elif check == "dilog-functional":
            npos, nneg = tropical_tallies(*case)
            targets = metrics.get("targets")
            self.check(targets == [nneg, npos], f"{case} dilog-functional: targets {targets}")
            self.within(metrics["max_deviation"], FUNCTIONAL_TOL, f"{case} dilog-functional")
            self.within(metrics["seed_spread"], FUNCTIONAL_TOL, f"{case} dilog-functional spread")
        elif check == "mutation-equivalence":
            start, target = pair_matrices
            self.check(
                path_reaches(start, target, metrics.get("moves", [])),
                f"{case}: the reported path does not reach the target quiver",
            )
