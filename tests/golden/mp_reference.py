"""40-digit references for the golden sweeps.

Without arguments, prints the reference for the optimal golden sweep's
``min_rms`` and ``holevo`` columns.

Recomputes the sine-state round trip of the default sweep (eta = 0.9,
N = 2..30, top Fock index m = 2N) in mpmath, from the definitions only:
the loss channel element by element, out[a, b] = sum_i
sqrt(C(a+i, a) C(b+i, b)) eta^((a+b)/2) (1-eta)^i rho[a+i, b+i], the
index reversal rho[m-a, m-b], and the Pegg-Barnett outcome probabilities
p_l = <Phi_l|rho|Phi_l>.  Every row has even m, so its ``argmin_phi`` is
0 and ``min_rms`` is the circular RMS at phi = 0; ``holevo`` is
(S^-2 - 1)^(1/2) with S = |sum_n rho[n+1, n]|.  The arm phases cancel in
the output and are left out.

Takes about 15 s; run from the repository root:

    python3 tests/golden/mp_reference.py > tests/golden/optimal_vs_n_eta09_reference.csv

With ``large``, prints the same two columns for the large-N golden sweep
(optimal_vs_n_eta09_large.csv: eta = 0.9, N = 25..150 step 25, m = 2N up
to 300, so again every ``argmin_phi`` is 0).  The cost grows as d^3; the
six rows take about 9 minutes of CPU time on one core:

    python3 tests/golden/mp_reference.py large > tests/golden/optimal_vs_n_eta09_large_reference.csv

With ``mm``, checks that every ``mm_error`` cell of the two-component
golden sweep (mm_vs_n_eta09_mprime3.csv: eta = 0.9, m_prime = 3, top
index m = 2N - 3) is its 40-digit value correctly rounded to 12
significant digits, and exits 1 otherwise.  The value is the paper's
closed form sqrt(MS) / (delta C) at delta*phi = pi/2, with the mean
square MS and coherence C summed from the M&M output's triple sums:

    python3 tests/golden/mp_reference.py mm

With ``mm-off-grid``, prints the same 40-digit ``mm_error`` for a sweep
whose --phi-grid of 90 points misses delta*phi = pi/2 (eta = 0.5,
m_prime = 4, N = 5..40, top index m = 2N - 4); takes about 1 s:

    python3 tests/golden/mp_reference.py mm-off-grid > tests/golden/mm_vs_n_eta05_mprime4_reference.csv
"""

from __future__ import annotations

import csv
import decimal
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50
DIGITS = 40
ETA = mp.mpf(0.9)  # the double the CLI parses from "0.9", converted exactly


def loss(rho, eta):
    d = len(rho)
    root = [[mp.sqrt(mp.binomial(c, a)) for a in range(d)] for c in range(d)]
    lost = [(1 - eta) ** i for i in range(d)]
    kept = [eta ** (mp.mpf(k) / 2) for k in range(2 * d)]
    return [
        [
            mp.fsum(root[a + i][a] * root[b + i][b] * lost[i] * rho[a + i][b + i] for i in range(d - max(a, b)))
            * kept[a + b]
            for b in range(d)
        ]
        for a in range(d)
    ]


def sine_amplitudes(m: int):
    d = m + 1
    return [mp.sqrt(mp.mpf(2) / d) * mp.sin(mp.pi * (n + mp.mpf(1) / 2) / d) for n in range(d)]


def row(m: int):
    d = m + 1
    amps = sine_amplitudes(m)
    rho = loss([[x * y for y in amps] for x in amps], ETA)
    rho = loss([[rho[m - a][m - b] for b in range(d)] for a in range(d)], ETA)
    cos = [mp.cos(2 * mp.pi * k / d) for k in range(d)]  # cos((b-a)*Phi_l) = cos[(b-a)*l % d]
    ms = mp.mpf(0)
    for l in range(d):
        p = mp.fsum(rho[a][b] * cos[(b - a) * l % d] for a in range(d) for b in range(d)) / d
        ms += p * (2 * mp.pi * min(l, d - l) / d) ** 2
    s = abs(mp.fsum(rho[n + 1][n] for n in range(m)))
    return mp.sqrt(ms), mp.sqrt(1 / s**2 - 1)


def mm_error(m: int, m_prime: int, eta):
    """The M&M state's least propagated phase error, from the triple sums."""
    delta = m - m_prime
    c = mp.binomial

    def pref(i, j):
        return (1 - eta) ** (2 * i - j) * eta ** (m - i + j)

    def population(s):  # fed by |m_prime> (shift s - delta) and by |m> (shift s)
        low = mp.fsum(
            pref(i, s - delta) * c(m_prime, i) * c(i + delta, i - s + delta)
            for i in range(max(0, s - delta), m_prime + 1)
        )
        high = mp.fsum(pref(i, s) * c(m, i) * c(i, s) for i in range(s, m + 1))
        return (low + high) / 2

    mean_square = mp.fsum(population(k) + population(k + delta) for k in range(m_prime + 1))
    coherence = mp.fsum(
        pref(i, j) * mp.sqrt(c(m_prime, i) * c(m, i) * c(i + delta, i - j) * c(i, j))
        for j in range(m_prime + 1)
        for i in range(j, m_prime + 1)
    )
    return mp.sqrt(mean_square) / (delta * coherence)


def check_mm() -> int:
    twelve = decimal.Context(prec=12, rounding=decimal.ROUND_HALF_EVEN)
    with open(Path(__file__).parent / "mm_vs_n_eta09_mprime3.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    wrong = 0
    for r in rows:
        ref = mm_error(2 * int(r["sweep"]) - 3, 3, ETA)
        want = twelve.plus(decimal.Decimal(mp.nstr(ref, DIGITS, strip_zeros=False)))
        if decimal.Decimal(r["mm_error"]) != want:
            wrong += 1
            print(f"N={r['sweep']}: mm_error {r['mm_error']}, reference {want}")
    print(f"{len(rows) - wrong} of {len(rows)} mm_error cells are the reference correctly rounded")
    return 1 if wrong else 0


def main() -> int:
    if sys.argv[1:] == ["mm"]:
        return check_mm()
    if sys.argv[1:] == ["mm-off-grid"]:
        print("sweep,mm_error")
        for n in range(5, 41):
            print(f"{n},{mp.nstr(mm_error(2 * n - 4, 4, mp.mpf(0.5)), DIGITS, strip_zeros=False)}")
        return 0
    sweeps = range(25, 151, 25) if sys.argv[1:] == ["large"] else range(2, 31)
    print("sweep,min_rms,holevo")
    for n in sweeps:
        min_rms, holevo = row(2 * n)
        print(f"{n},{mp.nstr(min_rms, DIGITS, strip_zeros=False)},{mp.nstr(holevo, DIGITS, strip_zeros=False)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
