"""40-digit reference for the golden sweep's ``min_rms`` and ``holevo`` columns.

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
"""

from __future__ import annotations

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


def row(m: int):
    d = m + 1
    amps = [mp.sqrt(mp.mpf(2) / d) * mp.sin(mp.pi * (n + mp.mpf(1) / 2) / d) for n in range(d)]
    rho = loss([[x * y for y in amps] for x in amps], ETA)
    rho = loss([[rho[m - a][m - b] for b in range(d)] for a in range(d)], ETA)
    cos = [mp.cos(2 * mp.pi * k / d) for k in range(d)]  # cos((b-a)*Phi_l) = cos[(b-a)*l % d]
    ms = mp.mpf(0)
    for l in range(d):
        p = mp.fsum(rho[a][b] * cos[(b - a) * l % d] for a in range(d) for b in range(d)) / d
        ms += p * (2 * mp.pi * min(l, d - l) / d) ** 2
    s = abs(mp.fsum(rho[n + 1][n] for n in range(m)))
    return mp.sqrt(ms), mp.sqrt(1 / s**2 - 1)


def main() -> None:
    print("sweep,min_rms,holevo")
    for n in range(2, 31):
        min_rms, holevo = row(2 * n)
        print(f"{n},{mp.nstr(min_rms, DIGITS, strip_zeros=False)},{mp.nstr(holevo, DIGITS, strip_zeros=False)}")


if __name__ == "__main__":
    main()
