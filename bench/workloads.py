"""Benchmark workloads: seed -> interferolab command line.

Seed 0 is the configuration named in each workload's description.  Any
other seed draws the fixed transmissivity from [0.85, 0.95] and, for the
two-component workload, the lower Fock component from {2, 3, 4}.  The
program only ever sees the resulting command-line flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PHI_GRID = 720  # phase-grid points per period; fixes the phase accuracy of every row


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str
    n_range: tuple
    validate: bool = False

    def argv(self, seed: int) -> list:
        """CLI flags (without ``--out``) for this workload at ``seed``."""
        eta, m_prime = 0.9, 3
        if seed != 0:
            rng = random.Random(f"{self.name}:{seed}")
            eta = round(rng.uniform(0.85, 0.95), 4)
            m_prime = rng.choice((2, 3, 4))
        lo, hi, step = self.n_range
        args = [
            "--family", self.family, "--axis", "n", "--eta", repr(eta),
            "--n-min", str(lo), "--n-max", str(hi), "--n-step", str(step),
            "--phi-grid", str(PHI_GRID),
        ]
        if self.family == "mm":
            args += ["--m-prime", str(m_prime)]
        if self.validate:
            args.append("--validate")
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default-sweep",
            "Headline run N=2..30 (golden CSV at seed 0): many small rows, so estimation.* and "
            "sweep.* should move wall_s here while large-n stays flat",
            "optimal", (2, 30, 1),
        ),
        Workload(
            "large-n",
            "N=25..150 step 25 (m up to 300): few large rows in the O(d^4) closed form, so "
            "protocol.optimal_state_output.* should move wall_s and peak_rss_mb here",
            "optimal", (25, 150, 25),
        ),
        Workload(
            "two-component",
            "mm N=5..100 with --validate: protocol.mm_*, roundtrip_oracle, validate_closed_forms "
            "and fock.* should move wall_s only here; cli.* moves setup_s everywhere",
            "mm", (5, 100, 1), validate=True,
        ),
    )
}
