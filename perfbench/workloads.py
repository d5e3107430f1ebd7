"""The benchmark's workloads: code parameters and the decoder route each must take.

Every workload plants errors inside the decoder's guarantee, so every trial
must decode.  Why each workload was chosen is recorded once, in the `why`
field of BENCHMARK.json; `ROUTES` below is what the route assertion enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

# A decode's route, from the decoder stages it entered: neither build_S_exp
# nor estimate_rank -> zero syndrome; build_S_exp only -> boundary; both ->
# boundary falling back to the rank scan; estimate_rank only -> plain scan.
ROUTES = ("zero", "boundary", "fallback", "plain")


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    n: int
    k: int
    t: int
    subfield_only: bool
    route: str

    def params(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "t": self.t,
            "subfield_only": self.subfield_only,
            "route": self.route,
        }


WORKLOADS = {
    w.name: w
    for w in (
        # odd k: the boundary branch never runs; t=6 makes the rank scan
        # probe u = 11..6 before it finds the rank
        Workload("plain-scan", q=3, n=12, k=1, t=6, subfield_only=False, route="plain"),
        # 2t + k = 2n with subfield errors: every decode takes the
        # trace-augmented branch and the rank scan never runs
        Workload("boundary-sub", q=3, n=12, k=2, t=11, subfield_only=True, route="boundary"),
        # u_max = 2: tiny rank scan; encode, unmap and the 456 x 576 F_q
        # left inverse built at set-up dominate
        Workload("high-rate", q=7, n=12, k=19, t=2, subfield_only=False, route="plain"),
    )
}
