"""Per-layer metrics computed from the traced spans, with their predicted effects.

Times are per decode, per trial or per build; run.py reports the median over
the traced trials or builds.  Each entry names the end-to-end metric the
layer metric should move and on which workload, written down before any
optimisation is measured against it.
"""

from __future__ import annotations

from collections import Counter

from tracer import COUNTERS, END, NAME, OPS_END, OPS_START, PARENT, START

# name -> (unit, end-to-end metric it should move, and where)
LAYER_METRICS = {
    "field.ctx_init_s": ("s", "setup_s on every workload"),
    "field.mul_calls": ("count", "decode_p50_ms on plain-scan and boundary-sub; barely on high-rate"),
    "field.add_calls": ("count", "decode_p50_ms on plain-scan and boundary-sub; barely on high-rate"),
    "field.frobenius_calls": ("count", "decode_p50_ms on plain-scan and boundary-sub; barely on high-rate"),
    "field.inverse_calls": ("count", "decode_p50_ms on plain-scan and boundary-sub; barely on high-rate"),
    "field.mul_us": ("us", "decode_p50_ms on plain-scan and boundary-sub; barely on high-rate"),
    "field.frobenius_us": ("us", "decode_p50_ms on plain-scan and boundary-sub; barely on high-rate"),
    "field.inverse_us": ("us", "decode_p50_ms on plain-scan and boundary-sub; barely on high-rate"),
    "linalg.ff_rref_calls": ("count", "decode_p50_ms/decode_p90_ms on plain-scan and boundary-sub; about 0 on high-rate"),
    "linalg.ff_rref_self_ms": ("ms", "decode_p50_ms/decode_p90_ms on plain-scan and boundary-sub; about 0 on high-rate"),
    "linalg.ff_rref_op_ms": ("ms", "decode_p50_ms/decode_p90_ms on plain-scan and boundary-sub"),
    "linalg.fq_rref_self_ms": ("ms", "decode_p50_ms slightly on every workload (root space, rank weight)"),
    "linalg.fq_rref_setup_self_s": ("s", "setup_s on high-rate"),
    "linalg.fq_rref_op_ms": ("ms", "setup_s on high-rate"),
    "linpoly.root_space_ms": ("ms", "decode_p50_ms on every workload, at 5-9% of decode"),
    "construct.mu_s": ("s", "setup_s on plain-scan and boundary-sub"),
    "construct.code_init_s": ("s", "setup_s on high-rate"),
    "construct.build_self_s": ("s", "setup_s on high-rate"),
    "construct.encode_ms": ("ms", "encode_p50_ms and trials_per_s on high-rate"),
    "construct.unmap_ms": ("ms", "decode_p50_ms on high-rate"),
    "construct.is_codeword_ms": ("ms", "decode_p50_ms on high-rate"),
    "decoder.syndrome_ms": ("ms", "decode_p50_ms on every workload"),
    "decoder.s_exp_ms": ("ms", "decode_p50_ms on boundary-sub; 0 on plain-scan and high-rate"),
    "decoder.span_ms": ("ms", "decode_p50_ms on boundary-sub"),
    "decoder.rank_scan_ms": ("ms", "decode_p50_ms/decode_p90_ms on plain-scan; about 0 on boundary-sub"),
    "decoder.rank_scan_probes": ("count", "decode_p50_ms/decode_p90_ms on plain-scan; 0 on boundary-sub"),
    "decoder.locators_ms": ("ms", "decode_p50_ms on every workload"),
    "decoder.residual_ms": ("ms", "decode_p50_ms on every workload"),
    "decoder.route.zero": ("count", "none: route taken by traced decodes, asserted per workload"),
    "decoder.route.boundary": ("count", "none: route taken by traced decodes, asserted per workload"),
    "decoder.route.fallback": ("count", "none: route taken by traced decodes, asserted per workload"),
    "decoder.route.plain": ("count", "none: route taken by traced decodes, asserted per workload"),
    "channel.random_message_ms": ("ms", "trials_per_s on high-rate"),
    "channel.random_error_ms": ("ms", "trials_per_s on high-rate"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced decode p50, the cost of tracing"),
}


def setup_values(tracer, lo: int, hi: int) -> dict:
    """Layer times of one traced FieldCtx + build_code, in seconds."""
    spans = tracer.spans
    own = tracer.self_times(lo, hi)
    dur = Counter()
    self_s = Counter()
    for j in range(lo, hi):
        dur[spans[j][NAME]] += spans[j][END] - spans[j][START]
        self_s[spans[j][NAME]] += own[j - lo]
    return {
        "field.ctx_init_s": dur["field.FieldCtx.__init__"],
        "construct.mu_s": dur["construct.trace_almost_dual"],
        "construct.code_init_s": dur["construct.TZCode.__init__"],
        "construct.build_self_s": self_s["construct.build_code"],
        "linalg.fq_rref_setup_self_s": self_s["linalg.fq_rref"],
    }


def route_of(names) -> str:
    exp = "decoder.build_S_exp" in names
    scan = "decoder.estimate_rank" in names
    return {(False, False): "zero", (True, False): "boundary",
            (True, True): "fallback", (False, True): "plain"}[(exp, scan)]


def trial_values(tracer, lo: int, hi: int):
    """(route, decode seconds, layer values in ms or counts) of one traced trial."""
    spans = tracer.spans
    top = [j for j in range(lo, hi) if spans[j][PARENT] < lo]
    (d,) = [j for j in top if spans[j][NAME] == "decoder.decode"]
    after = [j for j in top if j > d]
    sub = range(d + 1, after[0] if after else hi)
    own = tracer.self_times(lo, hi)

    def ms(j):
        return (spans[j][END] - spans[j][START]) * 1e3

    names = {spans[j][NAME] for j in sub}
    in_decode = Counter()
    under_decode = Counter()   # direct children of decode only
    self_ms = Counter()
    calls = Counter()
    for j in sub:
        name = spans[j][NAME]
        in_decode[name] += ms(j)
        self_ms[name] += own[j - lo] * 1e3
        calls[name] += 1
        if spans[j][PARENT] == d:
            under_decode[name] += ms(j)
    probes = sum(1 for j in sub if spans[j][NAME] == "linalg.ff_rank"
                 and spans[spans[j][PARENT]][NAME] == "decoder.estimate_rank")
    top_ms = Counter()
    for j in top:
        top_ms[spans[j][NAME]] += ms(j)
    ops = [b - a for a, b in zip(spans[d][OPS_START], spans[d][OPS_END])]

    values = {f"field.{op}_calls": ops[i] for i, op in enumerate(COUNTERS)}
    values.update({
        "linalg.ff_rref_calls": calls["linalg.ff_rref"],
        "linalg.ff_rref_self_ms": self_ms["linalg.ff_rref"],
        "linalg.fq_rref_self_ms": self_ms["linalg.fq_rref"],
        "linpoly.root_space_ms": in_decode["linpoly.root_space"],
        "construct.encode_ms": top_ms["construct.TZCode.encode"],
        "construct.unmap_ms": in_decode["construct.TZCode.unmap"],
        "construct.is_codeword_ms": in_decode["construct.TZCode.is_codeword"],
        "decoder.syndrome_ms": in_decode["decoder.syndrome"],
        # S_exp is built, then ranked by decode itself
        "decoder.s_exp_ms": in_decode["decoder.build_S_exp"] + under_decode["linalg.ff_rank"],
        # the span system: S^(t) built by decode, then its kernel
        "decoder.span_ms": in_decode["decoder.solve_span"] + under_decode["decoder.build_S"],
        "decoder.rank_scan_ms": in_decode["decoder.estimate_rank"],
        "decoder.rank_scan_probes": probes,
        "decoder.locators_ms": in_decode["decoder.solve_locators"],
        # B, the error, and the residual check (rank weight and membership)
        "decoder.residual_ms": (in_decode["decoder.recover_B"]
                                + in_decode["decoder.error_from_decomposition"]
                                + under_decode["field.rank_weight"]
                                + under_decode["construct.TZCode.is_codeword"]),
        "channel.random_message_ms": top_ms["channel.random_message"],
        "channel.random_error_ms": top_ms["channel.random_error"],
    })
    return route_of(names), ms(d) / 1e3, values
