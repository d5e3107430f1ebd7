"""Canonical simulate reports pinned byte for byte.

The grid reaches every failure reason and a miscorrection, so any change
to encoding, membership, decoding or the random draws that alters one
trial's outcome shows here.
"""

import functools
import json

import pytest

from tzcode import FieldCtx, build_code
from tzcode.channel import MISCORRECTION, ChannelSpec, simulate
from tzcode.decoder import FAILURE_REASONS

TRIALS, SEED = 40, 7

# (q, n, k, t, subfield_only) -> canonical_json()
GOLDEN = [
    ((3, 2, 1, 1, False),
     '{"failures_by_reason":{},"params":{"k":1,"n":2,"q":3,"rng":"philox4x64","seed":7,"subfield_only":false,"t":1},"successes":40,"trials":40}'),
    ((3, 2, 1, 2, True),
     '{"failures_by_reason":{"ErrorRankMismatch":17,"NotACodeword":23},"params":{"k":1,"n":2,"q":3,"rng":"philox4x64","seed":7,"subfield_only":true,"t":2},"successes":0,"trials":40}'),
    ((5, 2, 2, 1, True),
     '{"failures_by_reason":{},"params":{"k":2,"n":2,"q":5,"rng":"philox4x64","seed":7,"subfield_only":true,"t":1},"successes":40,"trials":40}'),
    ((5, 2, 2, 2, False),
     '{"failures_by_reason":{"Miscorrection":1,"NoRankFound":39},"params":{"k":2,"n":2,"q":5,"rng":"philox4x64","seed":7,"subfield_only":false,"t":2},"successes":0,"trials":40}'),
    ((3, 3, 2, 2, False),
     '{"failures_by_reason":{"ErrorRankMismatch":40},"params":{"k":2,"n":3,"q":3,"rng":"philox4x64","seed":7,"subfield_only":false,"t":2},"successes":0,"trials":40}'),
    ((3, 4, 2, 3, True),
     '{"failures_by_reason":{},"params":{"k":2,"n":4,"q":3,"rng":"philox4x64","seed":7,"subfield_only":true,"t":3},"successes":40,"trials":40}'),
    ((3, 4, 2, 3, False),
     '{"failures_by_reason":{"ErrorRankMismatch":40},"params":{"k":2,"n":4,"q":3,"rng":"philox4x64","seed":7,"subfield_only":false,"t":3},"successes":0,"trials":40}'),
    ((3, 4, 1, 4, False),
     '{"failures_by_reason":{"ErrorRankMismatch":40},"params":{"k":1,"n":4,"q":3,"rng":"philox4x64","seed":7,"subfield_only":false,"t":4},"successes":0,"trials":40}'),
    ((3, 3, 1, 3, False),
     '{"failures_by_reason":{"ErrorRankMismatch":39,"SpanDimMismatch":1},"params":{"k":1,"n":3,"q":3,"rng":"philox4x64","seed":7,"subfield_only":false,"t":3},"successes":0,"trials":40}'),
]


@functools.lru_cache(maxsize=None)
def _code(q, n, k):
    return build_code(FieldCtx(q, n), k)


@pytest.mark.parametrize("case, expected", GOLDEN, ids=[str(c) for c, _ in GOLDEN])
def test_canonical_report_is_byte_identical(case, expected):
    q, n, k, t, subfield = case
    report = simulate(_code(q, n, k), ChannelSpec(t, subfield, SEED), TRIALS)
    assert report.canonical_json() == expected


def test_grid_reaches_every_outcome():
    reasons = set()
    for _, expected in GOLDEN:
        reasons.update(json.loads(expected)["failures_by_reason"])
    assert reasons == set(FAILURE_REASONS) | {MISCORRECTION}
