"""The serve-closed job mix: the same work in every round, whatever the seed."""

import json
import random
from collections import Counter

import scenarios
from repro.workloads import SPEC2000_INT_NAMES


def rounds(seed, n):
    rng, used, fresh, out = random.Random(seed), set(), [], []
    for _ in range(n):
        jobs, fresh = scenarios.serve_round_specs(rng, fresh, used)
        out.append((jobs, fresh))
    return out


def key(spec):
    return json.dumps(spec, sort_keys=True)


def test_first_round_is_fresh_and_every_third_job_later_is_a_repeat():
    (warm, warm_fresh), (jobs, fresh) = rounds(3, 2)
    per_round = scenarios.SERVE_FRESH_PER_PROFILE * len(SPEC2000_INT_NAMES)
    assert len(warm) == len(warm_fresh) == per_round
    assert len(jobs) == per_round * 3 // 2
    repeats = [j for j in jobs if key(j) not in {key(f) for f in fresh}]
    assert repeats == jobs[2::3]  # after every second fresh job
    assert {key(r) for r in repeats} <= {key(f) for f in warm_fresh}


def test_fresh_jobs_cover_every_profile_equally_and_never_recur():
    all_fresh = [f for _, fresh in rounds(5, 6) for f in fresh]
    assert len({key(f) for f in all_fresh}) == len(all_fresh)
    counts = Counter(f["benchmarks"][0] for f in all_fresh)
    assert set(counts) == set(SPEC2000_INT_NAMES)
    assert set(counts.values()) == {6 * scenarios.SERVE_FRESH_PER_PROFILE}


def test_the_seed_fixes_the_job_lists():
    assert rounds(7, 3) == rounds(7, 3)
    assert rounds(7, 3) != rounds(8, 3)
