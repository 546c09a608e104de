"""Scaling op times to the reference speed, and the class-spread sampler."""

import random

import pytest

from wmbench import calib
from wmbench.workloads import ClassSampler, StreamRandom, _by_class, _flat, class_key
from wordmap import parse_field_spec
from wordmap.matrices import Matrix, charpoly, minpoly

REF = (calib.OBJ_REF_NS, calib.MEM_REF_NS)


def test_reference_samples_leave_times_unchanged():
    assert calib.scale([5.0, 7.0], [REF, REF]) == pytest.approx([5.0, 7.0])


def test_slowdown_is_the_geometric_mean_of_the_two_parts():
    slow = (2 * calib.OBJ_REF_NS, 8 * calib.MEM_REF_NS)
    assert calib.slowdown([slow]) == pytest.approx(4.0)


def test_each_time_is_scaled_by_the_samples_near_it():
    # the host runs twice as slow for the second half of the ops
    slow = (2 * calib.OBJ_REF_NS, 2 * calib.MEM_REF_NS)
    samples = [REF] * 30 + [slow] * 30
    times = [10.0] * 30 + [20.0] * 30
    scaled = calib.scale(times, samples, window=3)
    assert scaled[:27] == pytest.approx([10.0] * 27)
    assert scaled[33:] == pytest.approx([10.0] * 27)


def test_scale_needs_one_sample_per_time():
    with pytest.raises(ValueError):
        calib.scale([1.0, 2.0], [REF])


def test_class_key_is_charpoly_and_minpoly_degree():
    F = parse_field_spec("Fp:3")
    rng = random.Random(4)
    for _ in range(60):
        flat = tuple(rng.randrange(3) for _ in range(9))
        A = Matrix(F, [[F(v) for v in flat[i * 3:i * 3 + 3]] for i in range(3)])
        c0, c1, c2, _ = (c.rep for c in charpoly(A).coeffs)
        want = (-c2 % 3, c1, -c0 % 3, minpoly(A).degree)
        assert class_key(flat, 3, 3) == want


def test_population_is_all_of_m_n_once():
    assert sorted(_by_class(2, 2)) == list(range(16))
    assert sorted(_by_class(3, 2)) == list(range(81))


def test_spread_draws_repeat_per_label_and_cover_the_classes_evenly():
    F = parse_field_spec("Fp:2")
    pop = [_flat(i, 2, 2) for i in _by_class(2, 2)]
    scalar = sum(1 for m in pop if class_key(m, 2, 2)[2] == 1) / len(pop)

    def draws(label, k):
        rng, sampler, out = StreamRandom(label), ClassSampler(F, 2, "s"), []
        for cycle in range(k):
            rng.cycle = cycle
            out.append(sampler(rng))
        return out

    assert draws("a", 5) == draws("a", 5)
    got = draws("b", 160)
    share = sum(1 for A in got if class_key(
        tuple(x.rep for row in A.rows for x in row), 2, 2)[2] == 1) / len(got)
    assert abs(share - scalar) <= 2 / 160
