"""Working memory of the chunked kernels: a small multiple of the one budget, traced.

Each kernel sizes its chunks from fields._WORK_BYTES. tracemalloc sees every numpy
buffer, so the traced peak of one call is the memory it holds at once. It may hold
a few chunk temporaries of at most the budget each, plus what stays resident: its
outputs and the arrays of a size fixed by q (the spectrum's u-slices 0 and 1).
"""
import itertools
import tracemalloc

import numpy as np
import pytest

from shiftunital import (cli, construct_theta, fields, geometry, make_field, make_tower,
                         spectrum_size, square_spec)
from shiftunital.gf2rank import rank2_by_characters
from shiftunital.kloosterman import _trace_counts



def traced_peak(call):
    """(result, peak bytes) of call(), traced from a clean start."""
    call()          # first calls load lazy numpy internals; those are not the kernel's
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _square(p, m):
    tower = make_tower(make_field(p, m))
    f = square_spec(tower.ext)
    setup = construct_theta(tower)
    return f, setup, geometry.base_blocks(f, setup)


@pytest.fixture(scope="module")
def kernels():
    """name -> (call, resident bytes of its result, budget-sized temporaries held at once).

    The last is the measured count rounded up with room to spare: the q^2-entry
    arrays of the circles and of the exact-cover check; the trace sums and
    their intp indices; a stack and _eliminate's copy of it, or the row values
    and their indices; a chunk of least codes; none (one histogram of the fibers
    and q^2-entry vectors); the trace values and one compare.
    """
    f49, s49, b49 = _square(7, 2)
    f19, s19, b19 = _square(19, 1)
    f27, s27, _ = _square(3, 3)
    k7 = make_field(3, 7)
    return {
        "base_blocks q=49": (lambda: geometry.base_blocks(f49, s49),
                             lambda r: r.x.nbytes + r.t.nbytes, 2),
        "spectrum_size q=49": (lambda: spectrum_size(s49, f49, blocks=b49),
                               lambda r: r.slices.nbytes, 2),
        "rank2_by_characters q=19": (lambda: rank2_by_characters(b19),
                                     lambda r: r[1].nbytes, 3),
        "verify_unital_in_plane q=27": (lambda: geometry.verify_unital_in_plane(f27, s27),
                                        lambda r: 0, 1),
        "_trace_counts m=7": (lambda: _trace_counts(k7, np.arange(k7.n)),
                              lambda r: r.nbytes, 3),
    }


@pytest.mark.parametrize("name", [
    "base_blocks q=49", "spectrum_size q=49", "rank2_by_characters q=19",
    "verify_unital_in_plane q=27", "_trace_counts m=7"])
def test_kernel_peak_within_the_budget(kernels, name):
    call, resident, chunks = kernels[name]
    result, peak = traced_peak(call)
    bound = chunks * fields._WORK_BYTES + resident(result)
    assert peak <= bound, f"{name}: traced peak {peak} B above {bound} B"


def test_trivial_multiplier_counts_the_labels_a_chunk_at_a_time():
    # given M = {1}, the exact-cover check reads every row; it holds one chunk of
    # differences and labels, and one int64 count per label, which each chunk adds to
    _, setup, blocks = _square(7, 2)
    q = setup.tower.base.n
    trivial = (1, 0, np.arange(q - 1))
    _, peak = traced_peak(
        lambda: geometry._check_difference_family(setup, blocks.x, blocks.t, trivial))
    bound = 2 * fields._WORK_BYTES + 8 * (q**3 - q)
    assert peak <= bound, f"traced peak {peak} B above {bound} B"


def test_vadd_holds_three_int32_arrays():
    # the digit halves, taken from the index as int32, keep every temporary of a sum
    # at its result's width: one half of the sum, the other half's indices and their gather
    ext = make_tower(make_field(7, 2)).ext
    a = np.arange(256)[:, None]
    b = np.arange(ext.n - 256, ext.n)[None, :]
    result, peak = traced_peak(lambda: ext.vadd(a, b))
    assert result.dtype == np.int32
    assert peak <= 3.5 * result.nbytes


def test_base_blocks_hold_no_q3_array():
    # the exact-cover check counts orbit labels of the multiplier group, O(q^2) of them
    f, setup, _ = _square(3, 5)
    _, peak = traced_peak(lambda: geometry.base_blocks(f, setup))
    assert peak < 243**3


def test_spectrum_count_holds_no_q3_array():
    # with the multiplier group GF(q)*, the size is read off the u-slices 0 and 1
    f, setup, _ = _square(3, 5)
    size, peak = traced_peak(lambda: spectrum_size(setup, f).size)
    assert size == 243**3 - 243 + 1
    assert peak < 243**3


def test_spectrum_bitmap_holds_no_q3_array():
    # bitmap packs members_of(u) eight u-slices at a time: q^3 bits, not q^3 bytes
    f, setup, _ = _square(3, 5)
    bitmap, peak = traced_peak(lambda: spectrum_size(setup, f).bitmap)
    assert bitmap.bit_count() == 243**3 - 243 + 1
    assert peak < 243**3


def test_witness_all_csv_holds_one_u_slice_at_a_time():
    # certifying_sets evaluates each u on every circle as its chunk is written, so a
    # pass holds one u-slice's arrays and lines: neither the result nor the chunks
    # before hold q^3 (q + 6)/8 bytes of certifying bits
    f, setup, _ = _square(3, 3)
    q = 27
    certifying = q**3 * (q + 6) // 8

    def write(res, n):
        return max(map(len, itertools.islice(cli._witness_csv(res, True), n)))

    res = spectrum_size(setup, f)
    _, first = traced_peak(lambda: write(res, 3))
    _, streamed = traced_peak(lambda: write(res, q + 1))
    _, evaluated = traced_peak(lambda: write(spectrum_size(setup, f), q + 1))
    assert streamed - first < certifying / 2
    assert evaluated - streamed < certifying / 2
