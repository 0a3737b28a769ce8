"""A slice of the verdict corpus (``tests/corpus.py``) on both extraction
routes, judged by the eigenvalue oracle at the absolute entry slack."""

import numpy as np
import pytest
from corpus import CLASSES, corpus, entry_perturbed, oracle

from schurq.displacement import displacement_inverse
from schurq.linalg import NotPSDError
from schurq.params import inverse

# Classes whose every input is PSD and accepted by both routes on the full
# corpus: no masking, snapping or scaling rule may reject them.
ACCEPTED = ("psd", "rank", "zero row", "noisy zero rows", "tiny", "graded")


def _accepts(route, s) -> bool:
    try:
        route(s)
    except NotPSDError:
        return False
    return True


@pytest.mark.parametrize("route", [inverse, displacement_inverse])
def test_no_false_acceptance_on_the_corpus_slice(route):
    cases = corpus(np.random.default_rng(2323), (3, 5, 8, 12), 2)
    assert {name for name, _ in cases} == set(CLASSES) | {"hilbert"}
    indefinite = 0
    for name, s in cases:
        if not oracle(s):
            indefinite += 1
            assert not _accepts(route, s), name
        elif name in ACCEPTED:
            assert _accepts(route, s), name
    assert indefinite >= 30  # the corner and shift 1.1, 2 and 30 classes


def test_routes_agree_on_entry_perturbed_inputs():
    """Both routes judge every entry by one rule, so near the rank and the
    PSD boundary they reach the same verdict on 396 of 400 inputs at d 3..8
    (378 when the recursion judged a masked node by its generator's
    signature).  The 4 left are PSD inputs that one route rejects: three by
    ``inverse`` (two past the disc, one masked), whose covariances the two
    routes round apart, and one by the recursion's boundary check."""
    rng = np.random.default_rng(777)
    agree = 0
    for _ in range(400):
        s = entry_perturbed(rng, int(rng.integers(3, 9)))
        agree += _accepts(inverse, s) == _accepts(displacement_inverse, s)
    assert agree == 396
