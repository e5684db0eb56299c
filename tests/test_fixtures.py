"""Every transcribed certificate verifies against its stated graph, except
the two documented errata, which must fail in exactly the recorded way and
whose corrected variants must verify."""

import pytest

from drn.constructions import _STORED
from drn.matrices import verify
import fixtures

ALL_NAMES = sorted(fixtures.FIXTURES)

EXPECTED_VALID = [n for n in ALL_NAMES if fixtures.get(n).valid]
EXPECTED_ERRATA = [n for n in ALL_NAMES if not fixtures.get(n).valid]


def test_inventory_complete():
    # one entry per transcribed certificate
    assert len(ALL_NAMES) == 23
    assert EXPECTED_ERRATA == ["fork_width4", "k5_minus_k3_width5"]


@pytest.mark.parametrize("name", EXPECTED_VALID)
def test_valid_fixture_verifies(name):
    f = fixtures.get(name)
    rep = verify(f.graph(), f.matrix())
    assert rep.valid, f"{name}: {[v.describe() for v in rep.violations]}"


@pytest.mark.parametrize("name", EXPECTED_ERRATA)
def test_erratum_fails_and_correction_verifies(name):
    f = fixtures.get(name)
    assert f.note and f.corrected_rows is not None
    assert not verify(f.graph(), f.matrix()).valid
    assert verify(f.graph(), f.corrected_matrix()).valid
    assert f.best_matrix() == f.corrected_matrix()


def test_fork_erratum_shape():
    # the transcribed rows induce a triangle on rows 1,2,3 plus isolated rows
    f = fixtures.get("fork_width4")
    rep = verify(f.graph(), f.matrix())
    pairs = {(v.i, v.j, v.kind) for v in rep.violations}
    assert (1, 3, "non-adjacent-but-disagree-everywhere") in pairs
    assert any(p[:2] == (3, 4) for p in pairs)  # the lost fork edge


def test_k5_minus_k3_erratum_shape():
    f = fixtures.get("k5_minus_k3_width5")
    rep = verify(f.graph(), f.matrix())
    assert [(v.i, v.j, v.kind, v.position) for v in rep.violations] == [
        (1, 4, "adjacent-but-agree", 4)
    ]
    # and the correction is the unique compatible row 4
    assert f.corrected_rows[3] == (2, 5, 4, 3, 1)


def test_fixture_widths():
    widths = {
        "p3_width4": 4, "fork_width4": 4, "k3_minus_p3_width3": 3,
        "k8_minus_p6_width8": 8, "c10_width6": 6, "c11_width7": 7,
        "p9_width6": 6, "p10_width6": 6, "order6_minus_k2_width6_alt": 6,
    }
    for name, k in widths.items():
        assert fixtures.get(name).matrix().k == k


def test_stored_nearly_complete_certificates_are_the_published_ones():
    # each stored nearly complete certificate is its published fixture's
    # verifying variant (the correction for K5-K3), rows put in the family's
    # standard labelling: row for vertex i is the published row order[i]
    sources = {
        "K3-P3": ("k3_minus_p3_width3", (1, 3, 2)),
        "K4-P3": ("k4_minus_p3_width4", (1, 4, 2, 3)),
        "K4-2K2": ("k4_minus_2k2_width4", (1, 2, 3, 4)),
        "K5-2K2": ("k5_minus_2k2_width5", (1, 2, 3, 4, 5)),
        "K6-2K2": ("k6_minus_2k2_width6", (1, 2, 3, 4, 5, 6)),
        "K4-K3": ("k4_minus_k3_width4", (1, 2, 3, 4)),
        "K5-K3": ("k5_minus_k3_width5", (1, 2, 3, 4, 5)),
        "K6-K3": ("k6_minus_k3_width6", (1, 2, 3, 4, 5, 6)),
        "K4-P4": ("k4_minus_p4_width4", (3, 1, 4, 2)),
        "K5-P4": ("k5_minus_p4_width4", (4, 2, 5, 3, 1)),
        "K6-P4": ("k6_minus_p4_width5", (4, 1, 2, 3, 5, 6)),
        "K5-P3uP2": ("k5_minus_p3p2_width4", (3, 5, 4, 1, 2)),
        "K6-P3uP2": ("k6_minus_p3p2_width5", (3, 6, 4, 1, 2, 5)),
    }
    assert sorted(sources) == sorted(spec for spec in _STORED if "-" in spec)
    for spec, (name, order) in sources.items():
        rows = fixtures.get(name).best_matrix().rows
        assert _STORED[spec] == tuple(rows[i - 1] for i in order), spec
