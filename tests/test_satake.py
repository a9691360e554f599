"""Satake data: theta*, validation, k/p dimensions, the class catalog."""

from __future__ import annotations

from itertools import combinations
from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest

from thetatool.restricted import restrict
from thetatool.rootsys import RootSystemError, build_root_system
from thetatool.satake import (
    InvolutionClassEntry,
    SatakeError,
    SatakeInvolution,
    UnknownClassError,
    _catalog_types,
    _psi_to_cycles,
    all_catalog_entries,
    catalog_list,
    catalog_lookup,
    class_records,
)

from scalar import root_index, root_tuples, theta_star
from weylgroup import reflection

# The generator's output for every catalog type, one class per line:
#
#     <series> <rank> <label> I=<1-based indices|-> psi=<cycles|-> k=<name> \
#         phiA=<type> components=<int>
#
# e.g. ``E 7 EVII I=2,3,4,5 psi=- k=e6+R phiA=C3 components=2``.
CATALOG_FIXTURE = Path(__file__).resolve().parent / "catalog.txt"


def _cycles_to_psi(text: str, rank: int) -> Tuple[int, ...]:
    psi = list(range(rank))
    if text in ("-", ""):
        return tuple(psi)
    for part in text.replace(")(", ");(").split(";"):
        nodes = [int(x) - 1 for x in part.strip("()").split(",")]
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            psi[a] = b
    return tuple(psi)


def render_record(e: InvolutionClassEntry) -> str:
    inv = e.satake
    i_txt = ",".join(str(i + 1) for i in sorted(inv.compact)) or "-"
    return (
        f"{e.series} {e.rank} {e.label} I={i_txt} psi={_psi_to_cycles(inv.psi)} "
        f"k={e.fixed_algebra_name} phiA={e.phi_a_type} components={e.components}"
    )


def parse_record(line: str) -> InvolutionClassEntry:
    parts = line.split()
    if len(parts) != 8:
        raise SatakeError(f"malformed catalog record: {line!r}")
    series, rank_s, label = parts[0], parts[1], parts[2]
    rank = int(rank_s)
    fields = {}
    for part in parts[3:]:
        key, _, val = part.partition("=")
        fields[key] = val
    compact = [int(x) - 1 for x in fields["I"].split(",") if fields["I"] != "-" and x]
    inv = SatakeInvolution(build_root_system(series, rank), compact,
                           _cycles_to_psi(fields["psi"], rank))
    return InvolutionClassEntry(series, rank, label, fields["k"], fields["phiA"],
                                int(fields["components"]), inv)


def render_catalog() -> str:
    lines = ["# involution classes of the simple types, rank <= 8"]
    for series, rank in _catalog_types():
        lines.extend(render_record(e) for e in class_records(series, rank))
    return "\n".join(lines) + "\n"


def test_theta_star_split_is_negation():
    inv = catalog_lookup("C", 3, "CI").satake
    for v in root_tuples(inv.ambient):
        assert theta_star(inv, v) == tuple(-x for x in v)


def test_theta_star_fixes_compact_roots():
    entry = catalog_lookup("E", 7, "EVII")
    inv = entry.satake
    rs = inv.ambient
    for i in np.flatnonzero(inv.compact_roots):
        v = root_tuples(rs)[i]
        assert theta_star(inv, v) == v


def test_theta_star_aiii_on_a3():
    # AIII(1,3): I = {a2}, psi = (1 3); theta*(a1) = -(a2 + a3).
    # (With psi = id the formula would give -(a1 + a2) instead.)
    rs = build_root_system("A", 3)
    inv = SatakeInvolution(rs, compact=(1,), psi=(2, 1, 0))
    assert theta_star(inv, (1, 0, 0)) == (0, -1, -1)
    assert inv.validate().ok
    inv_id = SatakeInvolution(rs, compact=(1,))
    assert theta_star(inv_id, (1, 0, 0)) == (-1, -1, 0)


def test_theta_star_rejects_non_root():
    inv = catalog_lookup("A", 2, "AI").satake
    with pytest.raises(Exception):
        theta_star(inv, (5, 5))


@pytest.mark.parametrize("compact, psi", [([0.5], None), ((), [0.0, 1, 2]), ([True], None)],
                         ids=["compact-float", "psi-float", "compact-bool"])
def test_non_integer_indices_rejected(compact, psi):
    """A Satake index that is not an integer is refused by the constructor
    with SatakeError, before ``validate`` could fail on it with a TypeError
    or an IndexError."""
    with pytest.raises(SatakeError, match="not an integer"):
        SatakeInvolution(build_root_system("A", 3), compact=compact, psi=psi)


def test_numpy_integer_indices_accepted():
    inv = SatakeInvolution(build_root_system("A", 3), compact=[np.int64(1)], psi=np.array([2, 1, 0]))
    assert inv.validate().ok and inv.compact == {1} and inv.psi == (2, 1, 0)


def loop_theta_perm(inv: SatakeInvolution) -> Tuple[int, ...]:
    """theta* one root at a time, as the library once computed it: w_I as
    a greedy product of reflection tuples, psi applied to the coordinates
    of each root, then the image negated and looked up."""
    rs = inv.ambient
    w = tuple(range(len(rs.roots)))
    while True:
        for i in sorted(inv.compact):
            if w[rs.simple_indices[i]] < rs.num_positive:
                s = reflection(rs, rs.simple_indices[i]).perm
                w = tuple(w[k] for k in s)
                break
        else:
            break
    perm = []
    for v in root_tuples(rs):
        image = [0] * rs.rank
        for i, c in enumerate(v):
            image[inv.psi[i]] = c
        image = root_tuples(rs)[w[root_index(rs, image)]]
        perm.append(root_index(rs, tuple(-x for x in image)))
    return tuple(perm)


def test_theta_perm_matches_loop_oracle():
    for e in all_catalog_entries():
        assert tuple(e.satake.theta_perm().tolist()) == loop_theta_perm(e.satake), (e.series, e.rank, e.label)


def diagram_automorphisms(cartan) -> List[Tuple[int, ...]]:
    """Every permutation sigma of the nodes with C[sigma i][sigma j] = C[i][j],
    by extending partial maps node by node."""
    n = len(cartan)
    found = []

    def extend(image):
        k = len(image)
        if k == n:
            found.append(tuple(image))
            return
        for t in range(n):
            if t not in image and all(
                cartan[k][j] == cartan[t][image[j]] and cartan[j][k] == cartan[image[j]][t]
                for j in range(k)
            ):
                extend(image + [t])

    extend([])
    return found


def satake_data(rs, automorphisms):
    """Every datum (I, psi) on rs with psi one of the given diagram
    automorphisms that is an involution, and I any set of nodes."""
    for psi in automorphisms:
        if any(psi[psi[i]] != i for i in range(rs.rank)):
            continue
        for k in range(rs.rank + 1):
            for compact in combinations(range(rs.rank), k):
                yield SatakeInvolution(rs, compact, psi)


def orbit_key(compact, psi, automorphisms):
    """The least (sorted sigma(I), sigma psi sigma^-1) over the automorphisms."""
    keys = []
    for sigma in automorphisms:
        conjugate = [0] * len(psi)
        for i, j in enumerate(psi):
            conjugate[sigma[i]] = sigma[j]
        keys.append((tuple(sorted(sigma[i] for i in compact)), tuple(conjugate)))
    return min(keys)


def test_admissible_satake_data_are_the_catalog():
    """For each catalog type of rank <= 8, the data (I, psi) with psi an
    involutive diagram automorphism that validate() accepts are, up to
    diagram automorphism, exactly the catalog classes and the compact form
    (I = every node).  Each class has an orbit of its own, except that
    triality takes D4 DIII to DI(2) (so*(8) = so(6,2))."""
    calls = 0
    for series, rank in _catalog_types():
        rs = build_root_system(series, rank)
        automorphisms = diagram_automorphisms(rs.cartan)
        accepted = set()
        for inv in satake_data(rs, automorphisms):
            calls += 1
            if inv.validate().ok:
                accepted.add(orbit_key(inv.compact, inv.psi, automorphisms))
        classes = {}
        for e in catalog_list(series, rank):
            key = orbit_key(e.satake.compact, e.satake.psi, automorphisms)
            classes.setdefault(key, []).append(e.label)
        compact_form = [key for key in accepted if len(key[0]) == rank]
        assert len(compact_form) == 1, (series, rank)
        assert accepted == set(classes) | set(compact_form), (series, rank)
        shared = sorted(labels for labels in classes.values() if len(labels) > 1)
        assert shared == ([["DI(2)", "DIII"]] if (series, rank) == ("D", 4) else [])
    assert calls == 3590


def test_validate_full_catalog():
    for e in all_catalog_entries():
        rep = e.satake.validate()
        assert rep.ok, (e.series, e.rank, e.label, rep.failures)


def test_validate_negative_fixture_compact_everything():
    # I = Delta, psi = id: passes exactly when w0 = -1 (trivial involution);
    # on A2 the fixed set overflows Phi_I and the validator reports it.
    rs = build_root_system("B", 2)
    inv = SatakeInvolution(rs, compact=(0, 1))
    assert inv.validate().ok  # theta* = id, everything compact

    rs = build_root_system("A", 2)
    inv = SatakeInvolution(rs, compact=(0, 1))
    rep = inv.validate()
    assert not rep.ok
    assert any("Phi_I" in f for f in rep.failures)


def test_validate_psi_not_stabilizing_i():
    rs = build_root_system("A", 3)
    inv = SatakeInvolution(rs, compact=(0,), psi=(2, 1, 0))
    rep = inv.validate()
    assert any("stabilize" in f for f in rep.failures)


def test_validate_psi_not_cartan():
    rs = build_root_system("B", 2)
    inv = SatakeInvolution(rs, compact=(), psi=(1, 0))  # swaps long and short
    assert inv.validate().failures == (
        "psi does not preserve the Cartan matrix",
        "psi does not map the root set to itself",
    )
    with pytest.raises(RootSystemError):
        inv.theta_perm()


@pytest.mark.parametrize("series, rank", [("A", 4), ("B", 3), ("D", 4), ("E", 6), ("F", 4)])
def test_every_validated_compact_set_restricts(series, rank):
    """With psi = id, every compact set I that validate() accepts restricts
    without a RootSystemError: Araki's integrality condition rejects the
    sets whose restricted roots would pair non-integrally."""
    rs = build_root_system(series, rank)
    for mask in range(2**rank):
        inv = SatakeInvolution(rs, compact=[i for i in range(rank) if mask >> i & 1])
        if not inv.validate().ok:
            continue
        try:
            restrict(inv)
        except RootSystemError as exc:
            pytest.fail(f"{inv} passes validate() but restrict() raised {exc}")


@pytest.mark.parametrize("series, rank, compact, node", [
    ("B", 3, (0, 2), 2),
    ("D", 4, (0, 2, 3), 2),
    ("F", 4, (1, 2), 4),
    ("F", 4, (1, 2, 3), 1),
])
def test_validate_rejects_non_integral_rho_i(series, rank, compact, node):
    """Sets that restrict without error but are not Satake diagrams: one
    white node j has <alpha_j, rho_I^vee> in 1/2 + Z (nodes 1-based)."""
    inv = SatakeInvolution(build_root_system(series, rank), compact=compact)
    assert inv.validate().failures == (f"<alpha_{node}, rho_I^vee> is not an integer",)


def test_kp_dimensions_split_g2():
    dims = catalog_lookup("G", 2, "G").satake.kp_dimensions()
    assert (dims.g, dims.k, dims.p) == (14, 6, 8)


def test_kp_dimensions_split_e7():
    dims = catalog_lookup("E", 7, "EV").satake.kp_dimensions()
    assert (dims.g, dims.k, dims.p) == (133, 63, 70)


def test_kp_dimensions_trivial_involution():
    rs = build_root_system("B", 2)
    dims = SatakeInvolution(rs, compact=(0, 1)).kp_dimensions()
    assert dims.p == 0 and dims.a == 0 and dims.k == dims.g


def test_kp_dimensions_identity_over_catalog():
    for e in all_catalog_entries():
        d = e.satake.kp_dimensions()
        assert d.k + d.p == d.g
        assert d.m - d.a == d.k - d.p


def test_split_entries_have_full_split_rank():
    for e in all_catalog_entries():
        if e.is_split:
            assert e.satake.kp_dimensions().a == e.rank
        if e.is_quasi_split:
            assert not e.satake.compact


def test_catalog_lookup():
    assert catalog_lookup("E", 7, "EV").fixed_algebra_name == "sl(8)"
    assert catalog_lookup("E", 7, "EV").is_split
    for n in (2, 3, 5, 8):
        assert catalog_lookup("C", n, "CI").fixed_algebra_name == f"gl({n})"
    with pytest.raises(UnknownClassError) as exc:
        catalog_lookup("A", 2, "ZZ")
    assert "AI" in exc.value.available


def test_split_names_match_published_table():
    expected = {
        ("A", 4): "so(5)",
        ("B", 4): "so(4)+so(5)",
        ("C", 4): "gl(4)",
        ("D", 6): "so(6)+so(6)",
        ("E", 6): "sp(8)",
        ("E", 7): "sl(8)",
        ("E", 8): "so(16)",
        ("F", 4): "sp(6)+sl(2)",
        ("G", 2): "sl(2)+sl(2)",
    }
    for (series, rank), k_name in expected.items():
        split = [e for e in catalog_list(series, rank) if e.is_split]
        assert len(split) == 1
        assert split[0].fixed_algebra_name == k_name


def test_catalog_record_round_trip():
    for series, rank in [("A", 5), ("D", 6), ("E", 7)]:
        for e in class_records(series, rank):
            parsed = parse_record(render_record(e))
            # entry equality ignores the Satake datum, so compare it as well
            assert parsed == e
            assert (parsed.satake.compact, parsed.satake.psi) == (e.satake.compact, e.satake.psi)


def test_catalog_file_matches_generator():
    # the checked fixture is exactly what the family templates produce
    text = CATALOG_FIXTURE.read_text()
    assert text == render_catalog()


def test_catalog_extends_beyond_rank_8():
    entries = catalog_list("B", 10)
    assert {e.label for e in entries} == {f"BI({m})" for m in range(1, 11)}
    assert catalog_lookup("C", 9, "CII(4)").satake.validate().ok


def test_out_class():
    assert catalog_lookup("A", 3, "AI").satake.out_class() == (2, 1, 0)  # outer
    assert catalog_lookup("A", 3, "AIII(2,2)").satake.out_class() == (0, 1, 2)
    assert catalog_lookup("D", 4, "DI(3)").satake.out_class() == (0, 1, 3, 2)
    assert catalog_lookup("E", 6, "EIV").satake.out_class() == (5, 1, 4, 3, 2, 0)


def test_minus_one_rank_and_w0_are_computed_once():
    inv = catalog_lookup("E", 7, "EVII").satake
    assert inv.minus_one_rank() == 3
    assert "_minus_one_rank" in vars(inv)
    rs = inv.ambient
    assert rs.longest_element() is rs.longest_element()
    assert np.array_equal(rs.longest_element(), rs.longest_element(range(rs.rank)))
