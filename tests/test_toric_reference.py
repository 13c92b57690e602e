"""The index-built relations and dual comparison map of ``enrichfan.toric``
against the label-keyed reference, the number of bond enumerations
(``graphs._bond_masks`` calls) the kernel check, the ``toric equations``
command and ``verify``'s kernel and torus check cost, the kernel lattices
that check computes, and the triangular rows it compares with them; the
bond sums read off XOR-ed edge masks against the side-pair scan on labels
they replaced.  The toric helpers take ``_bond_masks`` pairs."""

import pytest
from hypothesis import given, settings

import enrichfan.toric
import enrichfan.verify
import reference_toric as ref
from conftest import connected_multigraphs
from enrichfan import corpus
from enrichfan.cli import main
from enrichfan.graphs import MultiGraph, _bond_masks, bits, bonds, is_biconnected
from enrichfan.lattices import _echelon, _triangular, lattice_span_equal, rank_of
from enrichfan.toric import LaurentRelation, _bond_sums, _dual_map_rows, _relations, equations, kernel_rank, relations_generate_kernel
from enrichfan.verify import check_kernel_and_torus


def k4():
    vs = "abcd"
    return MultiGraph(vs, {f"{u}{v}": (u, v) for i, u in enumerate(vs) for v in vs[i + 1:]})


def wheel4():
    rim = "abcd"
    edges = {}
    for i, v in enumerate(rim):
        edges[f"s{v}"] = ("h", v)
        edges[f"r{v}"] = (v, rim[(i + 1) % 4])
    return MultiGraph("h" + rim, edges)


def doubled_square():
    return MultiGraph([1, 2, 3, 4], {"a": (1, 2), "b": (2, 3), "c": (3, 4), "d": (4, 1), "e": (1, 2)})


def mixed_labels():
    return MultiGraph([1, "x", "y"], {1: (1, "x"), "b": (1, "y"), 2: ("x", "y"), "d": ("x", "y")})


def prism():
    edges = {}
    for i in range(3):
        j = (i + 1) % 3
        edges[f"a{i}{j}"] = (f"a{i}", f"a{j}")
        edges[f"b{i}{j}"] = (f"b{i}", f"b{j}")
        edges[f"m{i}"] = (f"a{i}", f"b{i}")
    return MultiGraph([f"{s}{i}" for s in "ab" for i in range(3)], edges)


GRAPHS = {name: corpus.CORPUS[name] for name in corpus.BICONNECTED_CORPUS}
GRAPHS.update(k4=k4, w4=wheel4, prism=prism, doubled_square=doubled_square, mixed_labels=mixed_labels)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_equations_match_reference(name):
    g = GRAPHS[name]()
    assert [r.terms for r in equations(g, 9)] == [r.terms for r in ref.equations(g, 9)]


@settings(max_examples=60, deadline=None)
@given(connected_multigraphs(max_vertices=5, max_edges=7).filter(is_biconnected))
def test_equations_match_reference_on_random_biconnected_graphs(g):
    assert [r.terms for r in equations(g)] == [r.terms for r in ref.equations(g)]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_dual_map_rows_match_reference(name):
    g = GRAPHS[name]()
    all_bonds = bonds(g)
    domain, rows = _dual_map_rows(g, _bond_masks(g))
    labelled = [(all_bonds[i].edges, g.edge_labels[j]) for i, j in domain]
    assert (labelled, rows) == ref._dual_map_rows(g)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_relation_coordinates_match_reference(name):
    # the kernel check reads a relation's coordinates off its index terms;
    # they agree with the reference's coordinates of the labelled relation
    g = GRAPHS[name]()
    masks = _bond_masks(g)
    domain, _ = _dual_map_rows(g, masks)
    for rel, labelled in zip(_relations(g, masks), equations(g, 9), strict=True):
        exponent = {(i, j): x for i, j, x in rel}
        assert tuple(exponent.get(pair, 0) for pair in domain) == ref.relation_coordinates(g, labelled)


def test_kernel_check_enumerates_bonds_once(monkeypatch):
    calls = []
    real = enrichfan.toric._bond_masks

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(enrichfan.toric, "_bond_masks", counted)
    g = wheel4()
    assert relations_generate_kernel(g)
    assert len(calls) == 1


def _count_bonds(monkeypatch, *modules) -> list:
    """Patch ``_bond_masks`` in each of ``modules`` with one counting wrapper; the returned list grows by one graph per call."""
    calls = []

    def counted(g):
        calls.append(g)
        return _bond_masks(g)

    for module in modules:
        monkeypatch.setattr(module, "_bond_masks", counted)
    return calls


def test_toric_equations_command_enumerates_bonds_once(monkeypatch, capsys):
    calls = _count_bonds(monkeypatch, enrichfan.toric)
    k4_text = "vertices: 1 2 3 4; a: 1 2; b: 1 3; c: 1 4; d: 2 3; e: 2 4; f: 3 4"
    for extra in (["--format", "text"], ["--format", "json"], ["--ideal"]):
        assert main(["toric", "equations", "--inline", k4_text, *extra]) == 0
        assert len(calls) == 1, extra
        calls.clear()
    assert "39 relations" in capsys.readouterr().out


def test_kernel_and_torus_check_enumerates_bonds_once_per_graph(monkeypatch):
    calls = _count_bonds(monkeypatch, enrichfan.toric, enrichfan.verify)
    assert check_kernel_and_torus(7) == []
    checked = [corpus.CORPUS[name]() for name in corpus.BICONNECTED_CORPUS if corpus.CORPUS[name]().n_edges <= 5]
    assert calls == checked


def _kernel_checked():
    """The corpus graphs ``check_kernel_and_torus`` checks, by name."""
    return {name: corpus.CORPUS[name]() for name in corpus.BICONNECTED_CORPUS if corpus.CORPUS[name]().n_edges <= 5}


def test_kernel_and_torus_check_computes_one_kernel_lattice_per_graph(monkeypatch):
    # both kernel checks read one normal form; ``verify`` is patched too in
    # case it reaches ``kernel_lattice`` itself
    calls = []
    real = enrichfan.toric.kernel_lattice

    def counted(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(enrichfan.toric, "kernel_lattice", counted)
    monkeypatch.setattr(enrichfan.verify, "kernel_lattice", counted, raising=False)
    assert check_kernel_and_torus(7) == []
    assert calls == [g.n_edges - 1 for g in _kernel_checked().values()]


def test_kernel_and_torus_check_reports_a_broken_rank_formula(monkeypatch):
    # a formula off by one fails the rank line alone: the generation check
    # compares the kernel with the relations, not with the formula
    real = enrichfan.verify._kernel_rank
    monkeypatch.setattr(enrichfan.verify, "_kernel_rank", lambda g, masks: real(g, masks) + 1)
    expected = [
        f"{name}: normal-form kernel rank {kernel_rank(g)} != formula {kernel_rank(g) + 1}"
        for name, g in _kernel_checked().items()
    ]
    assert check_kernel_and_torus(7) == expected


def test_kernel_and_torus_check_counts_a_dropped_bond(monkeypatch):
    # the relations, the dual map and its kernel are all read off one bond list,
    # so they agree with one another when it lacks a bond; only the bonds
    # counted on edge subsets, apart from that list, see the loss
    real = enrichfan.graphs._bond_masks

    def dropped(g):
        masks = real(g)
        return masks[:-1] if len(masks) >= 3 else masks

    monkeypatch.setattr(enrichfan.verify, "_bond_masks", dropped)
    expected = [
        f"{name}: {len(real(g)) - 1} bonds enumerated, {len(real(g))} edge sets cut the graph in two"
        for name, g in _kernel_checked().items()
        if len(real(g)) >= 3
    ]
    assert len(expected) == 3
    assert check_kernel_and_torus(7) == expected


def _relation_rows(g, masks) -> tuple:
    """The relations as dense rows over the dual map's domain, with the column count."""
    domain, _ = _dual_map_rows(g, masks)
    rows = []
    for rel in _relations(g, masks):
        exponent = {(i, j): x for i, j, x in rel}
        rows.append(tuple(exponent.get(pair, 0) for pair in domain))
    return rows, len(domain)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_triangular_rows_span_the_relation_lattice(name):
    # the kernel check hands lattice_span_equal the triangular rows, not the
    # relations: they span the same lattice (equal Hermite forms) with one
    # row per rank
    g = GRAPHS[name]()
    dense, ncols = _relation_rows(g, _bond_masks(g))
    basis = _triangular([{k: x for k, x in enumerate(row) if x} for row in dense])
    tri = [tuple(row.get(c, 0) for c in range(ncols)) for row in basis.values()]
    assert len(tri) == rank_of(dense) if dense else tri == []
    assert lattice_span_equal(tri, dense, ncols)
    e, f = _echelon(tri, ncols), _echelon(dense, ncols)
    assert e.rows[: e.rank] == f.rows[: f.rank]


@pytest.mark.parametrize("name", sorted(name for name, make in GRAPHS.items() if kernel_rank(make())))
def test_kernel_check_refuses_doubled_relations(name, monkeypatch):
    # every relation doubled spans a sublattice of index 2^rank of a nonzero
    # kernel: the check must fail
    g = GRAPHS[name]()
    real = enrichfan.toric._relations
    assert relations_generate_kernel(g, 9)
    monkeypatch.setattr(
        enrichfan.toric, "_relations", lambda g, masks: [tuple((i, j, 2 * x) for i, j, x in rel) for rel in real(g, masks)]
    )
    assert not relations_generate_kernel(g, 9)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_bond_sums_match_reference(name):
    g = GRAPHS[name]()
    assert _bond_sums(g, _bond_masks(g)) == ref.cut_scan_bond_sums(g, bonds(g))


@settings(max_examples=60, deadline=None)
@given(connected_multigraphs(max_vertices=5, max_edges=7).filter(is_biconnected))
def test_bond_sums_match_reference_on_random_biconnected_graphs(g):
    assert _bond_sums(g, _bond_masks(g)) == ref.cut_scan_bond_sums(g, bonds(g))


def test_bond_sums_are_found():
    # the comparisons above are not all between empty sets
    assert all(_bond_sums(GRAPHS[name](), _bond_masks(GRAPHS[name]())) for name in ("k4", "w4", "prism", "doubled_square"))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_trusted_relations_pass_the_constructor(name):
    # ``equations`` builds its relations unchecked; the checked constructor
    # accepts every one of them and gives an equal value
    for rel in equations(GRAPHS[name](), 9):
        assert LaurentRelation(rel.terms) == rel


@pytest.mark.parametrize("name", sorted(name for name, make in GRAPHS.items() if kernel_rank(make())))
def test_kernel_check_refuses_a_relation_outside_the_kernel(name, monkeypatch):
    # x_e1^B = x_e2^B on one bond sums to zero within it but maps to
    # e1* - e2*, not zero: the relations then span more than the kernel, and
    # the check must see that the relations' lattice is not inside it
    g = GRAPHS[name]()
    real = enrichfan.toric._relations
    i, (e1, e2, *_) = next((i, list(bits(cut))) for i, (_, cut) in enumerate(_bond_masks(g)) if cut.bit_count() > 1)
    planted = ((i, e1, 1), (i, e2, -1))
    monkeypatch.setattr(enrichfan.toric, "_relations", lambda g, masks: (*real(g, masks), planted))
    assert not relations_generate_kernel(g, 9)
