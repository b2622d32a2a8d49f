"""Framed polynomial evaluators against hand-resolved and structural oracles."""

import hashlib
import json
import random
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import annihilated_windows, fox_minor, mirror, port_list, port_pairs, reference_clusters
from skeinkit.cli import run as cli_run
from skeinkit.corpus import (
    braid_closure,
    corpus_names,
    empty_link,
    figure_eight,
    hopf_minus,
    hopf_plus,
    load_corpus,
    trefoil,
    unknot,
    unlink,
)
from skeinkit.eigen import (
    adjoint_meridian_eigenvalue,
    delta_homfly,
    delta_kauffman,
    homfly_meridian_eigenvalue,
    kauffman_meridian_eigenvalue,
)
from skeinkit.diagram import LinkDiagram
from skeinkit.partition import Partition
from skeinkit.ring import LaurentPoly, RingElem, vpow, z_poly
from skeinkit import skein_eval
from skeinkit.skein_eval import (
    ORIENTED,
    UNORIENTED,
    EvalConfig,
    SkeinBudgetError,
    adjoint_homfly,
    clear_caches,
    homfly,
    kauffman,
    skein_relation_probe,
)
from skeinkit.verify import build_satellite_row, verify_rudolph

dH = delta_homfly()
dK = delta_kauffman()
z = RingElem(z_poly())
v = RingElem(vpow(1))
vi = RingElem(vpow(-1))
one = RingElem.one()


class TestHomflyOracles:
    """Values resolved by hand through the crossing relation."""

    def test_empty_and_circles(self):
        assert homfly(empty_link()) == one
        assert homfly(unknot()) == dH
        assert homfly(unlink(3)) == dH ** 3

    def test_hopf_links(self):
        assert homfly(hopf_plus()) == dH * dH + z * vi * dH
        assert homfly(hopf_minus()) == dH * dH - z * v * dH

    def test_trefoil(self):
        assert homfly(trefoil()) == dH * (vi + vi - v + vi * z * z)

    def test_figure_eight(self):
        assert homfly(figure_eight()) == dH * (vi * vi + v * v - one - z * z)

    def test_curl_factors(self):
        assert homfly(unknot().with_curl(0, 1)) == vi * dH
        assert homfly(unknot().with_curl(0, -1)) == v * dH

    def test_mirror_inverts_v(self):
        assert homfly(mirror(trefoil())) == dH * (v + v - vi + v * z * z)


class TestKauffmanOracles:
    def test_empty_and_circle(self):
        assert kauffman(empty_link()) == one
        assert kauffman(unknot()) == dK

    def test_hopf_links(self):
        want = dK * dK + z * dK * (vi - v)
        assert kauffman(hopf_plus()) == want
        # the framed value is fixed by v -> 1/v, s -> 1/s, so the mirror
        # diagram evaluates identically
        assert kauffman(hopf_minus()) == want

    def test_trefoil(self):
        # switch one crossing: positive curl; one smoothing: the hopf
        # diagram; the other caps the clasp into two negative kinks
        smooth_plus = dK * dK + z * dK * (vi - v)
        smooth_minus = v * v * dK
        assert kauffman(trefoil()) == vi * dK + z * (smooth_plus - smooth_minus)

    def test_curl_factors(self):
        assert kauffman(unknot().with_curl(0, 1)) == vi * dK
        assert kauffman(unknot().with_curl(0, -1)) == v * dK

    def test_orientation_independence(self):
        assert kauffman(hopf_plus().reverse_component(0)) == kauffman(hopf_plus())
        assert kauffman(trefoil().reverse_component(0)) == kauffman(trefoil())


class TestMeridianAnchors:
    """A meridian bead multiplies the invariant by its eigenvalue."""

    def test_kauffman_powers(self):
        c1 = kauffman_meridian_eigenvalue(Partition((1,)))
        for r in (1, 2):
            got = kauffman(unknot().with_meridians(0, r))
            assert got == dK * c1 ** r

    def test_homfly_powers(self):
        s1 = homfly_meridian_eigenvalue(Partition((1,)), Partition(()))
        for r in (1, 2):
            got = homfly(unknot().with_meridians(0, r))
            assert got == dH * s1 ** r

    def test_reversed_meridian(self):
        s1_rev = homfly_meridian_eigenvalue(Partition(()), Partition((1,)))
        got = homfly(hopf_plus().reverse_component(0))
        assert got == dH * s1_rev


class TestStructure:
    def test_split_multiplicativity(self):
        u = hopf_plus().disjoint_union(trefoil())
        assert homfly(u) == homfly(hopf_plus()) * homfly(trefoil())
        assert kauffman(u) == kauffman(hopf_plus()) * kauffman(trefoil())

    def test_memo_off_agrees(self):
        cfg = EvalConfig(memo=False)
        clear_caches()
        assert homfly(figure_eight(), cfg) == homfly(figure_eight())
        assert kauffman(trefoil(), cfg) == kauffman(trefoil())
        assert homfly(trefoil(), cfg) == dH * (vi + vi - v + vi * z * z)
        assert kauffman(figure_eight(), cfg) == kauffman(figure_eight())

    def test_budget_enforced(self):
        with pytest.raises(SkeinBudgetError):
            homfly(trefoil(), EvalConfig(max_crossings=2))
        with pytest.raises(SkeinBudgetError):
            kauffman(figure_eight(), EvalConfig(max_crossings=3))

    def test_crossing_limit_whatever_the_budget(self):
        # a memo key entry packs a crossing id into 16 bits, so a diagram
        # too large for that is refused before any key is made
        d = braid_closure(2, [1] * 16384)
        cfg = EvalConfig(max_crossings=20000)
        for run in (homfly, kauffman):
            with pytest.raises(SkeinBudgetError, match="16384 crossings exceed the engine's limit of 16383"):
                run(d, cfg)

    def test_clear_caches_empties_the_memo_and_values(self, monkeypatch):
        resolves = _count_resolves(monkeypatch)
        counts = []
        for _ in range(2):
            clear_caches()
            assert not skein_eval._MEMO and not skein_eval._VALUES
            before = resolves["calls"]
            homfly(figure_eight())
            kauffman(figure_eight())
            assert skein_eval._MEMO and skein_eval._VALUES
            counts.append(resolves["calls"] - before)
        clear_caches()
        assert not skein_eval._MEMO and not skein_eval._VALUES
        assert counts[0] == counts[1] > 0

    def test_adjoint_terms_sized_before_any_is_built(self, monkeypatch):
        # the trefoil's doubled term would have 12 crossings: it is refused
        # with the message its built diagram would get, and nothing is cabled
        cabled = []
        monkeypatch.setattr(skein_eval.Mesh, "cable", lambda mesh, *args: cabled.append(args))
        with pytest.raises(SkeinBudgetError) as refusal:
            adjoint_homfly(trefoil(), EvalConfig(max_crossings=11))
        assert str(refusal.value) == "trefoil.cable(0,2).rev(1): 12 crossings exceed the budget of 11"
        assert cabled == []

    def test_adjoint_term_sizes_are_the_built_sizes(self, monkeypatch):
        checked, built = [], []
        monkeypatch.setattr(
            skein_eval, "_check_size", lambda name, crossings, cfg: checked.append((name, crossings))
        )

        def record(term, flavor, config):
            built.append((term.name, len(term.crossings)))
            return LaurentPoly.zero()

        monkeypatch.setattr(skein_eval, "_run", record)
        for name in corpus_names():
            d = load_corpus(name)
            adjoint_homfly(d)
            for comp in range(d.n_components):
                for r in range(4):
                    adjoint_homfly(build_satellite_row(d, comp, r))
        assert checked == built

    @pytest.mark.parametrize("ci", [0, 1, 2])
    def test_relation_probe_trefoil(self, ci):
        assert skein_relation_probe(trefoil(), ci, "oriented")["holds"]
        assert skein_relation_probe(trefoil(), ci, "unoriented")["holds"]

    def test_probe_rejects_bad_index(self):
        with pytest.raises(ValueError):
            skein_relation_probe(trefoil(), 5)

    def test_recursion_limit_never_set(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"the recursion limit was set to {limit}")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        homfly(trefoil())
        kauffman(trefoil())
        adjoint_homfly(hopf_plus())
        skein_relation_probe(figure_eight(), 0, "unoriented")

    def test_deep_tree_within_a_low_recursion_limit(self, monkeypatch):
        # T(2,100) nests 50 resolutions: ~150 frames for an evaluator that
        # recurses three calls a level.  One loop fits in a limit a few
        # dozen frames above this test's own depth, which no run may raise
        d = braid_closure(2, [1] * 100)
        cfg = EvalConfig(max_crossings=100)
        clear_caches()
        want = homfly(d, cfg)
        clear_caches()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old, set_limit = sys.getrecursionlimit(), sys.setrecursionlimit
        set_limit(depth + 40)
        monkeypatch.setattr(sys, "setrecursionlimit", lambda limit: None)
        try:
            got = homfly(d, cfg)
        finally:
            set_limit(old)
            clear_caches()
        assert got == want

    def test_probe_rejects_unknown_flavor(self):
        with pytest.raises(ValueError):
            skein_relation_probe(trefoil(), 0, "Oriented")


def vz_polys():
    """Laurent polynomials in v and z = s - s^-1, engine values: z exponents
    negative, zero and positive, and the zero polynomial."""
    exponents = st.tuples(st.integers(-3, 3), st.integers(-4, 4))
    return st.builds(LaurentPoly, st.lists(st.tuples(exponents, st.integers(-4, 4)), max_size=6))


class TestValueRepresentation:
    """Engine values are polynomials in v and z, converted once per evaluation."""

    @given(value=vz_polys())
    @settings(max_examples=200)
    def test_conversion_matches_the_ring(self, value):
        want = RingElem.zero()
        for (a, b), c in value.terms().items():
            want = want + c * RingElem(vpow(a)) * z ** b
        got = skein_eval._to_ring_elem(value)
        assert got == want
        # the denominator is the value's z-valuation, with nothing cancelled
        k = max([0] + [-b for _, b in value.terms()])
        assert got.den == RingElem(1, z_poly() ** k).den

    @pytest.mark.parametrize("flavor", [ORIENTED, UNORIENTED])
    def test_memo_off_agrees_before_conversion(self, flavor):
        # the closures share one memo, and equal values share one object
        words = _seeded_braids(20)
        clear_caches()
        try:
            shared = [skein_eval._run(d, flavor, None) for d in words]
        finally:
            clear_caches()
        memo_off = EvalConfig(memo=False)
        assert [skein_eval._run(d, flavor, memo_off) for d in words] == shared


class TestAdjoint:
    def test_unknot_golden(self):
        assert adjoint_homfly(unknot()) == dH * dH - one

    def test_empty(self):
        assert adjoint_homfly(empty_link()) == one

    @pytest.mark.parametrize(
        "make", [unknot, lambda: unlink(2), hopf_plus, hopf_minus, trefoil, figure_eight]
    )
    def test_mod2_matches_doubled_kauffman(self, make):
        d = make()
        cfg = EvalConfig(max_crossings=64)
        adj = adjoint_homfly(d, cfg).to_mod2()
        dbl = kauffman(d, cfg).to_mod2().doubling_map()
        assert adj == dbl

    @pytest.mark.parametrize("r", [1, 2])
    def test_mod2_satellite_rows(self, r):
        d = unknot().with_meridians(0, r).cable(0, 2)
        cfg = EvalConfig(max_crossings=64)
        adj = adjoint_homfly(d, cfg).to_mod2()
        dbl = kauffman(d, cfg).to_mod2().doubling_map()
        assert adj == dbl


def _wrapper_route_adjoint(d, config):
    """adjoint_homfly the long way: every term built by the public surgery
    wrappers and evaluated by homfly, the terms summed as RingElems."""
    n = d.n_components
    total = RingElem.zero()
    for mask in range(1 << n):
        kept = [i for i in range(n) if mask & (1 << i)]
        term = d
        for i in reversed(range(n)):
            if i not in kept:
                term = term.delete_component(i)
        for pos in reversed(range(len(kept))):
            term = term.cable(pos, 2).reverse_component(pos + 1)
        value = homfly(term, config)
        total = total - value if (n - len(kept)) % 2 else total + value
    return total


def _oracle_links():
    """Every corpus link and every satellite row of 1 to 4 crossings."""
    links = []
    for name in corpus_names():
        d = load_corpus(name)
        links.append(d)
        for comp in range(d.n_components):
            for r in range(4):
                row = build_satellite_row(d, comp, r)
                if 0 < len(row.crossings) <= 4:
                    links.append(row)
    return links


class TestAdjointOracle:
    """adjoint_homfly against an independent route to the same sum."""

    @pytest.mark.parametrize("memo", [True, False], ids=["memo-on", "memo-off"])
    @pytest.mark.parametrize("d", _oracle_links(), ids=lambda d: d.name)
    def test_matches_wrapper_route(self, d, memo):
        cfg = EvalConfig(max_crossings=64, memo=memo)
        got = adjoint_homfly(d, cfg)
        want = _wrapper_route_adjoint(d, cfg)
        assert got == want
        assert got.render() == want.render()


def _propagate_in_out(fixed, opposites):
    """In (True) or out (False) for every port reachable from `fixed`.

    `opposites(port)` lists the ports whose status is the opposite one:
    the other end of the port's arc (arcs run from an out-port to an
    in-port) and, on an over strand, the slot opposite it.  A port the
    propagation meets twice must get the same status both times.
    """
    status = dict(fixed)
    queue = list(fixed)
    while queue:
        port = queue.pop()
        for other in opposites(port):
            if other in status:
                assert status[other] != status[port]
            else:
                status[other] = not status[port]
                queue.append(other)
    return status


def _signs_from_key_ports(rows):
    """Crossing signs read off an oriented key's port entries alone.

    Entry r of row i is the partner (j, t) of slot u_i + r, with u the
    under-in slot, so offsets 0 and 2 are the under-in and under-out ports
    and the over strand runs between offsets 1 and 3.  The sign is +1 when
    offset 3 is the over-in port, None when no under port reaches it.
    """
    fixed = {}
    for i in range(len(rows)):
        fixed[(i, 0)], fixed[(i, 2)] = True, False

    def opposites(port):
        i, r = port
        return [rows[i][r]] + ([(i, r ^ 2)] if r % 2 else [])

    status = _propagate_in_out(fixed, opposites)
    return [None if (i, 3) not in status else (1 if status[(i, 3)] else -1) for i in range(len(rows))]


def _all_over_crossings(cross, partner):
    """Crossings of a state whose over strand no under port reaches: those
    on components that pass over at every crossing."""
    partner = port_pairs(cross, partner)
    fixed = {}
    for c, (u, _) in cross.items():
        fixed[(c, u)], fixed[(c, (u + 2) % 4)] = True, False

    def opposites(port):
        c, s = port
        over = s % 2 == cross[c][1] % 2
        return [partner[port]] + ([(c, (s + 2) % 4)] if over else [])

    status = _propagate_in_out(fixed, opposites)
    return {c for c, (_, o) in cross.items() if (c, o) not in status}


def _key_rows(key):
    """A packed memo key's rows of (crossing number, slot offset) pairs.

    The key is a flavor byte, then one unsigned 16-bit entry
    `number * 4 + offset` per port, four ports a row.
    """
    assert isinstance(key, bytes) and key[:1] in (b"o", b"u")
    entries = array("H", key[1:])
    pairs = [(x // 4, x % 4) for x in entries]
    return tuple(tuple(pairs[i:i + 4]) for i in range(0, len(pairs), 4))


def _key_numbering(cross, partner, key):
    """The crossings in the order that an oriented key's rows number them.

    Walks breadth-first from every crossing, reading each crossing's slots
    from its under-in slot on, until one walk writes the key's rows.
    """
    partner = port_pairs(cross, partner)
    rows = _key_rows(key)
    for seed in sorted(cross):
        ids = {seed: 0}
        order = [seed]
        written = []
        for c in order:
            row = []
            for r in range(4):
                c2, s2 = partner[(c, (cross[c][0] + r) % 4)]
                if c2 not in ids:
                    ids[c2] = len(order)
                    order.append(c2)
                row.append((ids[c2], (s2 - cross[c2][0]) % 4))
            written.append(tuple(row))
        if tuple(written) == rows:
            return order
    raise AssertionError("no walk writes the key's rows")


def _cluster_key(cross, partner, flavor):
    """The memo key of a state of one cluster."""
    [(part, key)] = skein_eval._keyed_clusters(cross, partner, flavor)
    assert part is cross
    return key


def _record_keyed_states(monkeypatch, flavor, links):
    """Every cluster state the engine keys while evaluating `links`."""
    states = []
    real = skein_eval._keyed_clusters

    def recording(cross, partner, flavor):
        parts = real(cross, partner, flavor)
        states.extend((dict(part), list(partner)) for part, _ in parts)
        return parts

    monkeypatch.setattr(skein_eval, "_keyed_clusters", recording)
    try:
        _evaluate_all(flavor, links)
    finally:
        monkeypatch.undo()
    return states


def _keyed_states(monkeypatch):
    """Every oriented cluster state the engine keys while evaluating the
    corpus links' satellite rows of up to 12 crossings and two braid
    closures whose resolution trees reach components that pass over at
    every crossing."""
    links = [
        braid_closure(3, [-1, -1, 2, -1, 2, -1, -1, -1, 2, -2, 1, 2]),
        braid_closure(4, [-3, -2, -1, -1, -2, -2, -1, 3, 2, 3, -1, -1]),
    ]
    return _record_keyed_states(monkeypatch, ORIENTED, links + _satellite_rows_to_12())


class TestCanonicalKey:
    """Oriented keys hold no crossing sign.

    A key's port entries imply the sign of every crossing its rows number,
    except those on a component that passes over at every crossing.
    Reversing such a component leaves the key unchanged, so it must leave
    the value unchanged too, or keys without the sign would be unsound.
    """

    def test_port_entries_imply_the_sign(self, monkeypatch):
        implied = 0
        for cross, partner in _keyed_states(monkeypatch):
            key = _cluster_key(cross, partner, ORIENTED)
            all_over = _all_over_crossings(cross, partner)
            order = _key_numbering(cross, partner, key)
            for c, sign in zip(order, _signs_from_key_ports(_key_rows(key)), strict=True):
                assert (sign is None) == (c in all_over)
                if sign is not None:
                    assert sign == _reference_sign(cross[c])
                    implied += 1
        assert implied > 100

    def test_all_over_component_orientation_is_invisible(self, monkeypatch):
        checked = 0
        for cross, partner in _keyed_states(monkeypatch):
            flip = _all_over_crossings(cross, partner)
            if not flip:
                continue
            reversed_cross = {c: (u, (o + 2) % 4) if c in flip else (u, o) for c, (u, o) in cross.items()}
            keys = [_cluster_key(state, partner, ORIENTED) for state in (cross, reversed_cross)]
            assert keys[0] == keys[1]
            values = [
                skein_eval._to_ring_elem(skein_eval._evaluate(dict(state), list(partner), ORIENTED, False, state))
                for state in (cross, reversed_cross)
            ]
            assert values[0] == values[1]
            checked += 1
        assert checked > 0


def _reference_sign(datum):
    u, o = datum
    return 1 if (o - u) % 4 == 3 else -1


def _reference_local_sig(cross, partner, flavor, c):
    # `partner` as (crossing, slot) pairs, see `port_pairs`
    if flavor == ORIENTED:
        u = cross[c][0]
        row = [_reference_sign(cross[c])]
        for r in range(4):
            c2, s2 = partner[(c, (u + r) % 4)]
            row.append((_reference_sign(cross[c2]), (s2 - cross[c2][0]) % 4, c2 == c))
        return tuple(row)
    best = None
    b0 = cross[c][0] % 2
    for base in (b0, b0 + 2):
        row = []
        for r in range(4):
            c2, s2 = partner[(c, (base + r) % 4)]
            rel = (s2 - cross[c2][0] % 2) % 4
            row.append((min(rel, (rel + 2) % 4), c2 == c))
        t = tuple(row)
        if best is None or t < best:
            best = t
    return best


def reference_canonical_key(cross, partner, flavor):
    """The key of `skein_eval._keyed_clusters` in an earlier form, unpacked,
    whose classes it must induce: one signature call per crossing, each sign
    recomputed where it is read, and both bases of every unoriented crossing
    of lowest signature seeded."""
    partner = port_pairs(cross, partner)
    sigs = {c: _reference_local_sig(cross, partner, flavor, c) for c in cross}
    low = min(sigs.values())
    cids = sorted(c for c in cross if sigs[c] == low)
    if flavor == ORIENTED:
        seeds = [(c, cross[c][0]) for c in cids]
    else:
        seeds = []
        for c in cids:
            base = cross[c][0] % 2
            seeds.append((c, base))
            seeds.append((c, base + 2))
    best = None
    for seed, base in seeds:
        ids = {seed: 0}
        rots = {seed: base}
        queue = [seed]
        rows = []
        qi = 0
        status = 0
        while qi < len(queue):
            c = queue[qi]
            qi += 1
            b = rots[c]
            row = [_reference_sign(cross[c])] if flavor == ORIENTED else []
            for r in range(4):
                c2, s2 = partner[(c, (b + r) % 4)]
                if c2 not in ids:
                    ids[c2] = len(queue)
                    if flavor == ORIENTED:
                        rots[c2] = cross[c2][0]
                    else:
                        b2 = cross[c2][0] % 2
                        rots[c2] = b2 if (s2 - b2) % 4 in (0, 1) else b2 + 2
                    queue.append(c2)
                row.append((ids[c2], (s2 - rots[c2]) % 4))
            rowt = tuple(row)
            if best is not None and status == 0:
                ref = best[len(rows)]
                if rowt > ref:
                    rows = None
                    break
                if rowt < ref:
                    status = 1
            rows.append(rowt)
        if rows is not None and (best is None or status == 1):
            best = rows
    return (flavor, tuple(best))


def _seeded_braids(count, seed=5):
    """Closures of seeded 20-letter 3-braid words, no letter next to its inverse.

    Seed 1 gives the benchmark's braid_family words, named as there.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        word = []
        while len(word) < 20:
            letter = rng.choice((1, 2, -1, -2))
            if not word or word[-1] != -letter:
                word.append(letter)
        out.append(braid_closure(3, word, f"braid{i}"))
    return out


def _count_resolves(monkeypatch) -> dict:
    """Count `_resolve` calls from now on, under the returned dict's "calls"."""
    counter = {"calls": 0}
    inner = skein_eval._resolve

    def counting(*args):
        counter["calls"] += 1
        return inner(*args)

    monkeypatch.setattr(skein_eval, "_resolve", counting)
    return counter


def _evaluate_all(flavor, links):
    run = homfly if flavor == ORIENTED else kauffman
    clear_caches()
    try:
        for d in links:
            run(d, EvalConfig(max_crossings=64))
    finally:
        clear_caches()


class TestEngineRewritesExact:
    """The engine's faster paths against the code they replaced, state by state.

    Inputs: the corpus satellite rows of <= 12 crossings and six seeded
    20-letter 3-braid closures, in both flavors.
    """

    @pytest.mark.parametrize("flavor", [ORIENTED, UNORIENTED])
    def test_keys_equal_reference(self, flavor, monkeypatch):
        # keys are packed, so they are compared by the classes they induce:
        # unoriented keys are equal exactly when the reference's are;
        # oriented keys hold no sign, so they may merge reference classes,
        # but only ones of one value
        real = skein_eval._keyed_clusters
        classes = {}  # key -> {reference key: one state keyed so}
        keyed = 0

        def comparing(cross, partner, flavor):
            nonlocal keyed
            parts = real(cross, partner, flavor)
            for part, key in parts:
                ref = reference_canonical_key(part, partner, flavor)
                classes.setdefault(key, {}).setdefault(ref, (dict(part), list(partner)))
                keyed += 1
            return parts

        monkeypatch.setattr(skein_eval, "_keyed_clusters", comparing)
        _evaluate_all(flavor, _satellite_rows_to_12() + _seeded_braids(6))
        monkeypatch.undo()
        assert keyed > 1000
        refs = [ref for group in classes.values() for ref in group]
        assert len(refs) == len(set(refs))  # equal reference keys, equal keys
        merged = [group for group in classes.values() if len(group) > 1]
        for group in merged:
            values = [
                skein_eval._to_ring_elem(skein_eval._evaluate(dict(cross), list(partner), flavor, False, cross))
                for cross, partner in group.values()
            ]
            assert all(value == values[0] for value in values)
        assert bool(merged) == (flavor == ORIENTED)

    @pytest.mark.parametrize("flavor", [ORIENTED, UNORIENTED])
    def test_keys_ignore_labels(self, flavor, monkeypatch):
        # relabel each keyed state: permute its crossing ids and rotate each
        # crossing's slots; unoriented, also reverse some crossings' data
        rng = random.Random(11)
        states = _record_keyed_states(monkeypatch, flavor, _satellite_rows_to_12())
        for cross, partner in states:
            want = _cluster_key(cross, partner, flavor)
            for _ in range(4):
                name = dict(zip(cross, rng.sample(list(cross), len(cross))))
                turn = {c: rng.randrange(4) for c in cross}
                flip = {c: 2 * rng.randrange(2) if flavor == UNORIENTED else 0 for c in cross}

                def port(p):
                    c, s = p
                    return name[c], (s + turn[c]) % 4

                relabeled = {
                    name[c]: ((u + turn[c] + flip[c]) % 4, (o + turn[c] + flip[c]) % 4)
                    for c, (u, o) in cross.items()
                }
                moved = {port(a): port(b) for a, b in port_pairs(cross, partner).items()}
                moved = port_list(moved, len(partner) // 4)
                assert _cluster_key(relabeled, moved, flavor) == want
        assert len(states) > 100

    @pytest.mark.parametrize("flavor", [ORIENTED, UNORIENTED])
    def test_local_simplify_equals_full(self, flavor, monkeypatch):
        # a child seeded with the crossings its resolution changed must end
        # as it would have if every crossing had been examined
        real = skein_eval._simplify
        seeded = []

        def checking(cross, partner, seeds):
            if set(seeds) >= set(cross):
                return real(cross, partner, seeds)
            full_cross, full_partner = dict(cross), list(partner)
            want = real(full_cross, full_partner, list(full_cross))
            got = real(cross, partner, seeds)
            assert got == want
            assert cross == full_cross
            assert port_pairs(cross, partner) == port_pairs(full_cross, full_partner)
            seeded.append(len(seeds))
            return got

        monkeypatch.setattr(skein_eval, "_simplify", checking)
        _evaluate_all(flavor, _satellite_rows_to_12() + _seeded_braids(6))
        assert len(seeded) > 1000


def _simplification_faults(cross, partner):
    """What a simplified state holds none of, each as the ports (c, s) it
    starts from: ports joined to their own crossing, curls (arcs joining
    adjacent slots of one crossing), and parallel pairs that keep their
    levels (slots s, s + 1 of c joined to slots s2, s2 - 1 of another
    crossing, with slot s over exactly when slot s2 is)."""
    self_joined, curls, bigons = [], [], []
    for c, (_, o) in cross.items():
        for s in range(4):
            c2, s2 = divmod(partner[4 * c + s], 4)
            if c2 == c:
                self_joined.append((c, s))
                if (s2 - s) % 2:
                    curls.append((c, s))
            elif partner[4 * c + (s + 1) % 4] == 4 * c2 + (s2 - 1) % 4:
                # a slot is over when it has the over-in slot's parity
                if (s - o) % 2 == (s2 - cross[c2][1]) % 2:
                    bigons.append((c, s))
    return self_joined, curls, bigons


class TestSimplifiedStates:
    """Every state `_keyed_clusters` and `_find_clasp` receive is simplified:
    no port joined to its own crossing, no curl, no parallel pair that
    keeps its levels.  Signatures carry no self-loop flag and `_find_clasp`
    has no level test because of it."""

    def check(self, monkeypatch, run):
        checked = {"_keyed_clusters": 0, "_find_clasp": 0}
        for name in checked:
            inner = getattr(skein_eval, name)

            def checking(cross, partner, *args, _name=name, _inner=inner):
                assert _simplification_faults(cross, partner) == ([], [], [])
                checked[_name] += 1
                return _inner(cross, partner, *args)

            monkeypatch.setattr(skein_eval, name, checking)
        clear_caches()
        try:
            run()
        finally:
            clear_caches()
            monkeypatch.undo()
        return checked

    @pytest.mark.parametrize("memo, count", [(True, 20), (False, 2)])
    def test_braid_family_words(self, memo, count, monkeypatch):
        # the benchmark's first 20 braid_family closures, both flavors;
        # without the memo only the first 2 (all 20 take ~30 s)
        config = EvalConfig(memo=memo)

        def run():
            for d in _seeded_braids(20, seed=1)[:count]:
                homfly(d, config)
                kauffman(d, config)

        checked = self.check(monkeypatch, run)
        assert checked["_keyed_clusters"] > 1000 and checked["_find_clasp"] > 1000

    @pytest.mark.parametrize("memo", [True, False])
    def test_satellite_rows_up_to_6_crossings(self, memo, monkeypatch):
        config = EvalConfig(memo=memo)

        def run():
            for row in TestEngineWork().rows():
                kauffman(row, config)
                adjoint_homfly(row, config)

        checked = self.check(monkeypatch, run)
        assert checked["_keyed_clusters"] > (1000 if not memo else 50)
        assert checked["_find_clasp"] > (1000 if not memo else 10)

    def test_relation_probe_on_curls(self, monkeypatch):
        # a closure with curls away from the probed crossing: the probe
        # resolves the state as given, and its children must be simplified
        # in full before the engine keys them
        d = braid_closure(3, [1, -2, 1, 1, 1])

        def run():
            for ci in range(len(d.crossings)):
                for flavor in (ORIENTED, UNORIENTED):
                    assert skein_relation_probe(d, ci, flavor)["holds"]

        assert any(_simplification_faults(*skein_eval._build_state(d)))
        assert self.check(monkeypatch, run)["_keyed_clusters"] > 20


def _rendered_probe_sha256(d):
    lines = []
    for ci in range(len(d.crossings)):
        for flavor in (ORIENTED, UNORIENTED):
            probe = skein_relation_probe(d, ci, flavor)
            lines.append(json.dumps(
                {k: x.render() if isinstance(x, RingElem) else x for k, x in probe.items()},
                sort_keys=True,
            ))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _probe_links():
    links = [load_corpus(name) for name in corpus_names()]
    # a curl is a kink the probe's unsimplified children keep
    links += [trefoil().with_curl(0, 1), figure_eight().with_curl(0, -1)]
    return [d for d in links if d.crossings]


PROBE_SHA256 = {
    "hopf_plus": "6d8d1f7e4ffef1128f21ad563d2a2a2b9b9622c1e6b7438fc2781050f9c53f4f",
    "hopf_minus": "0c69f51fa3304a69e9e8567752bd66ce92f919a0471ca080ed0807bb8a5555a1",
    "trefoil": "2c61fd8aa0f99b13d481a62e4e4d642329f819daa769dd9a96904082ab827c88",
    "figure_eight": "08c8a3f15d8abdb5710b628e58949422fad572d33c5eedf95284fd0e05ad6531",
    "trefoil.curl(0,+1)": "7eef9b4a1c32ca0808706a6764a9e10b7a3300b9a87aaa1b2ab950e0d253e8ac",
    "figure_eight.curl(0,-1)": "bc902fbfa0325af0af0b8f425e37cfdac56d773b388b2474190ecb1a5d672254",
}


class TestProbePinned:
    """`skein_relation_probe` resolves an unsimplified state, so its children
    are simplified only around the resolved crossing.  Their values, as
    rendered, are pinned to the ones every child got from a full
    simplification."""

    @pytest.mark.parametrize("d", _probe_links(), ids=lambda d: d.name)
    def test_rendered_values(self, d):
        assert _rendered_probe_sha256(d) == PROBE_SHA256[d.name]


word_strategy = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=4
)


class TestBraidProperties:
    @given(word=word_strategy)
    @settings(max_examples=40, deadline=None)
    def test_union_with_circle_multiplies_by_delta(self, word):
        d = braid_closure(3, word, "w")
        assert homfly(d.disjoint_union(unknot())) == homfly(d) * dH
        assert kauffman(d.disjoint_union(unknot())) == kauffman(d) * dK

    @given(word=word_strategy)
    @settings(max_examples=40, deadline=None)
    def test_mirror_inverts_variables(self, word):
        d = braid_closure(3, word, "w")
        val = homfly(d)
        mirrored = homfly(mirror(d))
        flipped = RingElem(
            val.num.scale_exponents(-1, -1), val.den.scale_exponents(-1, -1)
        )
        assert mirrored == flipped

    @given(word=word_strategy, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_relations_hold_anywhere(self, word, data):
        d = braid_closure(3, word, "w")
        ci = data.draw(st.integers(min_value=0, max_value=len(d.crossings) - 1))
        assert skein_relation_probe(d, ci, "oriented")["holds"]
        assert skein_relation_probe(d, ci, "unoriented")["holds"]

    @given(word=word_strategy)
    @settings(max_examples=20, deadline=None)
    def test_kauffman_ignores_orientation(self, word):
        d = braid_closure(3, word, "w")
        r = d.reverse_component(0)
        assert kauffman(r) == kauffman(d)


def _letters(n_strands):
    return st.sampled_from([s * i for i in range(1, n_strands) for s in (1, -1)])


def _long_word(n_strands):
    return st.lists(_letters(n_strands), min_size=8, max_size=14)


def _both(word, n_strands, config=None):
    d = braid_closure(n_strands, word, "w")
    return homfly(d, config), kauffman(d, config)


def _splice(word, at, middle):
    cut = at % (len(word) + 1)
    return word[:cut] + middle + word[cut:]


class TestBraidRelations:
    """Moves the engine never performs must leave both values unchanged.

    Words of 8-14 letters reach past the memo's 4-crossing keying threshold,
    so these also exercise the canonical keys.
    """

    @given(word=_long_word(4), at=st.integers(0, 14), a=st.sampled_from([1, -1]),
           b=st.sampled_from([3, -3]))
    @settings(max_examples=30, deadline=None)
    def test_far_commutation(self, word, at, a, b):
        assert _both(_splice(word, at, [a, b]), 4) == _both(_splice(word, at, [b, a]), 4)

    @given(n=st.sampled_from([3, 4]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_braid_relation_r3(self, n, data):
        word = data.draw(_long_word(n))
        at = data.draw(st.integers(0, 14))
        i = data.draw(st.integers(1, n - 2))
        e = data.draw(st.sampled_from([1, -1]))
        left = _splice(word, at, [e * i, e * (i + 1), e * i])
        right = _splice(word, at, [e * (i + 1), e * i, e * (i + 1)])
        assert _both(left, n) == _both(right, n)

    @given(n=st.sampled_from([3, 4]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_conjugation(self, n, data):
        word = data.draw(_long_word(n))
        h = data.draw(st.lists(_letters(n), min_size=1, max_size=2))
        conjugated = h + word + [-g for g in reversed(h)]
        assert _both(conjugated, n) == _both(word, n)

    @given(word=_long_word(3), e=st.sampled_from([1, -1]))
    @settings(max_examples=30, deadline=None)
    def test_markov_stabilisation(self, word, e):
        hom, kau = _both(word, 3)
        factor = vi if e > 0 else v
        assert _both(word + [3 * e], 4) == (hom * factor, kau * factor)

    @given(n=st.sampled_from([3, 4]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_memo_off_agrees(self, n, data):
        word = data.draw(_long_word(n))
        assert _both(word, n, EvalConfig(memo=False)) == _both(word, n)


def _relabeled(d, order):
    """`d` with its crossings renumbered: crossing k is `d`'s crossing order[k]."""
    crossings = [d.crossings[i] for i in order]
    signs = [d.signs[i] for i in order]
    return LinkDiagram(d.name, d.n_components, crossings, d.component_of_edge, d.free_loops, signs)


class TestSplitClusters:
    """The clusters of a split state share its port list, and each must be
    valued from its own crossings alone.

    A 4-strand closure of a word whose letters are σ1^±1 and σ3^±1 only is
    the split union of two 2-strand closures, so its values are the
    products of theirs.  Renumbering the crossings interleaves the two
    clusters' crossing ids.  The walk that keys a state also splits it, so
    its parts are checked against `reference_clusters`.
    """

    def check(self, a, b, order):
        d = _relabeled(braid_closure(4, a + b, "split"), order)
        parts = (braid_closure(2, a, "left"), braid_closure(2, [x // 3 for x in b], "right"))
        for memo in (True, False):
            cfg = EvalConfig(memo=memo)
            for run in (homfly, kauffman):
                clear_caches()
                try:
                    got = run(d, cfg)
                    want = run(parts[0], cfg) * run(parts[1], cfg)
                finally:
                    clear_caches()
                assert got == want

    def test_two_trefoils(self):
        a, b, order = [1, 1, 1], [3, 3, 3], [0, 3, 1, 4, 5, 2]
        cross, partner = skein_eval._build_state(_relabeled(braid_closure(4, a + b), order))
        parts = skein_eval._keyed_clusters(cross, partner, ORIENTED)
        assert sorted(sorted(part) for part, _ in parts) == [[0, 2, 5], [1, 3, 4]]
        self.check(a, b, order)

    @given(
        a=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=8),
        b=st.lists(st.sampled_from([3, -3]), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_values_are_products_of_the_parts(self, a, b, data):
        self.check(a, b, data.draw(st.permutations(range(len(a) + len(b)))))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_parts_are_the_reference_clusters(self, data):
        # a disjoint union of 2-3 closures of 2-3 strands each, crossings
        # renumbered: the union and every state the engine keys while
        # evaluating it split into the reference clusters, and each part
        # has the key it has as a state on its own
        word, strands, closures = [], 0, 0
        for n in data.draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=3)):
            letters = data.draw(st.lists(_letters(n), min_size=1, max_size=5))
            word += [x + strands if x > 0 else x - strands for x in letters]
            strands += n
            closures += 1
        d = _relabeled(braid_closure(strands, word, "union"), data.draw(st.permutations(range(len(word)))))
        real = skein_eval._keyed_clusters

        def checking(cross, partner, flavor):
            parts = real(cross, partner, flavor)
            want = reference_clusters(cross, partner)
            assert sorted(sorted(part) for part, _ in parts) == sorted(sorted(group) for group in want)
            for part, key in parts:
                [(alone, own)] = real(part, partner, flavor)
                assert alone is part and own == key
            return parts

        cross, partner = skein_eval._build_state(d)
        for flavor in (ORIENTED, UNORIENTED):
            assert len(checking(cross, partner, flavor)) >= closures
        skein_eval._keyed_clusters = checking
        try:
            _evaluate_all(ORIENTED, [d])
            _evaluate_all(UNORIENTED, [d])
        finally:
            skein_eval._keyed_clusters = real

    def test_one_keying_call_per_state(self, monkeypatch):
        # three trefoils, crossings interleaved: the state of three clusters
        # is split and keyed in one call, as is every state with crossings
        # left after simplification
        d = _relabeled(braid_closure(6, [1, 1, 1, 3, 3, 3, 5, 5, 5]), [0, 3, 6, 1, 4, 7, 2, 5, 8])
        counts = {"states": 0, "keyings": 0}
        sizes = []
        simplify, keyed = skein_eval._simplify, skein_eval._keyed_clusters

        def simplifying(cross, *args):
            moves = simplify(cross, *args)  # once per state, in place
            counts["states"] += bool(cross)
            return moves

        def keying(*args):
            parts = keyed(*args)
            counts["keyings"] += 1
            sizes.append(len(parts))
            return parts

        monkeypatch.setattr(skein_eval, "_simplify", simplifying)
        monkeypatch.setattr(skein_eval, "_keyed_clusters", keying)
        for memo in (True, False):
            for run in (homfly, kauffman):
                clear_caches()
                try:
                    run(d, EvalConfig(memo=memo))
                finally:
                    clear_caches()
        assert counts["keyings"] == counts["states"]
        assert sizes.count(3) == 4  # the whole state, in each of the four runs


class TestRelabeling:
    """Rendered values do not depend on crossing labels.

    The 14 satellite rows of 1 to 8 crossings and ten seeded 20-letter
    3-braid closures, each under three random crossing orders, in both
    flavors.  Memo keys ignore labels, so the caches are cleared before
    every evaluation; otherwise the memo would serve the relabeled copy
    whole.  The resolution tree's size does depend on the labels, so this
    runs different trees to one value.
    """

    @pytest.mark.parametrize("run", [homfly, kauffman], ids=["homfly", "kauffman"])
    def test_values_unchanged(self, run):
        links = [row for row in _satellite_rows_to_12() if 0 < len(row.crossings) <= 8]
        assert len(links) == 14
        rng = random.Random(3)
        try:
            for d in links + _seeded_braids(10):
                clear_caches()
                want = run(d).render()
                for _ in range(3):
                    order = list(range(len(d.crossings)))
                    rng.shuffle(order)
                    clear_caches()
                    assert run(_relabeled(d, order)).render() == want, (d.name, order)
        finally:
            clear_caches()


def _two_cabled_word(word):
    """The word on doubled strands: strand i becomes strands 2i-1 and 2i."""
    out = []
    for letter in word:
        i, e = abs(letter), (1 if letter > 0 else -1)
        out += [e * 2 * i, e * (2 * i - 1), e * (2 * i + 1), e * 2 * i]
    return out


class TestTwoConstructionRoutes:
    """Two routes to the 2-cable of a braid closure must give the same values.

    One route doubles every component of the closed diagram with `cable`;
    the other doubles each strand of the braid word and closes that.  Both
    carry the blackboard framing, so equal values check the framing and
    orientation conventions of `cable` against an independent construction.
    """

    config = EvalConfig(max_crossings=64)

    def check(self, n_strands, word):
        cabled = braid_closure(n_strands, word, "w")
        for comp in reversed(range(cabled.n_components)):
            cabled = cabled.cable(comp, 2)
        closed = braid_closure(2 * n_strands, _two_cabled_word(word), "w2")
        assert homfly(cabled, self.config) == homfly(closed, self.config)
        assert kauffman(cabled, self.config) == kauffman(closed, self.config)

    @pytest.mark.parametrize(
        "n_strands, word",
        [(1, []), (2, []), (2, [1, 1]), (2, [-1, -1]), (2, [1, 1, 1]), (3, [1, -2, 1, -2]),
         (3, [1, 2, -1, 2]), (2, [-1, -1, -1])],
        ids=["unknot", "unlink2", "hopf_plus", "hopf_minus", "trefoil", "figure_eight",
             "mixed-3-braid", "left-trefoil"],
    )
    def test_named_braids(self, n_strands, word):
        self.check(n_strands, word)

    @given(n=st.sampled_from([2, 3]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_words(self, n, data):
        # 3-strand words stop at 4 letters: the kauffman value of a 5-6
        # letter word's cable (20-24 crossings) takes 4-48 s
        self.check(n, data.draw(st.lists(_letters(n), min_size=1, max_size=6 if n == 2 else 4)))


def bracket(d) -> LaurentPoly:
    """The Kauffman bracket <D> by the naive sum over all 2^n smoothings.

    A is stored as the s variable.  The A-smoothing of crossing (a, b, c, d)
    joins a-b and c-d, the B-smoothing joins a-d and b-c; each state weighs
    A^(#A - #B) times one circle factor -A^2 - A^-2 per loop, free loops
    included, so the empty diagram is 1.  Nothing here is shared with the
    engine.
    """
    n = len(d.crossings)
    states = {}
    for state in range(1 << n):
        root = {e: e for e in d.component_of_edge}

        def find(e):
            while root[e] != e:
                root[e] = root[root[e]]
                e = root[e]
            return e

        b_count = 0
        for ci, (a, b, c, e) in enumerate(d.crossings):
            pairs = ((a, e), (b, c)) if state >> ci & 1 else ((a, b), (c, e))
            b_count += state >> ci & 1
            for x, y in pairs:
                root[find(x)] = find(y)
        loops = sum(1 for e in root if find(e) == e) + len(d.free_loops)
        key = (n - 2 * b_count, loops)
        states[key] = states.get(key, 0) + 1
    circle = -LaurentPoly.monomial(0, 2) - LaurentPoly.monomial(0, -2)
    total = LaurentPoly.zero()
    for (power, loops), count in states.items():
        total = total + LaurentPoly.monomial(0, power, count) * circle ** loops
    return total


def _specialise(poly: LaurentPoly, v_to: int, s_to: int) -> LaurentPoly:
    """v -> -t^v_to, s -> t^s_to, with t stored as the s variable."""
    return LaurentPoly(((0, v_to * a + s_to * b), -c if a % 2 else c) for (a, b), c in poly.terms().items())


def _agrees(value: RingElem, want: LaurentPoly, v_to: int, s_to: int) -> bool:
    den = _specialise(value.den, v_to, s_to)
    assert not den.is_zero()
    return _specialise(value.num, v_to, s_to) == want * den


def _check_bracket(d, config=None):
    # kauffman at v = -A^-3, s = A is <D>; homfly at v = -t^-4, s = t^2 is t^w <D>
    want = bracket(d)
    assert _agrees(kauffman(d, config), want, -3, 1)
    assert _agrees(homfly(d, config), LaurentPoly.monomial(0, d.writhe()) * want, -4, 2)


def _satellite_rows_to_12():
    rows = []
    for name in corpus_names():
        d = load_corpus(name)
        for comp in range(d.n_components):
            for r in range(4):
                row = build_satellite_row(d, comp, r)
                if len(row.crossings) <= 12:
                    rows.append(row)
    return rows


class TestBracketStateSum:
    """Both flavors against the bracket state sum, which shares no engine code.

    Every input stays at <= 12 crossings: the naive sum doubles its work per
    crossing (about 0.3 s at 12).
    """

    def test_bracket_conventions(self):
        circle = -LaurentPoly.monomial(0, 2) - LaurentPoly.monomial(0, -2)
        assert bracket(empty_link()) == LaurentPoly.one()
        assert bracket(unlink(2)) == circle * circle
        assert bracket(unknot().with_curl(0, 1)) == -LaurentPoly.monomial(0, 3) * circle

    @pytest.mark.parametrize("memo", [True, False], ids=["memo-on", "memo-off"])
    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus(self, name, memo):
        _check_bracket(load_corpus(name), EvalConfig(memo=memo))

    @pytest.mark.parametrize("d", _satellite_rows_to_12(), ids=lambda d: d.name)
    def test_satellite_rows(self, d):
        _check_bracket(d)

    @given(n=st.sampled_from([3, 4]), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_braid_closures(self, n, data):
        word = data.draw(st.lists(_letters(n), min_size=8, max_size=12))
        _check_bracket(braid_closure(n, word, "w"))

    @pytest.mark.parametrize("make", [hopf_plus, hopf_minus, trefoil])
    def test_adjoint_terms(self, make, monkeypatch):
        # adjoint_homfly at v = -t^-4, s = t^2 is the signed sum of t^w <term>
        d = make()
        terms = []
        run = skein_eval._run

        def recording(term, flavor, config):
            terms.append(term)
            return run(term, flavor, config)

        monkeypatch.setattr(skein_eval, "_run", recording)
        got = adjoint_homfly(d)
        want = LaurentPoly.zero()
        for term in terms:
            sign = -1 if (d.n_components - term.n_components // 2) % 2 else 1
            want = want + LaurentPoly.monomial(0, term.writhe(), sign) * bracket(term)
        assert len(terms) == 1 << d.n_components
        assert _agrees(got, want, -4, 2)


def _conway_at(value: RingElem, s: int) -> Fraction:
    """The Conway polynomial at z = s - 1/s from a framed oriented value N/D.

    The engine's unknot is (v^-1 - v)/z, so the Conway polynomial is the
    limit of N/D * z/(v^-1 - v) as v -> 1.  N vanishes at v = 1, so the
    limit is -z N'(1) / (2 D(1)).
    """
    at_one = {}
    for (_, b), c in value.num.terms().items():
        at_one[b] = at_one.get(b, 0) + c
    assert not any(at_one.values())
    s = Fraction(s)
    slope = sum(a * c * s ** b for (a, b), c in value.num.terms().items())
    den = sum(c * s ** b for (_, b), c in value.den.terms().items())
    return -(s - 1 / s) * slope / (2 * den)


def _unit_power(ratio: Fraction, s: int):
    """(sign, m) with ratio = sign * s^m, else None."""
    num, den, m = abs(ratio.numerator), ratio.denominator, 0
    while num % s == 0:
        num, m = num // s, m + 1
    while den % s == 0:
        den, m = den // s, m - 1
    return (ratio > 0, m) if num == den == 1 else None


def _check_conway(d, config=None) -> bool:
    """`homfly(d)` against the Fox minor at t = s^2 for s = 2 and 3: equal up
    to one unit +-s^m, with m odd exactly when the component count is even.
    Returns whether the value is nonzero."""
    value = homfly(d, config)
    units = []
    for s in (2, 3):
        fox, conway = fox_minor(d, s * s), _conway_at(value, s)
        if fox == 0 or conway == 0:
            assert fox == conway == 0, d.name
            units.append(None)
        else:
            unit = _unit_power(fox / conway, s)
            assert unit is not None, d.name
            units.append(unit)
    assert units[0] == units[1], d.name
    if units[0] is None:
        return False
    assert units[0][1] % 2 != d.n_components % 2, d.name
    return True


def _norm_at_zeta8(poly: LaurentPoly) -> list[int]:
    """|p(A)|^2 at A = exp(i pi / 4) for p in the s variable, as the
    coefficients of 1, A, A^2, A^3 with A^4 = -1: p(A) times its
    conjugate, which sends A to A^-1."""
    out = [0] * 4
    for (_, e), c in poly.terms().items():
        for (_, f), c2 in poly.terms().items():
            k = (e - f) % 8
            out[k % 4] += c * c2 if k < 4 else -c * c2
    return out


def _check_determinant(d, config=None) -> int:
    """`kauffman(d)` against the Fox minor at t = -1: at v = -A^-3, s = A the
    value is the bracket <D>, and at A = exp(i pi / 4), where the circle
    factor -A^2 - A^-2 vanishes, |<D> / circle|^2 is det(L)^2.  Returns the
    minor."""
    value = kauffman(d, config)
    circle = -LaurentPoly.monomial(0, 2) - LaurentPoly.monomial(0, -2)
    bracket_value = _specialise(value.num, -3, 1).exact_div(circle)
    den = _specialise(value.den, -3, 1)
    det = fox_minor(d, -1)
    assert _norm_at_zeta8(bracket_value) == [det * det * x for x in _norm_at_zeta8(den)], d.name
    return det


class TestFoxMatrixPoints:
    """Both flavors against a first minor of the Fox matrix, which shares no
    engine code and takes polynomial time, so it reaches past the bracket
    state sum's 12 crossings: the Conway point (t = s^2) against `homfly`,
    the determinant point (t = -1) against `kauffman`.

    Blind spots: the Conway value is 0 on fully doubled adjoint terms, and
    det(L) is 0 on satellite rows of two or more meridians, so these points
    check braid closures and cables, not the satellite terms.
    """

    def test_fox_minor_conventions(self):
        # the trefoil's Alexander polynomial t^2 - t + 1, and det T(2, n) = n
        assert [abs(fox_minor(trefoil(), t)) for t in (-1, 2, 3, 4)] == [3, 3, 7, 13]
        assert fox_minor(unknot(), 5) == 1 and fox_minor(unlink(2), 5) == 0
        assert [abs(fox_minor(braid_closure(2, [1] * n), -1)) for n in (2, 3, 40, 41)] == [2, 3, 40, 41]

    def test_braid_family_words(self):
        # the benchmark's 100 closed 20-letter 3-braids, sharing one memo
        clear_caches()
        try:
            words = _seeded_braids(100, seed=1)
            nonzero = sum(_check_conway(d) for d in words)
            dets = [_check_determinant(d) for d in words]
        finally:
            clear_caches()
        # the points are 0 on a few words: two Conway values, three determinants
        assert nonzero == 98
        assert sum(1 for det in dets if det) == 97

    @given(word=st.lists(_letters(3), min_size=20, max_size=40))
    @settings(max_examples=20, deadline=None)
    def test_long_three_strand_words(self, word):
        # the Conway point only: on random 40-letter 3-braids `homfly` takes
        # up to ~0.7 s and `kauffman` up to ~6 s
        _check_conway(braid_closure(3, word, "w"), EvalConfig(max_crossings=40))

    def test_torus_links(self):
        # T(2, n) up to 100 crossings, in one memo; every walk of a key ties
        clear_caches()
        try:
            for n in range(2, 101):
                d = braid_closure(2, [1] * n)
                config = EvalConfig(max_crossings=n)
                assert _check_conway(d, config)
                assert abs(_check_determinant(d, config)) == n
        finally:
            clear_caches()

    def test_satellite_rows_to_28_crossings(self):
        config = EvalConfig(max_crossings=28)
        dets = []
        clear_caches()
        try:
            for name in corpus_names():
                d = load_corpus(name)
                for comp in range(d.n_components):
                    for r in range(4):
                        row = build_satellite_row(d, comp, r)
                        if len(row.crossings) <= 28:
                            dets.append(_check_determinant(row, config))
        finally:
            clear_caches()
        assert len(dets) == 36
        assert sum(1 for det in dets if det) == 8


# the largest meridian count per corpus base with a component: rows reach
# 28 crossings (trefoil and figure_eight), about 1.5 s of `kauffman` each
RECURRENCE_TOPS = {
    "unknot": 5, "unlink2": 4, "hopf_plus": 4, "hopf_minus": 4, "trefoil": 4, "figure_eight": 3,
}
# the largest adjoint term: figure_eight with 3 meridians, doubled
RECURRENCE_CONFIG = EvalConfig(max_crossings=40)


class TestMeridianRecurrence:
    """Values across meridian counts against the eigenvalue tables.

    A meridian acts diagonally on the annulus skein, so the values of a base
    link with r meridians around a satellite of component 0 satisfy a linear
    recurrence in r whose characteristic roots are the meridian eigenvalues
    of the shapes the satellite decomposes into.  The diagrams grow by 4
    crossings a meridian, so a wrong engine passes only if it is wrong the
    same way across diagrams of different sizes and resolution trees.  The
    controls swap one root for a wrong one and must fail every window.

    Blind spot: no base value is checked, so a bug that scales every row of
    one base by one factor passes.  The bracket sum and the Fox points check
    the r = 0 rows.
    """

    def test_windows(self):
        two, three = RingElem(vpow(2)), RingElem(vpow(3))
        values = [two ** r + three ** r for r in range(5)]
        assert annihilated_windows(values, [two, three]) == [True, True, True]
        assert annihilated_windows(values, [two]) == [False] * 4
        with pytest.raises(ValueError):
            annihilated_windows(values[:2], [two, three])

    def test_covers_every_base(self):
        bases = [name for name in corpus_names() if load_corpus(name).n_components]
        assert sorted(RECURRENCE_TOPS) == sorted(bases)

    @pytest.mark.parametrize("name", sorted(RECURRENCE_TOPS))
    def test_doubled_rows(self, name):
        # a parallel double decomposes into (2), (1,1) and, unoriented, ()
        d = load_corpus(name)
        rows = [build_satellite_row(d, 0, r) for r in range(RECURRENCE_TOPS[name] + 1)]
        two, column, empty, box = (Partition(p) for p in ((2,), (1, 1), (), (1,)))
        unoriented = [kauffman(row, RECURRENCE_CONFIG) for row in rows]
        roots = [kauffman_meridian_eigenvalue(p) for p in (two, column, empty)]
        assert all(annihilated_windows(unoriented, roots))
        wrong = roots[:2] + [kauffman_meridian_eigenvalue(box)]
        assert not any(annihilated_windows(unoriented, wrong))
        oriented = [homfly(row, RECURRENCE_CONFIG) for row in rows]
        forward = [homfly_meridian_eigenvalue(p, empty) for p in (two, column)]
        assert all(annihilated_windows(oriented, forward))
        # the meridians' sense is pinned: the reversed roots fail
        backward = [homfly_meridian_eigenvalue(empty, p) for p in (two, column)]
        assert not any(annihilated_windows(oriented, backward))

    @pytest.mark.parametrize("name", sorted(RECURRENCE_TOPS))
    def test_adjoint_meridians(self, name):
        # an antiparallel double pierced by antiparallel meridian pairs, less
        # its deleted terms: the roots are a((),()) and a((1),(1))
        d = load_corpus(name)
        values = [adjoint_homfly(d.with_meridians(0, r), RECURRENCE_CONFIG) for r in range(4)]
        empty, box = Partition(()), Partition((1,))
        roots = [adjoint_meridian_eigenvalue(empty, empty), adjoint_meridian_eigenvalue(box, box)]
        assert all(annihilated_windows(values, roots))
        wrong = [roots[0], adjoint_meridian_eigenvalue(box, empty)]
        assert not any(annihilated_windows(values, wrong))


class TestEngineWork:
    """Exact engine work on small satellite rows and braid closures, pinned
    as upper bounds.

    Counts have no noise, so a change that makes the engine branch more
    shows here even when its wall time hides in the spread.  A change that
    removes work lowers the bounds.
    """

    def rows(self):
        rows = [row for row in _satellite_rows_to_12() if 0 < len(row.crossings) <= 6]
        assert len(rows) == 7
        return rows

    def test_rows_up_to_6_crossings(self, monkeypatch):
        counts = {"_resolve": 0, "_local_move": 0}
        for name in counts:
            inner = getattr(skein_eval, name)

            def counting(*args, _name=name, _inner=inner):
                counts[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(skein_eval, name, counting)
        keyed = 0
        real = skein_eval._keyed_clusters

        def keying(*args):
            nonlocal keyed
            parts = real(*args)
            keyed += len(parts)
            return parts

        monkeypatch.setattr(skein_eval, "_keyed_clusters", keying)
        try:
            for row in self.rows():
                clear_caches()
                assert verify_rudolph(row).passed
        finally:
            clear_caches()
        assert counts["_resolve"] <= 117
        assert keyed == 226  # every cluster keyed: one memo lookup or valuation each
        # sites examined: a resolved child is re-simplified only where it changed
        assert counts["_local_move"] <= 1315

    def test_products_up_to_6_crossings(self, monkeypatch):
        # no product by one or by z: values gain a v-shift or a factor z by
        # shifting exponents, and a sum of values in v and z multiplies
        # nothing; the z-power and circle-power tables outlive each run, so
        # they are filled first and no circle power is counted
        for powers in (skein_eval._Z_POWERS, *skein_eval._CIRCLE_POWERS.values()):
            skein_eval._power(powers, 16)
        products = 0
        real = LaurentPoly.__mul__

        def counting(a, b):
            nonlocal products
            products += 1
            return real(a, b)

        rows = self.rows()
        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        try:
            for row in rows:
                clear_caches()
                homfly(row)
                kauffman(row)
                adjoint_homfly(row)
        finally:
            clear_caches()
        assert products <= 68

    def test_verify_main_on_the_unknot(self, monkeypatch):
        # the width-two decorated unknot check from empty caches: its
        # resolutions, memo entries and distinct memo values
        resolves = _count_resolves(monkeypatch)
        clear_caches()
        try:
            code, _ = cli_run(
                ["verify", "main", "corpus:unknot", "--component", "1", "--partition", "2", "--json"]
            )
            memo_size = len(skein_eval._MEMO)
            distinct = len({id(value) for value in skein_eval._MEMO.values()})
        finally:
            clear_caches()
        assert code == 0
        assert resolves["calls"] <= 16103
        assert memo_size <= 16620
        assert distinct <= 4047

    @pytest.mark.parametrize("flavor, resolves, entries", [(ORIENTED, 1725, 1737), (UNORIENTED, 2652, 2656)])
    def test_braid_family_words(self, flavor, resolves, entries, monkeypatch):
        # the benchmark's first 20 braid_family closures, sharing one memo:
        # packed keys, and entries of equal value share one value object
        values = {ORIENTED: 341, UNORIENTED: 804}[flavor]
        counted = _count_resolves(monkeypatch)
        run = homfly if flavor == ORIENTED else kauffman
        clear_caches()
        try:
            for d in _seeded_braids(20, seed=1):
                run(d)
            memo_size = len(skein_eval._MEMO)
            assert all(type(key) is bytes for key in skein_eval._MEMO)
            distinct = len({id(value) for value in skein_eval._MEMO.values()})
        finally:
            clear_caches()
        assert counted["calls"] <= resolves
        assert memo_size <= entries
        assert distinct <= values

    @pytest.mark.parametrize("flavor", [ORIENTED, UNORIENTED])
    def test_shared_values_stay_sound(self, flavor, monkeypatch):
        # a second pass over the same closures is served from the memo, and
        # renders what evaluation without the memo renders
        resolves = _count_resolves(monkeypatch)
        run = homfly if flavor == ORIENTED else kauffman
        words = _seeded_braids(20, seed=1)
        clear_caches()
        try:
            first = [run(d).render() for d in words]
            before = resolves["calls"]
            second = [run(d).render() for d in words]
            served = resolves["calls"] - before
        finally:
            clear_caches()
        assert served == 0
        assert second == first
        memo_off = EvalConfig(memo=False)
        assert [run(d, memo_off).render() for d in words[:4]] == second[:4]


def _memo_keys_sha256():
    """sha256 of the memo's keys in sorted order, each after its length."""
    digest = hashlib.sha256()
    for key in sorted(skein_eval._MEMO):
        digest.update(len(key).to_bytes(4, "little") + key)
    return digest.hexdigest()


class TestKeyBytesPinned:
    """Every memo key's bytes, pinned by hash.

    Key bytes are a function of the state alone, so a change to how the
    engine stores or walks states must leave every hash as it is; a
    change to the key format changes them on purpose.
    """

    @pytest.mark.parametrize("flavor, sha", [
        (ORIENTED, "a8c298d2234017ab875005d5bf87f50ee01f47b8cd1f3717a64d6be13e449a14"),
        (UNORIENTED, "31712e1b9d60fc158e41c4d3397b4a5c33383efc7b8d326bbdc9f8bf6f74eab6"),
    ])
    def test_braid_family_words(self, flavor, sha):
        # the benchmark's first 20 braid_family closures, sharing one memo
        run = homfly if flavor == ORIENTED else kauffman
        clear_caches()
        try:
            for d in _seeded_braids(20, seed=1):
                run(d)
            got = _memo_keys_sha256()
        finally:
            clear_caches()
        assert got == sha

    def test_satellite_rows_up_to_6_crossings(self):
        # both flavors' keys from the 7 rows' checks, in one memo
        clear_caches()
        try:
            for row in TestEngineWork().rows():
                assert verify_rudolph(row).passed
            got = _memo_keys_sha256()
        finally:
            clear_caches()
        assert got == "d13cbc4d2033c1c95330c027349bc893cbfd51e64fe4791ab06b84d9ab6950e3"

    @pytest.mark.parametrize("n_strands, word, flavor, sha", [
        (2, [1] * 40, ORIENTED, "87aeac254eaca80ccf3f9619c5111816195c1174cd28b4e1964b760cf70c9d8e"),
        (2, [1] * 40, UNORIENTED, "ab82ffc833da2caced893ce3270d5279337d92e76c042fb13006181fb13cf6ee"),
        (2, [1] * 41, ORIENTED, "f51f2b20baca2419d61148332e96023f213b1ee63930ea865a9d2c69d9a9da07"),
        (2, [1] * 41, UNORIENTED, "86136fd7a3e28bc6b281fbbfd172b03d3282c16957a0e36a8d0a2b8cce511f8a"),
        (3, [1, 2] * 12, ORIENTED, "952a6b8f436ff7b20a722d1f5dfdec9315cc2fa73b8e06dd82fb11e1dcd338dd"),
        (3, [1, 2] * 12, UNORIENTED, "b676c81a8772eb58ff482d988e8932d8d82bd983f292299060829354f58fb982"),
    ], ids=["T(2,40)-homfly", "T(2,40)-kauffman", "T(2,41)-homfly", "T(2,41)-kauffman",
            "(s1s2)^12-homfly", "(s1s2)^12-kauffman"])
    def test_symmetric_closures(self, n_strands, word, flavor, sha):
        # every crossing ties for the lowest signature, so every walk from
        # a seed ties the best one entry for entry to its end
        run = homfly if flavor == ORIENTED else kauffman
        clear_caches()
        try:
            run(braid_closure(n_strands, word), EvalConfig(max_crossings=len(word)))
            got = _memo_keys_sha256()
        finally:
            clear_caches()
        assert got == sha
