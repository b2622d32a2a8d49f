"""Built-in test links, constructed as braid closures.

A braid word is a list of nonzero integers: +i crosses the strands at
positions i and i+1 with the right strand passing over (a positive
crossing), -i with the left strand over (negative).  Closing the braid
joins each strand's bottom back to its top; positions never touched by a
generator close into crossingless circles.
"""

from __future__ import annotations

from .diagram import LinkDiagram, Mesh


def braid_closure(n_strands: int, word: list[int], name: str = "braid") -> LinkDiagram:
    if n_strands < 0:
        raise ValueError("strand count must be nonnegative")
    for letter in word:
        if letter == 0 or abs(letter) >= n_strands:
            raise ValueError(f"generator {letter} needs a strand pair inside 1..{n_strands}")

    # components = cycles of the word's permutation, ordered by top position
    perm = list(range(n_strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    comp_of_pos = [-1] * n_strands
    n_comps = 0
    for start in range(n_strands):
        if comp_of_pos[start] != -1:
            continue
        pos = start
        while comp_of_pos[pos] == -1:
            comp_of_pos[pos] = n_comps
            pos = perm.index(pos)
        n_comps += 1

    mesh = Mesh()
    mesh.comp_order = list(range(n_comps))
    # one open arc per position; tails are stitched in at closure time
    top = {}
    current = {}
    for pos in range(n_strands):
        comp = comp_of_pos[pos]
        aid = mesh._new_arc(None, None, comp)
        top[pos] = aid
        current[pos] = aid
    for letter in word:
        i = abs(letter) - 1
        a, b = current[i], current[i + 1]
        cid = mesh._new_crossing(1 if letter > 0 else -1)
        # the strand from position i passes under at a positive letter
        a_side, b_side = ("U", "O") if letter > 0 else ("O", "U")
        mesh._attach(a, "head", (cid, a_side + "I"))
        mesh._attach(b, "head", (cid, b_side + "I"))
        down_right = mesh._new_arc((cid, a_side + "O"), None, mesh.arcs[a][2])
        mesh.crossings[cid][a_side + "O"] = down_right
        down_left = mesh._new_arc((cid, b_side + "O"), None, mesh.arcs[b][2])
        mesh.crossings[cid][b_side + "O"] = down_left
        current[i] = down_left
        current[i + 1] = down_right

    for pos in range(n_strands):
        bottom = current[pos]
        first = top[pos]
        if bottom == first:
            # untouched position: a crossingless circle
            del mesh.arcs[first]
            mesh.loops.add(comp_of_pos[pos])
            continue
        # merge the bottom arc into the top arc of the same position
        tail = mesh.arcs[bottom][0]
        mesh.arcs[first][0] = tail
        mesh.crossings[tail[0]][tail[1]] = first
        del mesh.arcs[bottom]
    return mesh.to_diagram(name)


def empty_link() -> LinkDiagram:
    return braid_closure(0, [], "empty")


def unknot() -> LinkDiagram:
    return braid_closure(1, [], "unknot")


def unlink(n: int = 2) -> LinkDiagram:
    return braid_closure(n, [], f"unlink{n}")


def hopf_plus() -> LinkDiagram:
    return braid_closure(2, [1, 1], "hopf_plus")


def hopf_minus() -> LinkDiagram:
    return braid_closure(2, [-1, -1], "hopf_minus")


def trefoil() -> LinkDiagram:
    return braid_closure(2, [1, 1, 1], "trefoil")


def figure_eight() -> LinkDiagram:
    return braid_closure(3, [1, -2, 1, -2], "figure_eight")


CORPUS = {
    "empty": empty_link,
    "unknot": unknot,
    "unlink2": lambda: unlink(2),
    "hopf_plus": hopf_plus,
    "hopf_minus": hopf_minus,
    "trefoil": trefoil,
    "figure_eight": figure_eight,
}


def corpus_names() -> list[str]:
    return list(CORPUS)


def load_corpus(name: str) -> LinkDiagram:
    if name not in CORPUS:
        raise KeyError(f"unknown corpus link {name!r}; available: {', '.join(CORPUS)}")
    return CORPUS[name]()
