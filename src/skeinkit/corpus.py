"""Built-in test links, constructed as braid closures.

A braid word is a list of nonzero integers: +i crosses the strands at
positions i and i+1 with the right strand passing over (a positive
crossing), -i with the left strand over (negative).  Closing the braid
joins each strand's bottom back to its top; positions never touched by a
generator close into crossingless circles.  A closure is written as a PD
code by one walk along each closed strand.
"""

from __future__ import annotations

from .diagram import LinkDiagram, slot_layout


def braid_closure(n_strands: int, word: list[int], name: str = "braid") -> LinkDiagram:
    """The closure of `word` on `n_strands` strands.

    Components are numbered by their lowest position, and each one's edges
    are numbered down its strand from the top of that position.
    """
    if n_strands < 0:
        raise ValueError("strand count must be nonnegative")
    for letter in word:
        if letter == 0 or abs(letter) >= n_strands:
            raise ValueError(f"generator {letter} needs a strand pair inside 1..{n_strands}")

    # follow every strand down the word at once: visits[p] lists the
    # (letter, side) met by the strand starting at the top of position p,
    # and strand_at[q] is the top position of the strand at position q
    strand_at = list(range(n_strands))
    visits: list[list[tuple[int, str]]] = [[] for _ in range(n_strands)]
    for j, letter in enumerate(word):
        i = abs(letter) - 1
        a, b = strand_at[i], strand_at[i + 1]
        # the strand from position i passes under at a positive letter
        a_side, b_side = ("U", "O") if letter > 0 else ("O", "U")
        visits[a].append((j, a_side))
        visits[b].append((j, b_side))
        strand_at[i], strand_at[i + 1] = b, a
    # the strand from the top of position p closes into the top of below[p]
    below = {p: q for q, p in enumerate(strand_at)}

    ports: list[dict[str, int]] = [{} for _ in word]
    component_of_edge = {}
    loops = []
    seen = [False] * n_strands
    comp = 0
    for start in range(n_strands):
        if seen[start]:
            continue
        walk = []
        pos = start
        while not seen[pos]:
            seen[pos] = True
            walk += visits[pos]
            pos = below[pos]
        if not walk:
            loops.append(comp)
        # edge first + k enters the strand's k-th crossing and leaves its (k-1)-th
        first = len(component_of_edge) + 1
        for k, (j, side) in enumerate(walk):
            ports[j][side + "I"] = first + k
            ports[j][side + "O"] = first + (k + 1) % len(walk)
            component_of_edge[first + k] = comp
        comp += 1

    signs = [1 if letter > 0 else -1 for letter in word]
    quads = sorted(
        (tuple(roles[role] for role in slot_layout(sign)), sign) for roles, sign in zip(ports, signs)
    )
    return LinkDiagram(name, comp, [quad for quad, _ in quads], component_of_edge, loops,
                       signs=[sign for _, sign in quads])


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
