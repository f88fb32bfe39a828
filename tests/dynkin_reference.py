"""Reference Dynkin-type classifier: the graph walk on a Fraction Cartan matrix.

This is ``classify_simple_system`` / ``classify_gram`` as written before the
engine named components from their rank, largest bond, short-root count and
branch-node leaves.  It builds its own Fraction Cartan matrix and walks
paths and arms to name each component.  The differential tests compare the
engine against it; nothing in ``src/`` imports this module.
"""
from fractions import Fraction

from matrix_reference import rank
from orbitcert.rootsys import parse_label


def classify_simple_system(vectors) -> tuple[str, ...]:
    """Cartan labels of the components of an abstract simple system.

    The vectors need not be roots of any particular model; they must be
    linearly independent with pairwise non-positive pairings.  B/C, F and G
    components are told apart by relative root lengths.  Rank-2 double-bond
    components are reported as "B2".
    """
    vecs = list(vectors)
    return classify_gram([[u.dot(v) for v in vecs] for u in vecs])


def classify_gram(gram) -> tuple[str, ...]:
    """``classify_simple_system`` for a simple system given by its Gram
    matrix under a positive definite form (any positive scale)."""
    n = len(gram)
    if n == 0:
        return ()
    if rank(gram) != n:
        raise ValueError("simple system is not linearly independent")
    cartan = [[Fraction(2 * gram[i][j], gram[j][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and cartan[i][j] not in (0, -1, -2, -3):
                raise ValueError("pairings are not those of a finite-type simple system")
    # connected components of the Dynkin graph
    seen: set[int] = set()
    labels = []
    for start in range(n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if j not in seen and cartan[i][j] != 0:
                    seen.add(j)
                    comp.append(j)
                    queue.append(j)
        labels.append(_classify_component(comp, cartan, gram))
    return tuple(sorted(labels, key=_label_sort_key))


def _label_sort_key(label: str):
    series, rank = parse_label(label)
    return (-rank, series)


def _classify_component(comp: list[int], cartan, gram) -> str:
    n = len(comp)
    if n == 1:
        return "A1"
    adj = {i: [j for j in comp if j != i and cartan[i][j] != 0] for i in comp}
    bonds = {}
    for i in comp:
        for j in adj[i]:
            bonds[(i, j)] = int(cartan[i][j] * cartan[j][i])
    maxbond = max(bonds.values())
    if any(len(adj[i]) > 3 for i in comp):
        raise ValueError("Cartan matrix is not of finite type")
    branch = [i for i in comp if len(adj[i]) == 3]
    if maxbond == 3:
        if n != 2:
            raise ValueError("Cartan matrix is not of finite type")
        return "G2"
    if maxbond == 2:
        if branch:
            raise ValueError("Cartan matrix is not of finite type")
        ends = [i for i in comp if len(adj[i]) == 1]
        if len(ends) != 2:
            raise ValueError("Cartan matrix is not of finite type")
        path = _walk_path(ends[0], adj)
        doubles = [k for k in range(n - 1) if bonds[(path[k], path[k + 1])] == 2]
        if len(doubles) != 1:
            raise ValueError("Cartan matrix is not of finite type")
        k = doubles[0]
        if 0 < k < n - 2:
            if n == 4 and k == 1:
                return "F4"
            raise ValueError("Cartan matrix is not of finite type")
        if n == 2:
            return "B2"
        # orient so the double bond is at the far end; the end root's length decides B vs C
        if k == 0:
            path.reverse()
        end, prev = path[-1], path[-2]
        ratio = Fraction(gram[end][end], gram[prev][prev])
        return f"B{n}" if ratio < 1 else f"C{n}"
    # simply laced
    if not branch:
        return f"A{n}"
    if len(branch) > 1:
        raise ValueError("Cartan matrix is not of finite type")
    b = branch[0]
    arms = sorted(_arm_length(b, first, adj) for first in adj[b])
    if arms[0] == 1 and arms[1] == 1:
        return f"D{n}"
    if arms[0] == 1 and arms[1] == 2 and arms[2] in (2, 3, 4):
        return f"E{n}"
    raise ValueError("Cartan matrix is not of finite type")


def _walk_path(end: int, adj) -> list[int]:
    path = [end]
    prev = None
    while True:
        nxt = [j for j in adj[path[-1]] if j != prev]
        if not nxt:
            return path
        prev = path[-1]
        path.append(nxt[0])


def _arm_length(branch: int, first: int, adj) -> int:
    length = 1
    prev, cur = branch, first
    while True:
        nxt = [j for j in adj[cur] if j != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1
