"""Variable tables: the canonical, totally ordered variable sets polynomials live over.

A VarTable fixes the variables and their order once; every Poly carries a
reference to its table and stores exponents against that order.  The jet
table layout is

    x_1 .. x_n,  u^1 .. u^m,  then the first jets u^mu_i and the second
    jets u^mu_{ij}, graded by order and then lexicographic in (mu, I),

with multi-indices I always sorted ascending, so u^mu_{ij} and u^mu_{ji}
are the same variable.  The table stops at second jets: a system
u_ij = F_ij(x, u, u_x) needs no more for its involutivity check, its
symmetry criterion or a second prolongation.  Tables can be extended with
auxiliary variables, such as a Segre family's elimination parameters.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

VarId = tuple

X = "x"
U = "u"
JET = "jet"
ZETA = "zeta"
COEF = "coef"
Z = "z"
W = "w"
ZBAR = "zbar"
WBAR = "wbar"
AUX = "aux"


MAX_SIZE = 10_000  # the most variables, unknowns or fields one job may build


def check_size(what: str, count: int) -> None:
    """Refuse a job by its closed-form size, before anything is enumerated."""
    if count > MAX_SIZE:
        raise ValueError(f"{what} needs at least {count} entries, over the size cap of {MAX_SIZE}")


def x_var(i: int) -> VarId:
    return (X, i)


def u_var(mu: int) -> VarId:
    return (U, mu)


def jet_var(mu: int, indices: tuple[int, ...]) -> VarId:
    return (JET, mu, tuple(sorted(indices)))


def zeta_var(k: int) -> VarId:
    return (ZETA, k)


def default_name(vid: VarId) -> str:
    kind = vid[0]
    if kind == X:
        return f"x{vid[1]}"
    if kind == U:
        return f"u{vid[1]}"
    if kind == JET:
        mu, idx = vid[1], vid[2]
        return f"p{mu}_" + "_".join(str(i) for i in idx)
    if kind == ZETA:
        return f"s{vid[1]}"
    if kind == Z:
        return f"z{vid[1]}"
    if kind == W:
        return "w"
    if kind == ZBAR:
        return f"zb{vid[1]}"
    if kind == WBAR:
        return "wb"
    if kind == AUX:
        return str(vid[1])
    if kind == COEF:
        func, alpha = vid[1], vid[2]
        inner = ",".join(str(e) for e in alpha)
        return f"{func[0]}{func[1]}[{inner}]"
    raise ValueError(f"unnamed variable id {vid!r}")


class VarTable:
    """An immutable ordered collection of variables.  ``weights`` is all
    ones, kept only for outside readers: every truncation bound counts the
    total degree."""

    __slots__ = ("ids", "pos", "weights", "names", "_by_name")

    def __init__(self, ids):
        self.ids: tuple[VarId, ...] = tuple(ids)
        self.pos: dict[VarId, int] = {v: k for k, v in enumerate(self.ids)}
        if len(self.pos) != len(self.ids):
            raise ValueError("duplicate variable ids")
        self.weights: tuple[int, ...] = (1,) * len(self.ids)
        self.names: tuple[str, ...] = tuple(default_name(v) for v in self.ids)
        self._by_name = {name: vid for name, vid in zip(self.names, self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, vid: VarId) -> bool:
        return vid in self.pos

    def id_by_name(self, name: str) -> VarId | None:
        return self._by_name.get(name)

    def index(self, vid: VarId) -> int:
        try:
            return self.pos[vid]
        except KeyError:
            raise KeyError(f"variable {vid!r} not in table") from None

    def extend(self, extra_ids) -> "VarTable":
        """A new table with extra variables appended after the current ones."""
        return VarTable(self.ids + tuple(extra_ids))


def jet_table(n: int, m: int) -> VarTable:
    """The canonical table for the n-independent, m-dependent jet setting:
    x, u, and the n first and n(n+1)/2 second jets of each u^mu."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    check_size("jet table", n + m + m * n * (n + 3) // 2)
    ids = [x_var(i) for i in range(1, n + 1)]
    ids += [u_var(mu) for mu in range(1, m + 1)]
    for order in (1, 2):
        for mu in range(1, m + 1):
            for idx in combinations_with_replacement(range(1, n + 1), order):
                ids.append(jet_var(mu, idx))
    return VarTable(ids)


def cr_table(n: int) -> VarTable:
    """Variables z_1..z_n, w and their formal conjugates zb_1..zb_n, wb."""
    if n < 1:
        raise ValueError("need n >= 1")
    ids = [(Z, j) for j in range(1, n + 1)]
    ids.append((W,))
    ids += [(ZBAR, j) for j in range(1, n + 1)]
    ids.append((WBAR,))
    return VarTable(ids)


def conjugate_id(vid: VarId) -> VarId:
    """The formal-conjugation involution on cr_table variables."""
    kind = vid[0]
    if kind == Z:
        return (ZBAR, vid[1])
    if kind == ZBAR:
        return (Z, vid[1])
    if kind == W:
        return (WBAR,)
    if kind == WBAR:
        return (W,)
    raise ValueError(f"variable {vid!r} has no conjugate")
