"""Built-in fans: projective spaces, products, Hirzebruch surfaces, a blowup.

Ray order is part of each entry's contract (primitive classes are reported as
vectors indexed by rays), so it is fixed here once and for all.
"""

from .fan import make_fan


def _hirzebruch(a):
    return make_fan(2, [(1, 0), (0, 1), (-1, a), (0, -1)],
                    [(0, 1), (1, 2), (2, 3), (3, 0)], name=f"F{a}")


def _build():
    fans = {}
    fans["P1"] = make_fan(1, [(1,), (-1,)], [(0,), (1,)], name="P1")
    fans["P2"] = make_fan(
        2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], name="P2")
    fans["P1xP1"] = make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                             [(0, 1), (1, 2), (2, 3), (3, 0)], name="P1xP1")
    fans.update((f"F{a}", _hirzebruch(a)) for a in range(4))
    fans["P1xP2"] = make_fan(
        3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)],
        [(0, 2, 3), (0, 3, 4), (0, 2, 4), (1, 2, 3), (1, 3, 4), (1, 2, 4)],
        name="P1xP2")
    # blowup of P2 at the torus-fixed point of the cone {e1, e2}
    fans["BlP2"] = make_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                            [(0, 3), (1, 3), (1, 2), (0, 2)], name="BlP2")
    return fans


CATALOG = _build()

SEMIPOSITIVE = ("P1", "P2", "P1xP1", "F0", "F1", "F2", "BlP2", "P1xP2")
NOT_SEMIPOSITIVE = ("F3",)


def builtin_fan(name):
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin fan {name!r}; choose from {', '.join(sorted(CATALOG))}"
        ) from None
