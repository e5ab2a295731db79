#!/usr/bin/env python3
"""Folding by diagram automorphisms and Langlands dual transfer.

Folds the simply laced entries into their multiply laced shadows, then
checks that a tropical run of a bigraph and of its dual agree after
rescaling the labeling by the symmetrizer.
"""

import zamobelt as z
import zamobelt.bigraph as bg
import zamobelt.tropical as tr


def main():
    print("folding goldens:")
    a3 = z.catalog("A3")
    flip = next(a for a in bg.automorphism_search(a3) if not a.is_identity)
    folded = z.fold(a3, flip)
    print("  A3 folded by %s -> b = %s" % (flip.cycles(), folded.base.b))

    d4 = z.catalog("D4")
    rot = next(a for a in bg.automorphism_search(d4) if a.order == 3)
    folded_g2 = z.fold(d4, rot)
    print("  D4 folded by %s -> b = %s" % (rot.cycles(), folded_g2.base.b))

    print()
    print("Langlands duals swap the symmetrizer across the edge:")
    for name in ("B2", "C2", "G2"):
        m = z.catalog(name).base
        dual = z.langlands_dual(m)
        print("  %-3s b=%s c=%s  <->  dual b=%s c=%s" % (name, m.b, m.c, dual.b, dual.c))

    print()
    print("dual transfer: dual run at lambda matches primal run at c*lambda")
    rng = tr.make_rng(5)
    for name in ("B2", "C3", "G2", "B2xB2", "fig2-F4xA2"):
        g = z.catalog(name)
        ok = all(
            z.dual_transfer_check(g, tr.random_labeling(rng, g.n)) for _ in range(25)
        )
        print("  %-14s 25 random labelings: %s" % (name, "all agree" if ok else "MISMATCH"))


if __name__ == "__main__":
    main()
