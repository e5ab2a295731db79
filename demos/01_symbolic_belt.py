#!/usr/bin/env python3
"""Walk the symbolic belt: exact Laurent clusters, periodicity, half-period.

Runs the rank two example step by step, then reproduces the two worked
nine- and eight-vertex bigraphs with their half-period permutations.
"""

import zamobelt as z


def banner(text: str):
    print()
    print("=" * 64)
    print(text)
    print("=" * 64)


def main():
    banner("A2: every cluster along one full period")
    g = z.catalog("A2")
    for t, state in enumerate(z.run_belt(g, 10)):
        rendered = ", ".join(v.render() for v in state)
        print("  t=%-2d  [%s]" % (t, rendered))
    print("period:", z.detect_period(g, 12))

    banner("A2: the half-period permutation")
    rep = z.half_period(g)
    print("  N =", rep.N)
    print("  sigma =", rep.sigma.cycles(), "(order %d)" % rep.order)
    print("  color behavior:", rep.color_behavior)

    banner("the two worked bigraphs")
    for name in ("fig1-A5starD4", "fig2-F4xA2"):
        g = z.catalog(name)
        rep = z.half_period(g)
        print(
            "  %-14s N=%-3d sigma=%-22s %s, period %d"
            % (
                name,
                rep.N,
                rep.sigma.cycles(),
                rep.color_behavior,
                z.detect_period(g, 2 * rep.N),
            )
        )

    banner("every distinct cluster variable appears exactly twice (A3)")
    census = z.cluster_variable_census(z.catalog("A3"))
    for value, count in sorted(census.items(), key=lambda kv: kv[0].render()):
        print("  %-38s appears %d times" % (value.render(), count))
    print("census size:", len(census), "(almost positive roots of A3: 9)")
    print("denominator bijection holds:", z.denominator_bijection_check(z.catalog("A3")))


if __name__ == "__main__":
    main()
