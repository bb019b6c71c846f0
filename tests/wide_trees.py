"""Random scenario trees spanning many decades, for differential runs.

Standard library only, so that scripts/oracle_diff.py can draw the same
trees outside the test suite.
"""


def wide_tree(rng, s):
    """One tree of the wide-range differential run: 1-4 users, VIP or
    not, with 1-3 apps each, weights summing to 1, and every curve
    parameter, beta, target and R log-uniform in [10^-s, 10^s]."""
    def draw():
        return 10.0 ** rng.uniform(-s, s)

    users = []
    for index in range(rng.randint(1, 4)):
        vip = rng.random() < 0.5
        apps = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                utility = {"kind": "sigmoidal", "a": draw(), "b": draw()}
            else:
                utility = {"kind": "logarithmic", "k": draw(), "r_max": draw()}
            app = {"utility": utility, "weight": rng.random()}
            if vip and rng.random() < 0.5:
                app["target_rate"] = draw()
            apps.append(app)
        total = sum(app["weight"] for app in apps)
        for app in apps:
            app["weight"] /= total
        users.append({"id": f"u{index}", "class": "vip" if vip else "regular",
                      "beta": draw(), "apps": apps})
    return {"description": "wide", "R": draw(), "users": users}
