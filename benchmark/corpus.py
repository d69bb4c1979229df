"""Seeded corpora for the three workloads, as fact-file text plus op lists.

Nothing here imports ``pargue``: the orchestrator stays small, and every
worker builds its inputs by parsing the same text a user would write. The
same seed always gives the same corpus.

A framework of size n has exactly round(1.5 n) distinct attacks drawn
uniformly from all n^2 ordered pairs (self-attacks included), so the mean
out-degree is fixed at 1.5 and only the shape varies with the seed.
"""

from __future__ import annotations

import random

SEMANTICS = ("CF", "AD", "CO", "GR", "ST", "PR")
OUT_DEGREE = 1.5

# warm-table: framework sizes; PR only where its 2^n scan stays small.
WARM_SIZES = (16, 18, 20, 20, 22, 24) * 5
WARM_PR_MAX = 16
# prob-c: framework sizes; each pass re-encodes all of them cold.
COLD_SIZES = (8, 9, 9, 10, 10, 11)


def _framework(rng: random.Random, n: int) -> tuple[list[str], list[tuple[str, str]]]:
    names = [f"a{i:02d}" for i in range(n)]
    pairs = [(s, t) for s in names for t in names]
    attacks = sorted(rng.sample(pairs, round(OUT_DEGREE * n)))
    return names, attacks


def af_text(names: list[str], attacks: list[tuple[str, str]]) -> str:
    lines = [f"arg({a})." for a in names]
    lines += [f"att({s},{t})." for s, t in attacks]
    return "\n".join(lines) + "\n"


def _labels_text(rng: random.Random, names: list[str], beta_share: float) -> tuple[str, str]:
    """Beta labels on about ``beta_share`` of the arguments, points elsewhere.

    Returns the label facts and their point twin: every label replaced by
    its mean, written so that parsing gives back the same float.
    """
    lines, means = [], []
    for a in names:
        if rng.random() < beta_share:
            alpha = round(rng.uniform(0.5, 20.0), 2)
            beta = round(rng.uniform(0.5, 20.0), 2)
            lines.append(f"beta({a},{alpha},{beta}).")
            means.append(f"prob({a},{alpha / (alpha + beta)!r}).")
        else:
            lines.append(f"prob({a},{round(rng.uniform(0.05, 0.95), 3)}).")
            means.append(lines[-1])
    return "\n".join(lines) + "\n", "\n".join(means) + "\n"


def warm_table(seed: int) -> dict:
    """Compiled-once frameworks asked ``prob`` for every argument.

    Each framework carries mixed beta/point labels; the point twin of every
    beta-label op uses the label means, so the two answers must agree.
    """
    rng = random.Random(f"warm-table/{seed}")
    frameworks = []
    for n in WARM_SIZES:
        names, attacks = _framework(rng, n)
        semantics = [s for s in SEMANTICS if s != "PR" or n <= WARM_PR_MAX]
        frameworks.append({
            "af": af_text(names, attacks),
            "labels": _labels_text(rng, names, 0.75)[0],
            "semantics": semantics,
        })
    ops = [
        {"framework": i, "semantics": s, "argument": a, "labels": kind, "mode": "prob"}
        for i, f in enumerate(frameworks)
        for s in f["semantics"]
        for a in _names_of(f["af"])
        for kind in ("given", "point")
    ]
    return {"frameworks": frameworks, "ops": ops}


def prob_c(seed: int) -> dict:
    """New frameworks queried cold: ``prob_c`` under every semantics.

    Every argument is also asked ``prob`` under AD, the answer that
    ``prob_c`` under AD must bound from above. Frameworks alternate point
    and mixed beta labels.
    """
    rng = random.Random(f"prob-c/{seed}")
    frameworks = []
    for i, n in enumerate(COLD_SIZES):
        names, attacks = _framework(rng, n)
        labels, _ = _labels_text(rng, names, 0.0 if i % 2 == 0 else 0.75)
        frameworks.append({"af": af_text(names, attacks), "labels": labels})
    ops = []
    for i, f in enumerate(frameworks):
        for s in SEMANTICS:
            ops += [
                {"framework": i, "semantics": s, "argument": a, "labels": "given", "mode": "prob-c"}
                for a in _names_of(f["af"])
            ]
        ops += [
            {"framework": i, "semantics": "AD", "argument": a, "labels": "given", "mode": "prob"}
            for a in _names_of(f["af"])
        ]
    return {"frameworks": frameworks, "ops": ops}


WORKED_AF = "arg(a). arg(b). arg(c). arg(d).\natt(a,c). att(b,c). att(c,d).\n"
WORKED_LABELS = "beta(a,1,1). beta(b,17,2).\nbeta(c,4,15). beta(d,5,1.5).\n"
WORKED_COV = "id,a,b\na,0,0.003\nb,0.003,0\n"


def cli(seed: int) -> dict:
    """One-shot ``pargue query`` invocations on fact files.

    Files: the worked example (with a covariance file), a wide n=20
    framework with mixed labels and a point twin at the label means, PR/GR
    frameworks at n=16 and n=18 (with CO at n=16 to bound both), and two
    small frameworks for ``--mode prob-c``.
    """
    rng = random.Random(f"cli/{seed}")
    files: dict[str, str] = {
        "worked.apx": WORKED_AF,
        "worked_labels.apx": WORKED_LABELS,
        "worked_cov.csv": WORKED_COV,
    }
    frameworks = [{"af": "worked.apx", "labels": "worked_labels.apx"}]

    def add(tag: str, n: int, point_twin: bool = False) -> list[int]:
        names, attacks = _framework(rng, n)
        files[f"{tag}.apx"] = af_text(names, attacks)
        files[f"{tag}_labels.apx"], means = _labels_text(rng, names, 0.75)
        frameworks.append({"af": f"{tag}.apx", "labels": f"{tag}_labels.apx"})
        if point_twin:
            files[f"{tag}_means.apx"] = means
            frameworks.append({"af": f"{tag}.apx", "labels": f"{tag}_means.apx", "twin_of": len(frameworks) - 1})
        return list(range(len(frameworks) - 1 - point_twin, len(frameworks)))

    def query(framework: int, semantics: str, argument: str, mode: str = "prob", cov: str | None = None) -> dict:
        return {"framework": framework, "semantics": semantics, "argument": argument,
                "mode": mode, "cov": cov}

    ops = [
        query(0, "AD", "d"),
        query(0, "AD", "d", mode="prob-c"),
        query(0, "AD", "d", cov="worked_cov.csv"),
    ]
    wide, wide_points = add("wide20", 20, point_twin=True)
    x = rng.choice(_names_of(files["wide20.apx"]))
    ops += [query(wide, s, x) for s in ("CF", "AD")]
    ops += [query(wide_points, s, x) for s in ("CF", "AD")]
    (mid,) = add("pr16", 16)
    x = rng.choice(_names_of(files["pr16.apx"]))
    ops += [query(mid, s, x) for s in ("PR", "GR", "CO")]
    (big,) = add("pr18", 18)
    x = rng.choice(_names_of(files["pr18.apx"]))
    ops += [query(big, s, x) for s in ("PR", "GR")]
    for tag, n, semantics in (("c9", 9, ("ST", "CF")), ("c10", 10, ("AD",))):
        (small,) = add(tag, n)
        x = rng.choice(_names_of(files[f"{tag}.apx"]))
        ops += [query(small, s, x, mode="prob-c") for s in semantics]
    return {"files": files, "frameworks": frameworks, "ops": ops}


def _names_of(text: str) -> list[str]:
    return [line[4:-2] for line in text.splitlines() if line.startswith("arg(")]


WORKLOADS = {"warm-table": warm_table, "prob-c": prob_c, "cli": cli}
