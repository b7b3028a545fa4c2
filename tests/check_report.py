"""Check an exact `solve` or `primal-candidate` report against its
profile, with the standard library alone: no numpy and no `paritylp` import.

    python tests/check_report.py REPORT.json PROFILE.json

It reads only what the README states: a vector of F_2^n is an integer
whose bit j-1 is coordinate x_j, written as the string x1 x2 ... xn; a
code's label is `bottom` (rank 0) or `H[r1;r2;...]`, the rows of H as such
strings; and the coset of syndrome s is {x : G x = s}, where G is the
reduced basis of Ker(H) = {y : h.y = 0 for every row h}, ordered by pivot
(a row's pivot is its lowest set bit, set in no other row), and bit j of s
is row j of G dotted with x.  Every subspace of F_2^n is rebuilt by brute
force, and every test is decided in `Fraction`s:

- mu >= 0, and no coset with mu != 0 meets the zero set;
- at each supported index i, the mu of the cosets holding i sum to w_i;
- b >= 0, and b sums to at least cost(k) 2^k over every coset of every
  k-dimensional subspace;
- sum_i b_i w_i = sum cost(k) 2^k mu = rho = sigma, and the gap is 0.

A coset missing from mu has mu = 0.  By weak duality, a report that passes
proves that its rho is the optimum, whatever program wrote it.

A `primal-candidate` report lists the candidate's mu as `solve` lists
its own, zeros kept, under the average cost.  Its tests are:

- mu >= 0 when the report says `nonnegative`, and some mu < 0 when not;
- at each supported index i, the mu of the cosets holding i sum to w_i;
- its `objective` is sum cost(k) 2^k mu, exactly.

Exit 0 when every test passes; else one line per failed test and exit 1.
"""

import functools
import json
import sys
from fractions import Fraction


def vector(text: str, n: int) -> int:
    """A coordinate string x1 x2 ... xn as its integer: x_j is bit j-1."""
    if len(text) != n or not set(text) <= {"0", "1"}:
        raise ValueError(f"not a coordinate string of length {n}: {text!r}")
    return sum(1 << j for j, c in enumerate(text) if c == "1")


def coordinates(v: int, n: int) -> str:
    """The coordinate string of the vector v."""
    return "".join(str(v >> j & 1) for j in range(n))


def parity(v: int) -> int:
    return bin(v).count("1") & 1


def span(rows) -> frozenset:
    """Every sum of a subset of `rows`."""
    space = {0}
    for r in rows:
        space |= {x ^ r for x in space}
    return frozenset(space)


@functools.cache
def subspaces(n: int) -> tuple:
    """Every subspace of F_2^n, by dimension: each one of dimension k + 1
    is one of dimension k with a vector outside it added."""
    layer, found = {frozenset({0})}, []
    while layer:
        found += layer
        layer = {space | {x ^ v for x in space}
                 for space in layer for v in range(1 << n) if v not in space}
    return tuple(found)


def cosets(space: frozenset, n: int) -> list:
    """The cosets x + space that partition F_2^n."""
    seen, out = set(), []
    for x in range(1 << n):
        if x not in seen:
            coset = frozenset(x ^ v for v in space)
            seen |= coset
            out.append(coset)
    return out


def reduced_basis(space: frozenset) -> list:
    """The basis of `space` whose rows each have a pivot (the lowest set
    bit) set in no other row, ordered by pivot."""
    pivots = sorted({v & -v for v in space if v})
    return [next(v for v in space if v & -v == p and not any(v & q for q in pivots if q != p))
            for p in pivots]


@functools.cache
def coset_of(label: str, s: int, n: int) -> frozenset:
    """The coset a report's "LABEL,s=S" key names, rebuilt from the README."""
    if label == "bottom":
        rows = []
    elif label.startswith("H[") and label.endswith("]"):
        rows = [vector(r, n) for r in label[2:-1].split(";")]
    else:
        raise ValueError(f"not a code label: {label!r}")
    if len(span(rows)) != 1 << len(rows):
        raise ValueError(f"{label} has dependent rows")
    kernel = frozenset(y for y in range(1 << n) if not any(parity(h & y) for h in rows))
    g = reduced_basis(kernel)
    if not 0 <= s < 1 << len(g):
        raise ValueError(f"{label} has no syndrome {s}")
    return frozenset(x for x in range(1 << n)
                     if all(parity(row & x) == (s >> j) & 1 for j, row in enumerate(g)))


def number(value) -> Fraction:
    """An exact report value: a fraction string or a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"not an exact number: {value!r}")
    return Fraction(value)


def cost_values(config: dict, n: int) -> list:
    """cost(k) for k = 0 ... n, from the report's resolved configuration."""
    kind = config.get("cost", "average")
    if kind == "average":
        return [Fraction(k) for k in range(n + 1)]
    if kind == "threshold":
        return [Fraction(int(k >= config["tau"])) for k in range(n + 1)]
    if kind == "custom":
        return [Fraction(v) for v in config["cost_values"].split(",")]
    raise ValueError(f"unknown cost {kind!r}")


def check_mu(mu_map: dict, weights: list, rank_value: list, failed: list,
             nonnegative: bool = True) -> Fraction:
    """Append to `failed` each test that a report's mu fails: mu >= 0 (when
    `nonnegative`), no mass on a coset that meets the zero set, and the mu
    holding each supported index sum to its weight.  Returns
    sum cost(k) 2^k mu."""
    n = len(weights).bit_length() - 1
    sums, primal = [Fraction(0)] * (1 << n), Fraction(0)
    for key, value in mu_map.items():
        label, s = key.rsplit(",s=", 1)
        coset, mu = coset_of(label, int(s), n), number(value)
        k = len(coset).bit_length() - 1
        if nonnegative and mu < 0:
            failed.append(f"mu[{key}] = {mu} < 0")
        if mu and any(weights[i] == 0 for i in coset):
            failed.append(f"mu[{key}] = {mu} on a coset that meets the zero set")
        for i in coset:
            sums[i] += mu
        primal += rank_value[k] * mu
    for i, w in enumerate(weights):
        if w and sums[i] != w:
            failed.append(f"the mu holding index {i} sum to {sums[i]}, not w = {w}")
    return primal


def rank_values(config: dict, n: int) -> list:
    """cost(k) 2^k for k = 0 ... n."""
    return [c * (1 << k) for k, c in enumerate(cost_values(config, n))]


def check_candidate(report: dict, profile: dict) -> list:
    """The failed tests of a `primal-candidate` report's point, as lines."""
    candidate = report["candidate"]
    if isinstance(candidate["objective"], float):
        return ["not an exact report"]
    n = profile["n"]
    weights = [number(w) for w in profile["weights"]]
    failed = []
    nonnegative = candidate["nonnegative"]
    primal = check_mu(candidate["mu"], weights, rank_values(report["config"], n), failed,
                      nonnegative)
    if not nonnegative and all(number(v) >= 0 for v in candidate["mu"].values()):
        failed.append("the report says not nonnegative, but every mu >= 0")
    if primal != number(candidate["objective"]):
        failed.append(f"sum cost mu = {primal}, not the objective {candidate['objective']}")
    return failed


def check(report: dict, profile: dict) -> list:
    """The failed tests of an exact `solve` or `primal-candidate` report,
    as lines; [] if none."""
    if "candidate" in report:
        return check_candidate(report, profile)
    if report["primal"]["mode"] != "exact":
        return ["not an exact report"]
    n = profile["n"]
    weights = [number(w) for w in profile["weights"]]
    rank_value = rank_values(report["config"], n)
    rho, sigma = number(report["rho"]), number(report["sigma"])
    failed = []
    primal = check_mu(report["primal_solution"]["mu"], weights, rank_value, failed)

    b_map = report["dual_solution"]["b"]
    b = [number(b_map[coordinates(i, n)]) for i in range(1 << n)]
    failed += [f"b[{i}] = {v} < 0" for i, v in enumerate(b) if v < 0]
    for space in subspaces(n):
        need = rank_value[len(space).bit_length() - 1]
        for coset in cosets(space, n):
            total = sum(b[i] for i in coset)
            if total < need:
                failed.append(f"b sums to {total} < {need} over coset {sorted(coset)}")
    dual = sum(v * w for v, w in zip(b, weights))

    if not primal == dual == rho == sigma or report["gap"] != 0:
        failed.append(f"sum cost mu = {primal}, sum b w = {dual}, rho = {rho}, "
                      f"sigma = {sigma}, gap = {report['gap']} are not all equal")
    return failed


def main(argv) -> int:
    with open(argv[0]) as fh:
        report = json.load(fh)
    with open(argv[1]) as fh:
        profile = json.load(fh)
    try:
        failed = check(report, profile)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        failed = [f"malformed report or profile: {exc!r}"]
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
