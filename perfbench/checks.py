"""Checks of one experiment's report.json and table.csv.

Every expected value is worked out here from the config alone: exact
fractions for certificate bounds, index arithmetic for subspace invariance,
a separate enumeration of the dense family, and a numpy matrix for spectra.
Nothing is compared with a saved copy of earlier output.  ``prepare`` does
the per-config work once; ``verify`` returns a list of problems, empty when
the experiment is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

# Relative slack between the certificate bound and its exact value: the
# program sums float powers of |lambda|, whose rounding grows with the
# exponent (at most ~100 units in the last place for the sizes used).
BOUND_RTOL = 1e-13


# --------------------------------------------------------------------------
# Patterns, operators and the dense family, re-derived from their definitions.


def _forbids(pattern: dict, i: int) -> bool:
    kind = pattern["kind"]
    if kind == "prefix":
        return i < pattern["m"]
    if kind == "residue":
        return i >= pattern["a"] and (i - pattern["a"]) % pattern["b"] == 0
    if kind == "supportIn":
        return i % pattern["b"] != 0
    if kind == "rightBlock":
        return i >= pattern["split"]
    raise ValueError(f"unknown pattern kind {kind!r}")


def _allowed(pattern: dict, bound: int) -> list[int]:
    return [i for i in range(bound) if not _forbids(pattern, i)]


def _lambda(cfg: dict) -> complex:
    return complex(*cfg["lambda"])


def _shift_power(cfg: dict) -> int:
    """Shift power p of an operator of the form c * B^p (default lambda * B)."""
    op = cfg.get("operator") or {"kind": "scalar", "of": {"kind": "backwardShift"}}
    while op["kind"] == "scalar":
        op = op["of"]
    if op["kind"] != "backwardShift":
        raise ValueError(f"not a scaled backward shift: {op!r}")
    return op.get("power", 1)


def _preserves(pattern: dict, shift: int, dim: int) -> bool:
    """Does B^shift map every allowed basis vector below dim into the subspace?

    B^s e_i is a multiple of e_(i-s), or zero when i < s.
    """
    return all(
        i < shift or not _forbids(pattern, i - shift) for i in _allowed(pattern, dim)
    )


def _family(pattern: dict, support_bound: int, level0: int, j: int) -> dict[int, complex]:
    """Member j of the dense family: index 0 is zero; then, level by level,
    support sizes s = 1..r over the first allowed indices with a nonzero
    s-th coordinate, digits in lexicographic order.  Digit d on level L is
    the grid point (d // side - 2^L, d % side - 2^L) / 2^L, side = 2^(L+1)+1.
    """
    if j == 0:
        return {}
    allowed = _allowed(pattern, support_bound)
    r = len(allowed)
    t = j - 1
    level = level0
    while True:
        g = (2 ** (level + 1) + 1) ** 2
        if t < g**r - 1:
            break
        t -= g**r - 1
        level += 1
    s = 1
    while t >= g ** (s - 1) * (g - 1):
        t -= g ** (s - 1) * (g - 1)
        s += 1
    side, half = 2 ** (level + 1) + 1, 2**level
    zero_digit = half * side + half
    last = t % (g - 1)
    digits = []
    rest = t // (g - 1)
    for _ in range(s - 1):
        digits.append(rest % g)
        rest //= g
    digits.reverse()
    digits.append(last if last < zero_digit else last + 1)
    return {
        allowed[k]: complex(d // side - half, d % side - half) / half
        for k, d in enumerate(digits)
        if d != zero_digit
    }


def _net_size(r: int, level: int) -> int:
    """Grid points of the level with r complex coordinates in the closed unit ball."""
    half = 2**level
    radius2 = 4**level  # in units of the grid step squared
    per_coord = [0] * (2 * radius2 + 1)
    for a in range(-half, half + 1):
        for b in range(-half, half + 1):
            per_coord[a * a + b * b] += 1
    counts = [1]
    for _ in range(r):
        nxt = [0] * (len(counts) + len(per_coord) - 1)
        for u, cu in enumerate(counts):
            if cu:
                for v, cv in enumerate(per_coord):
                    nxt[u + v] += cu * cv
        counts = nxt
    return sum(counts[: radius2 + 1])


def _norm(vec: dict[int, complex]) -> float:
    return math.sqrt(math.fsum(abs(z) ** 2 for z in vec.values()))


# --------------------------------------------------------------------------
# prepare: expectations per config.


def prepare(cfg: dict) -> dict:
    command = cfg["command"]
    if command == "criterion":
        return _prepare_criterion(cfg)
    if command == "probe":
        return _prepare_probe(cfg)
    if command == "certify":
        lam2 = Fraction(cfg["lambda"][0]) ** 2 + Fraction(cfg["lambda"][1]) ** 2
        count = cfg["targets"]
        bounds = [
            math.sqrt(sum((1 / lam2**i for i in range(n + 1, count + 1)), Fraction(0)))
            for n in range(count + 1)
        ]
        return {"bounds": bounds, "exit": 0}
    if command == "findim":
        r = len(_allowed(cfg["pattern"], cfg["supportBound"]))
        return {
            "netSize": _net_size(r, cfg["netLevel"]),
            "allowedInDim": len(_allowed(cfg["pattern"], cfg["truncationDim"])),
            "exit": 0,
        }
    if command == "spectrum":
        return _prepare_spectrum(cfg)
    return {"exit": 0}


def _prepare_criterion(cfg: dict) -> dict:
    pattern, p = cfg["pattern"], _shift_power(cfg)
    stride = pattern["b"] if pattern["kind"] == "residue" else 1
    nks = [stride * k for k in range(1, cfg["horizon"] + 1)]
    lam_abs = abs(_lambda(cfg))
    samples = [
        _family(pattern, cfg["supportBound"], cfg["resolutionLevel"], j)
        for j in range(cfg["targets"])
    ]
    first_zero = []
    for x in samples:
        length = max(x) + 1 if x else 0
        first_zero.append(next((n for n in nks if n * p >= length), None))
    invariant = [_preserves(pattern, n * p, cfg["truncationDim"]) for n in nks]
    cond1 = all(z is not None for z in first_zero)
    cond2 = all(_norm(y) * lam_abs ** (-nks[-1]) <= cfg["tol"] for y in samples)
    cond3 = all(invariant)
    return {
        "nks": nks,
        "firstZero": first_zero,
        "invariant": invariant,
        "verdict": {"condI": cond1, "condII": cond2, "condIII": cond3},
        "exit": 0 if cond1 and cond2 and cond3 else 1,
    }


def _prepare_probe(cfg: dict) -> dict:
    pattern, p = cfg["pattern"], _shift_power(cfg)
    probe = {"uIndex": 1, "vIndex": 2, "uRadius": 0.25, "vRadius": 0.25}
    probe.update(cfg.get("probe", {}))
    sb, level = cfg.get("supportBound", 6), cfg.get("resolutionLevel", 1)
    u = _family(pattern, sb, level, probe["uIndex"])
    v = _family(pattern, sb, level, probe["vIndex"])
    gap = _norm({i: u.get(i, 0j) - v.get(i, 0j) for i in set(u) | set(v)})
    preserving = [
        n for n in range(cfg["horizon"] + 1) if _preserves(pattern, n * p, cfg["truncationDim"])
    ]
    # Power 0 preserves every pattern; it can only hit when the balls meet.
    reachable = [n for n in preserving if n > 0 or gap < probe["uRadius"] + probe["vRadius"]]
    return {"preserving": set(preserving), "reachable": bool(reachable), "exit": 0}


def _prepare_spectrum(cfg: dict) -> dict:
    op, dim = cfg["operator"], cfg["truncationDim"]
    split = min(op["split"], dim)
    left, right = op["left"], op["right"]
    if (left["kind"], left["of"]["kind"], right["kind"], right["of"]["kind"]) != (
        "scalar", "backwardShift", "scalar", "identity"
    ):
        raise ValueError("spectrum checks cover c B (+) c' I only")
    m = np.zeros((dim, dim), dtype=np.complex128)
    # (c B)_(i, i+1) = c inside the left block; c' I on the right block.
    m[np.arange(split - 1), np.arange(1, split)] = complex(*left["factor"])
    m[np.arange(split, dim), np.arange(split, dim)] = complex(*right["factor"])
    # The matrix is triangular, so its eigenvalues are its diagonal.
    moduli = sorted(float(abs(z)) for z in np.diag(m))
    grows = abs(complex(*right["factor"])) > 1.0

    def fate(support):
        # Mass in the right block grows if that block does; the left block
        # is nilpotent, so a probe inside it dies.
        return "toInfinity" if grows and max(support) >= split else "toZero"

    return {
        "moduli": moduli,
        "classes": {"e0": fate([0]), "eLast": fate([dim - 1]), "uniform": fate(range(dim))},
        "exit": 0,
    }


# --------------------------------------------------------------------------
# verify: compare one run's outputs with the expectations.


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def verify(cfg: dict, expect: dict, rc: int, report_text: str, table_text: str) -> list[str]:
    """Problems with one experiment's exit code and outputs; [] when correct."""
    problems = []
    if rc != expect["exit"]:
        problems.append(f"exit code {rc}, expected {expect['exit']}")
    try:
        doc = json.loads(report_text)
        header, rows = _table(table_text)
        if doc["command"] != cfg["command"]:
            problems.append(f"report command {doc['command']!r}")
        if doc["passed"] != (expect["exit"] == 0):
            problems.append(f"report passed={doc['passed']}")
        check = _VERIFY[cfg["command"]]
        problems.extend(check(cfg, expect, doc["report"], header, rows))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def _verify_certify(cfg, expect, rep, header, rows):
    out = []
    entries = rep["entries"]
    tol = cfg["tol"]
    if len(entries) != cfg["targets"] + 1:
        out.append(f"{len(entries)} rows for {cfg['targets']} targets")
    times = [e["k_n"] for e in entries]
    if times[0] != 0 or any(b <= a for a, b in zip(times, times[1:])):
        out.append("hitting times do not start at 0 and strictly increase")
    for e, exact in zip(entries, expect["bounds"]):
        if e["membershipDefect"] != 0.0:
            out.append(f"row {e['n']}: membership defect {e['membershipDefect']!r}")
        if abs(e["bound"] - exact) > BOUND_RTOL * exact or (exact == 0.0) != (e["bound"] == 0.0):
            out.append(f"row {e['n']}: bound {e['bound']!r}, exact {exact!r}")
        if not e["distance"] <= e["bound"] + tol:
            out.append(f"row {e['n']}: distance {e['distance']!r} over bound")
    bounds = [e["bound"] for e in entries]
    if any(b >= a for a, b in zip(bounds, bounds[1:])):
        out.append("bounds do not decrease")
    if not entries[-1]["distance"] <= tol:
        out.append(f"last distance {entries[-1]['distance']!r} over floatTol")
    if header != ["n", "k_n", "defect", "distance", "bound", "pass"]:
        out.append(f"table header {header}")
    expected_rows = [
        [str(e["n"]), str(e["k_n"]), repr(e["membershipDefect"]), repr(e["distance"]),
         repr(e["bound"]), "True"]
        for e in entries
    ]
    if rows != expected_rows:
        out.append("table rows differ from the report")
    return out


def _verify_criterion(cfg, expect, rep, header, rows):
    out = []
    if rep["nks"] != expect["nks"]:
        out.append("exponents differ from stride * (1..horizon)")
    flags = [c["invariant"] for c in rep["condIII"]]
    if flags != expect["invariant"] or [c["n_k"] for c in rep["condIII"]] != expect["nks"]:
        out.append("condition III flags differ from index arithmetic")
    if [d["firstZeroNk"] for d in rep["condI"]] != expect["firstZero"]:
        out.append("firstZeroNk differs from the shift that clears each sample")
    if any(d["maxTailNorm"] != 0.0 for d in rep["condI"]):
        out.append("condition I tail norm is not exactly 0.0")
    tol = cfg["tol"]
    for r in rep["condII"]:
        if not (r["recoveryError"] <= tol and r["normLawDev"] <= tol):
            out.append(f"sample {r['sampleIndex']}: recovery or norm-law deviation over tol")
    verdict = {k: rep["verdict"][k] for k in ("condI", "condII", "condIII")}
    if verdict != expect["verdict"]:
        out.append(f"verdict {verdict}, expected {expect['verdict']}")
    if header != ["condition", "index", "k", "n_k", "value", "pass"]:
        out.append(f"table header {header}")
    if len(rows) != 2 * cfg["targets"] + cfg["horizon"]:
        out.append(f"{len(rows)} table rows")
    elif [r[5] == "True" for r in rows[2 * cfg["targets"]:]] != expect["invariant"]:
        out.append("table condition III rows differ from the flags")
    return out


def _verify_probe(cfg, expect, rep, header, rows):
    out = []
    if cfg["expect"] == "found":
        if not rep["found"] or rep["n"] is None:
            out.append("probe found no hit")
        elif rep["n"] not in expect["preserving"]:
            out.append(f"hit at power {rep['n']}, which does not preserve the pattern")
    else:
        if rep["found"] or rep["n"] is not None:
            out.append(f"probe reported a hit at {rep['n']}")
        if expect["reachable"]:
            out.append("index arithmetic allows a hit, so 'none' is not a certain outcome")
    expected_row = [str(bool(rep["found"])), "" if rep["n"] is None else str(rep["n"])]
    if header != ["found", "n"] or rows != [expected_row]:
        out.append("table differs from the report")
    return out


def _verify_findim(cfg, expect, rep, header, rows):
    out = []
    trials = rep["trials"]
    if len(trials) != cfg["trials"]:
        out.append(f"{len(trials)} trials")
    for tr in trials:
        big, small = tr["rankAtTwiceDim"], tr["rankAtDimMinus1"]
        # The orbit stays in the allowed coordinates, which the matrix keeps.
        if not big <= min(cfg["truncationDim"], expect["allowedInDim"]):
            out.append(f"trial {tr['trial']}: rank {big} too large")
        if not (tr["stabilized"] and small == big):
            out.append(f"trial {tr['trial']}: ranks {small}, {big} not stabilized")
        defect = tr["densityDefect"]
        misses = defect * expect["netSize"]
        if not (0.5 <= defect <= 1.0 and abs(misses - round(misses)) < 1e-6):
            out.append(f"trial {tr['trial']}: density defect {defect!r}")
        if tr["pass"] is not True:
            out.append(f"trial {tr['trial']} failed")
    if len(rows) != len(trials) or header[0] != "trial":
        out.append("table differs from the report")
    return out


def _verify_spectrum(cfg, expect, rep, header, rows):
    out = []
    got = rep["eigenvalueModuli"]
    want = expect["moduli"]
    if len(got) != len(want) or any(
        abs(a - b) > 1e-9 * max(1.0, b) for a, b in zip(sorted(got), want)
    ):
        out.append("eigenvalue moduli differ from the closed form")
    for probe in rep["probes"]:
        if probe["classification"] != expect["classes"][probe["probe"]]:
            out.append(f"probe {probe['probe']}: {probe['classification']}")
    if [r[1] for r in rows] != [p["classification"] for p in rep["probes"]]:
        out.append("table differs from the report")
    return out


def _verify_kernel(cfg, expect, rep, header, rows):
    out = []
    eigen, chain = rep["eigen"], rep["chain"]
    if eigen["instances"] != cfg["eigenInstances"] or chain["instances"] != cfg["chainInstances"]:
        out.append("instance counts differ from the config")
    if not 0.0 <= eigen["maxDeviation"] <= cfg.get("eigenTol", 1e-8):
        out.append(f"eigen pairing deviation {eigen['maxDeviation']!r}")
    if not 0.0 <= chain["maxResidual"] <= cfg.get("chainTol", 1e-7):
        out.append(f"chain pairing residual {chain['maxResidual']!r}")
    if [r[0] for r in rows] != ["eigen", "chain"]:
        out.append("table differs from the report")
    return out


def _verify_jordan(cfg, expect, rep, header, rows):
    out = []
    cases = rep["cases"]
    if len(cases) != 12:
        out.append(f"{len(cases)} jordan cases, expected 4 ranks x 3 lambdas")
    for c in cases:
        if not 0.0 <= c["maxRelError"] <= cfg["tol"]:
            out.append(f"p={c['p']} lambda={c['lambda']}: error {c['maxRelError']!r}")
    if len(rows) != len(cases):
        out.append("table differs from the report")
    return out


_VERIFY = {
    "certify": _verify_certify,
    "criterion": _verify_criterion,
    "probe": _verify_probe,
    "findim": _verify_findim,
    "spectrum": _verify_spectrum,
    "kernel": _verify_kernel,
    "jordan": _verify_jordan,
}
