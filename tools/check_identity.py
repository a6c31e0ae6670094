"""Check a cylcert certificate's identity without cylcert.

    python3 tools/check_identity.py PROBLEM CERTIFICATE

A second checker, short enough to read against README "File formats"
line by line.  Its checks use only ``json``, ``fractions`` and
``hashlib`` (``sys`` reads the command line) and share no code with
``cylcert verify``.  In order: the ``problem_hash`` is the sha256 of the
problem's canonical object, two-space-indented with sorted keys; there
is one sigma per constraint, plus sigma_0; every weight is strictly
positive; and ``f = sigma_0 + sum sigma_i * g_i`` holds exactly, over
dicts from exponent tuples to ``Fraction`` coefficients.  The degree
laws of the metadata, which ``cylcert verify`` also checks, are not
checked.  Exit 0 and ``identity holds`` when every check passes; exit 1
and the name of the first failed check otherwise.
"""
import hashlib
import json
from fractions import Fraction

# (r1, r2), the sizes of the two unbounded blocks, per variant and r
BLOCKS = {
    "r1_any_m": lambda r: (1, 0),
    "quartic_r2": lambda r: (2, 0),
    "quadratic_rr": lambda r: (r, 0),
    "split_m_by_2": lambda r: (1, r),
}


def read_poly(terms, sizes):
    """A term list as ``{exponent tuple: Fraction}``, x then y1 then y2."""
    poly = {}
    for term in terms:
        exp = ()
        for key, size in zip(("x", "y1", "y2"), sizes):
            exp += tuple(term.get(key, [0] * size))
        poly[exp] = poly.get(exp, 0) + Fraction(term["c"])
    return {e: c for e, c in poly.items() if c}


def write_poly(poly, sizes):
    """The canonical term list: sorted terms, one exponent list per block."""
    out = []
    for exp, c in sorted(poly.items()):
        term, start = {}, 0
        for key, size in zip(("x", "y1", "y2"), sizes):
            if size:
                term[key] = list(exp[start:start + size])
            start += size
        term["c"] = str(c)
        out.append(term)
    return out


def multiply(p, q):
    out = {}
    for e1, a in p.items():
        for e2, b in q.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + a * b
    return out


def add_to(total, p, weight=1):
    for e, c in p.items():
        total[e] = total.get(e, 0) + weight * c


def check(problem, cert):
    """``None`` when every check passes, else the name of the first failure."""
    n, r1, r2 = problem["n"], *BLOCKS[problem["variant"]](problem["r"])
    sizes = (n, r1, r2)
    f = read_poly(problem["f"], sizes)
    gs = [read_poly(g, sizes) for g in problem["g"]]
    canonical = {
        "n": n, "variant": problem["variant"], "m": problem["m"], "r": problem["r"],
        "frame": problem["frame"], "f": write_poly(f, sizes),
        "g": [write_poly(g, sizes) for g in gs],
        "archimedean_attested": problem.get("archimedean_attested", True),
    }
    text = json.dumps(canonical, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    if cert["problem_hash"] != hashlib.sha256(text.encode("utf-8")).hexdigest():
        return "problem hash"
    sigmas = cert["sigmas"]
    if len(sigmas) != len(gs) + 1:
        return "one sigma per constraint, plus sigma_0"
    weights = [[Fraction(w) for w in sigma["weights"]] for sigma in sigmas]
    if any(w <= 0 for ws in weights for w in ws):
        return "positive weights"
    total = {}
    for sigma, ws, g in zip(sigmas, weights, [None] + gs):
        if len(ws) != len(sigma["squares"]):
            return "one weight per square"
        expanded = {}
        for w, square in zip(ws, sigma["squares"]):
            q = read_poly(square, sizes)
            add_to(expanded, multiply(q, q), w)
        add_to(total, expanded if g is None else multiply(expanded, g))
    return None if {e: c for e, c in total.items() if c} == f else "identity"


def main(problem_path, cert_path):
    with open(problem_path, encoding="utf-8") as fh:
        problem = json.load(fh)
    with open(cert_path, encoding="utf-8") as fh:
        cert = json.load(fh)
    failed = check(problem, cert)
    print("identity holds" if failed is None else f"check failed: {failed}")
    return 0 if failed is None else 1


if __name__ == "__main__":
    import sys

    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/check_identity.py PROBLEM CERTIFICATE")
    sys.exit(main(*sys.argv[1:]))
