"""Output checks behind the benchmark's failure count.

An operation fails when it raises, when a closed-form output is non-finite
or outside its range (a probability outside [0, 1]), when a Monte Carlo
estimate misses its closed form by more than ``Z_LIMIT`` standard errors on
a check that is not degenerate, or, on the reference pass, when a Monte Carlo
mean is not bit-identical to ``reference.json`` or a closed-form value or
standard error differs from it by more than ``REL_TOL``. Standard errors get
the tolerance because mcsim reduces sums of squares with ``np.dot``, whose
summation order depends on the BLAS build and its thread count.

A Monte Carlo check is degenerate when it cannot fail: zero standard error,
or an estimate pinned to an end of its range. Those are counted, not passed.

Records come from ``workloads``:
    ("value", label, x, lo, hi)
    ("mc", label, mean, stderr, analytic, lo, hi, z)   z None: compute it
    ("cli", command, exit code, output text, argv)
"""

from __future__ import annotations

import math
import re

from relaysense.cli import Z_LIMIT

# closed-form values may move by this much against the reference (a
# reordered sum or a different but exact algorithm); Monte Carlo values may not
REL_TOL = 1e-9

# ulps within which a Monte Carlo mean equals its closed form outright; the
# chunked reduction resolves the mean to a few ulps
ULP_SLACK = 16.0

_NUM = r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])"
_NUM_RE = re.compile(_NUM)
_PLUSMINUS_RE = re.compile(r"(%s) \+/- (%s)\s+\(z=(%s)\)" % (_NUM, _NUM, _NUM))
_VALIDATE_RE = re.compile(
    r"^(\w+)\s+analytic=(%s)\s+mc=(%s)\s+se=(%s)\s+z=\s*(%s)\s+(pass|FAIL)$"
    % (_NUM, _NUM, _NUM, _NUM))
_PROB_RE = re.compile(r"\b(?:p_detect|p_outage)\w*\s*=\s*(%s)" % _NUM)


def _in_range(x, lo, hi):
    return math.isfinite(x) and lo <= x <= hi


def check_records(records):
    """Return (failure messages, number of degenerate Monte Carlo checks)."""
    failures = []
    degenerate = 0
    for rec in records:
        if rec[0] == "value":
            _, label, x, lo, hi = rec
            if not _in_range(x, lo, hi):
                failures.append("%s = %r outside [%g, %g]" % (label, x, lo, hi))
        elif rec[0] == "mc":
            _, label, mean, se, ana, lo, hi, z = rec
            if not (_in_range(mean, lo, hi) and math.isfinite(se) and se >= 0.0):
                failures.append("%s = %r +/- %r invalid" % (label, mean, se))
                continue
            if se == 0.0 or mean <= lo or mean >= hi:
                degenerate += 1
                continue
            if z is None:
                diff = mean - ana
                scale = max(abs(mean), abs(ana))
                z = 0.0 if abs(diff) <= ULP_SLACK * math.ulp(scale) else diff / se
            if not abs(z) <= Z_LIMIT:
                failures.append("%s: mc %r +/- %r vs closed form %r (z=%.2f)"
                                % (label, mean, se, ana, z))
        elif rec[0] == "cli":
            f, d = check_records(parse_cli(rec))
            failures += f
            degenerate += d
            if rec[2] != 0:
                failures.append("%s exited %d" % (rec[1], rec[2]))
        else:
            raise ValueError("unknown record kind %r" % (rec[0],))
    return failures, degenerate


def parse_cli(rec):
    """Turn one CLI command's output into value and mc records."""
    _, command, _, text, _ = rec
    out = []
    for n, line in enumerate(text.splitlines()):
        line = line.strip()
        label = "%s:%d" % (command, n)
        m = _VALIDATE_RE.match(line)
        if m:
            name = m.group(1)
            lo, hi = ((0.0, 1.0) if name.startswith(("detection", "outage"))
                      else (-math.inf, math.inf))
            ana, mean, se, z = (float(m.group(k)) for k in (2, 3, 4, 5))
            out.append(("value", "%s:%s" % (label, name), ana, lo, hi))
            out.append(("mc", "%s:%s_mc" % (label, name), mean, se, ana, lo, hi, z))
            continue
        m = _PLUSMINUS_RE.search(line)
        if m:
            mean, se, z = (float(m.group(k)) for k in (1, 2, 3))
            lo, hi = (0.0, 1.0) if _PROB_RE.search(line) else (-math.inf, math.inf)
            # the closed form is not on this line; the printed z carries the check
            out.append(("mc", label, mean, se, math.nan, lo, hi, z))
            continue
        for k, tok in enumerate(_NUM_RE.findall(line)):
            out.append(("value", "%s:%d" % (label, k), float(tok), -math.inf, math.inf))
        for k, m in enumerate(_PROB_RE.finditer(line)):
            out.append(("value", "%s:p%d" % (label, k), float(m.group(1)), 0.0, 1.0))
    return out


# --- reference comparison ---------------------------------------------------------

def _close(a, b, tol=REL_TOL):
    return a == b or abs(a - b) <= tol * max(abs(a), abs(b))


def to_reference(records):
    """JSON form of one operation's records; Monte Carlo values as hex so
    the comparison of means is bit-exact."""
    out = []
    for rec in records:
        if rec[0] == "value":
            out.append(["value", rec[1], repr(rec[2])])
        elif rec[0] == "mc":
            out.append(["mc", rec[1], rec[2].hex(), rec[3].hex(), repr(rec[4])])
        else:
            out.append(["cli", rec[1], rec[2], rec[3]])
    return out


def compare_reference(records, ref):
    """Failure messages for one operation's records against its reference."""
    got = to_reference(records)
    if [r[:2] for r in got] != [r[:2] for r in ref]:
        return ["outputs %s differ in shape from the reference %s"
                % ([r[1] for r in got], [r[1] for r in ref])]
    failures = []
    for g, r in zip(got, ref):
        label = g[1]
        if g[0] == "value":
            if not _close(float(g[2]), float(r[2])):
                failures.append("%s = %s, reference %s" % (label, g[2], r[2]))
        elif g[0] == "mc":
            if g[2] != r[2]:
                failures.append("%s = %r is not bit-identical to the reference %r"
                                % (label, float.fromhex(g[2]), float.fromhex(r[2])))
            if not _close(float.fromhex(g[3]), float.fromhex(r[3])):
                failures.append("%s standard error %r, reference %r"
                                % (label, float.fromhex(g[3]), float.fromhex(r[3])))
            if not _close(float(g[4]), float(r[4])):
                failures.append("%s closed form %s, reference %s" % (label, g[4], r[4]))
        else:
            if g[2] != r[2]:
                failures.append("%s exit code %r, reference %r" % (label, g[2], r[2]))
            failures += compare_cli_text(label, g[3], r[3])
    return failures


def _mc_start(line):
    """Offset of the Monte Carlo mean on one CLI output line, or None."""
    m = _VALIDATE_RE.match(line)
    if m:
        return m.start(3)
    m = _PLUSMINUS_RE.search(line)
    return m.start(1) if m else None


def _last_digit(tok):
    """One unit in the last printed digit of a number token."""
    mant, _, exp = tok.lower().partition("e")
    decimals = len(mant.partition(".")[2])
    return 10.0 ** ((int(exp) if exp else 0) - decimals)


def compare_cli_text(label, got, ref):
    """Compare two outputs of one command: the same text around the numbers,
    Monte Carlo means identical, every other number within REL_TOL or one
    unit in its last printed digit."""
    g_lines, r_lines = got.splitlines(), ref.splitlines()
    if [_NUM_RE.sub("#", s) for s in g_lines] != [_NUM_RE.sub("#", s) for s in r_lines]:
        return ["%s output layout differs from the reference" % label]
    failures = []
    for n, (gl, rl) in enumerate(zip(g_lines, r_lines)):
        mc_at = _mc_start(gl.strip())
        g_off = len(gl) - len(gl.lstrip())
        for gm, rm in zip(_NUM_RE.finditer(gl), _NUM_RE.finditer(rl)):
            gt, rt = gm.group(), rm.group()
            if gm.start() - g_off == mc_at:
                if gt != rt:
                    failures.append("%s line %d: Monte Carlo value %s, reference %s"
                                    % (label, n, gt, rt))
            elif gt != rt:
                a, b = float(gt), float(rt)
                if not (_close(a, b) or abs(a - b) <= 1.0001 * max(_last_digit(gt),
                                                                 _last_digit(rt))):
                    failures.append("%s line %d: %s, reference %s" % (label, n, gt, rt))
    return failures
