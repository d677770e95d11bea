"""Command-line front end.

Exit status: 0 when every requested check passes, 1 when a verification
check fails, 2 on usage or domain errors. All stochastic commands require
a seed and rerun byte-identically for the same seed; KORBIT_THREADS is
validated but execution stays sequential, so the value never changes
output.
"""

import argparse
import json
import os
import re
import sys

import numpy as np

from . import algebra, exp_action, foliation, kirillov, orbits, reports
from .errors import DomainError, KorbitError


def _check_threads() -> None:
    raw = os.environ.get("KORBIT_THREADS")
    if raw is None:
        return
    try:
        v = int(raw)
    except ValueError:
        raise DomainError(
            f"KORBIT_THREADS must be a positive integer, got {raw!r}") from None
    if v < 1:
        raise DomainError(f"KORBIT_THREADS must be a positive integer, got {v}")


def _parse_covector(text):
    if text is None:
        raise DomainError("a covector is required (--covector 'x,y,z,t,s')")
    # a config file may give a list, of anything JSON holds
    items = (text if isinstance(text, (list, tuple))
             else str(text).replace(",", " ").split())
    try:
        vals = [algebra._as_real("covector", v) for v in items]
    except DomainError:  # neither float() nor a bool will do
        raise DomainError(f"covector must be 5 numbers, got {text!r}") from None
    if len(vals) != 5:
        raise DomainError(f"covector must have 5 coordinates, got {len(vals)}")
    return np.array(vals, dtype=float)


def _parse_params(family, raw):
    """Accept 'name=value,...', each name once, or positional values in
    catalog order."""
    if raw is None:
        return None
    if isinstance(raw, dict):
        return raw
    text = str(raw).strip()
    if not text:
        return None
    try:
        if "=" in text:
            out = {}
            for item in text.split(","):
                item = item.strip()
                if not item:
                    continue
                name, _, val = item.partition("=")
                name = name.strip()
                if name in out:
                    raise DomainError(f"parameter {name} is given more than "
                                      f"once in {raw!r}")
                out[name] = float(val)
            return out
        values = [float(v) for v in text.replace(",", " ").split()]
    except DomainError:
        raise
    except ValueError:
        raise DomainError(f"could not parse parameters {raw!r}") from None
    return algebra.params_from_sequence(family, values)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bytes that are not UTF-8, an integer
        # past int()'s digit limit; RecursionError: nesting too deep
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise DomainError("config file must hold a JSON object")
    return cfg


# Every option once: its dest, type and help. The flag is the dest with
# '-' for '_'. A typed option converts a config value, a JSON string or
# number, with the same type as its flag (an int option refuses a
# non-integral number); None passes the value through to the command's own
# parser.
_OPTIONS = {
    "config": (None, "JSON file with option defaults (command-line flags "
                     "win)"),
    "out": (str, "write the payload to this file instead of stdout"),
    "seed": (int, "random seed (required)"),
    "n": (int, "sample count"),
    "radius": (float, "coordinate cube half-width for draws"),
    "family": (None, "a tag, or 'all' where the command takes several"),
    "params": (None, "name=value pairs or values in catalog order "
                     "(defaults if omitted)"),
    "covector": (None, "5 comma-separated coordinates"),
    "case": (str, "case index or 'all'"),
    "snap_tol": (float, "treat |coordinate| below this as zero"),
    "member_tol": (float, "bound on the normalized constraint residuals"),
    "tangency_tol": (float, "bound on the tangency residual"),
    "rank_tol": (float, "singular-value threshold of the rank tests"),
    "grad_tol": (float, "bound on the relative gradient error"),
    "pairs": (int, "covector pairs to check"),
    "members": (int, "orbit members per chart probe"),
    "tol": (float, "partition tolerance on normalized residuals"),
    "format": (None, "payload format"),
}


class _Options:
    """Resolution order: command-line flag, then config entry; an option
    set by neither is None, so the library default applies."""

    def __init__(self, args, cfg):
        self._args = args
        self._cfg = cfg
        self._formats = _COMMANDS[args.command][3]
        self._seen = set()

    def get(self, name, default=None):
        self._seen.add(name)
        v = getattr(self._args, name, None)
        if v is not None:
            return v
        if name not in self._cfg:
            return default
        v = self._cfg[name]
        if name == "format" and v not in self._formats:
            raise DomainError(f"config entry 'format' must be one of "
                              f"{', '.join(self._formats)}, got {v!r}")
        typ = _OPTIONS[name][0]
        if typ is None:
            return v
        ok = isinstance(v, (str, int, float)) and not isinstance(v, bool)
        if typ is int and isinstance(v, float):
            ok = v.is_integer()  # int() would truncate 2.5 to 2
        try:
            if ok:
                return typ(v)
        except (ValueError, OverflowError):
            pass
        raise DomainError(f"config entry {name!r} must be a {typ.__name__} "
                          f"value, got {v!r}")

    def given(self, *names, **renamed):
        """The options set by flag or config as keyword arguments: each of
        names under its own name, each renamed option under its key."""
        pairs = [(k, k) for k in names] + list(renamed.items())
        kw = {key: self.get(name) for key, name in pairs}
        return {key: v for key, v in kw.items() if v is not None}

    def require_seed(self):
        seed = self.get("seed")
        if seed is None:
            raise DomainError(
                "this command samples randomly and needs an explicit "
                "--seed (or a 'seed' config entry)")
        return seed

    def warn_unused(self):
        for k in self._cfg:
            if k not in self._seen and k != "command":
                print(f"warning: unused config entry {k!r}", file=sys.stderr)


def _documents(docs) -> str:
    """One JSON document, or a list of them when there are several."""
    return reports.dumps(docs[0] if len(docs) == 1 else docs) + "\n"


def _families(opt):
    fam = opt.get("family")
    if fam is None:
        raise DomainError("--family is required (a tag like 5.3.1, or all)")
    if str(fam).lower() == "all":
        return list(algebra.FAMILY_TAGS)
    return [algebra.normalize_family(str(fam))]


def _single_family(opt, command):
    families = _families(opt)
    if len(families) != 1:
        raise DomainError(f"{command} needs a single family")
    return families[0]


def _family_params(opt, families):
    raw = opt.get("params")
    if raw is not None and len(families) > 1:
        raise DomainError("--params cannot be combined with --family all")
    return _parse_params(families[0], raw) if raw is not None else None


# Each command returns its payload and whether every check passed.

def _cmd_list_families(opt):
    cat = algebra.family_catalog()
    if opt.get("format") == "json":
        return reports.dumps(cat) + "\n", True
    lines = [cat["basis"]]
    for e in cat["families"]:
        lines.append("")
        lines.append(f"{e['tag']} ({e['name']})")
        if e["parameters"]:
            defaults = ", ".join(f"{k}={v:g}" for k, v in e["defaults"].items())
            lines.append("  parameters: " + ", ".join(e["parameters"])
                         + f"  (defaults: {defaults})")
        else:
            lines.append("  parameters: none")
        if e["constraints"]:
            lines.append("  domain: " + "; ".join(e["constraints"]))
        rows = "; ".join("[" + ", ".join(str(v) for v in row) + "]"
                         for row in e["ad_x2"])
        lines.append("  ad(X2) on the ideal: " + rows)
    return "\n".join(lines) + "\n", True


def _cmd_classify(opt):
    family = _single_family(opt, "classify")
    params = _parse_params(family, opt.get("params"))
    F = _parse_covector(opt.get("covector"))
    desc = orbits.classify_orbit(family, params, F, **opt.given("snap_tol"))
    if opt.get("format") == "json":
        return reports.dumps(orbits.descriptor_summary(desc)) + "\n", True
    lines = [f"case {desc.case_index}, {desc.shape}, dim {desc.dim}"]
    lines.append("constraints:")
    for c in desc.constraints:
        lines.append(f"  {c.expr}")
    if desc.signs:
        lines.append("signs: " + "; ".join(s.expr for s in desc.signs))
    lines.append(f"provenance: {desc.provenance}")
    if desc.snapped:
        lines.append("note: coordinates below the snap tolerance were "
                     "treated as zero")
    return "\n".join(lines) + "\n", True


def _cmd_scan_md(opt):
    families = _families(opt)
    seed = opt.require_seed()
    n = opt.get("n", 100000)
    kw = opt.given("rank_tol", "radius")
    params = _family_params(opt, families)
    reps = [kirillov.md_scan(fam, params, n=n, seed=seed, **kw)
            for fam in families]
    return (_documents([r.to_json_dict() for r in reps]),
            all(r.passed for r in reps))


def _cases(family, case):
    # the cases --case names for one family: all of them, or one index
    cases = orbits.case_indices(family)
    if case.lower() == "all":
        return cases
    try:
        return (int(case),)
    except ValueError:
        raise DomainError(
            f"--case must be 'all' or a case of family {family} "
            f"({', '.join(map(str, cases))}), got {case!r}") from None


def _cmd_verify_props(opt):
    families = _families(opt)
    seed = opt.require_seed()
    n = opt.get("n", 500)
    kw = opt.given("radius", "member_tol", "tangency_tol", "rank_tol",
                   "grad_tol")
    case = opt.get("case", "all")
    params = _family_params(opt, families)
    fmt = opt.get("format")
    reps = []
    for fam in families:
        for c in _cases(fam, case):
            reps.append(orbits.verify_proposition(fam, params, c, n=n,
                                                  seed=seed, **kw))
    ok = all(r.passed for r in reps)
    if fmt == "json":
        return _documents([r.to_json_dict() for r in reps]), ok
    lines = []
    for r in reps:
        verdict = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.family} case {r.case} ({r.shape}, dim {r.dim}): "
            f"{verdict}  max residual {r.max_residual:.3e}, "
            f"tangency {r.tangency_max:.3e}, "
            f"sign violations {r.sign_violations}, "
            f"rank failures {r.jacobian_failures}, "
            f"dim mismatches {r.dimension_mismatches}")
        for pr in r.provenance:
            lit = ("none" if pr["literal_residual"] is None
                   else f"{pr['literal_residual']:.3e}")
            cor = ("none" if pr["corrected_residual"] is None
                   else f"{pr['corrected_residual']:.3e}")
            lines.append(f"  adjudicated [{pr['adopted']}] "
                         f"literal {lit}, corrected {cor}: {pr['equation']}")
    lines.append("all cases passed" if ok else "verification FAILED")
    return "\n".join(lines) + "\n", ok


def _cmd_sample_orbit(opt):
    family = _single_family(opt, "sample-orbit")
    seed = opt.require_seed()
    params = _parse_params(family, opt.get("params"))
    F = _parse_covector(opt.get("covector"))
    n = opt.get("n", 100)
    alg = algebra.build_algebra(family, params)
    sample = exp_action.sample_orbit(alg, F, n, seed=seed,
                                     **opt.given("radius"))
    if opt.get("format") == "json":
        return reports.dumps(sample.to_json_dict()) + "\n", True
    return reports.points_to_csv(sample.points), True


def _cmd_check_foliation(opt):
    families = _families(opt)
    seed = opt.require_seed()
    kw = opt.given("pairs", "radius", "tol")
    probe_kw = opt.given("radius", n="members")
    params = _family_params(opt, families)
    docs = []
    ok = True
    for fam in families:
        rep = foliation.partition_check(fam, params, seed=seed, **kw)
        probes = {}
        for c in orbits.case_indices(fam):
            if c == 1:
                continue  # single point, no chart to probe
            probes[str(c)] = foliation.local_triviality_probe(
                fam, params, c, seed=seed, **probe_kw)
        doc = rep.to_json_dict()
        doc["local_triviality"] = probes
        docs.append(doc)
        ok = ok and rep.passed and all(probes.values())
    return _documents(docs), ok


_SAMPLING = ("seed", "n", "radius")

# name: (function, help, options after --config and --out, --format
# choices with the default first; a command without them emits JSON)
_COMMANDS = {
    "list-families": (_cmd_list_families, "print the family catalog",
                      (), ("text", "json")),
    "classify": (_cmd_classify, "orbit case, shape, and constraint set "
                                "through a covector",
                 ("family", "params", "covector", "snap_tol"),
                 ("text", "json")),
    "scan-md": (_cmd_scan_md, "random covector scan: every orbit dimension "
                              "must be 0 or 2",
                _SAMPLING + ("family", "params", "rank_tol"), ()),
    "verify-props": (_cmd_verify_props, "sampled verification of the "
                                        "closed-form orbit descriptions",
                     _SAMPLING + ("family", "params", "case", "member_tol",
                                  "tangency_tol", "rank_tol", "grad_tol"),
                     ("text", "json")),
    "sample-orbit": (_cmd_sample_orbit, "sample coadjoint images of a "
                                        "covector",
                     _SAMPLING + ("family", "params", "covector"),
                     ("csv", "json")),
    # its chart probes sample --members points each: it takes no --n
    "check-foliation": (_cmd_check_foliation, "orbit-partition and chart "
                                              "checks",
                        ("seed", "radius", "family", "params", "pairs",
                         "members", "tol"), ()),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="korbit",
        description="Coadjoint-orbit checks for the eight five-dimensional "
                    "families with three-dimensional abelian derived ideal.")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, text, names, formats) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        if formats:
            names += ("format",)
        for name in ("config", "out") + names:
            typ, help_text = _OPTIONS[name]
            sp.add_argument("--" + name.replace("_", "-"), dest=name,
                            type=typ, help=help_text,
                            choices=formats if name == "format" else None)
    return p


_NEGATIVE = re.compile(r"-(\.?\d|(inf|infinity|nan)\b)", re.IGNORECASE)


def _attach_negative_values(argv):
    """Spell '--params -2,0.5' as '--params=-2,0.5'.

    argparse reads a token that starts with '-' as an option unless it is a
    plain number without an exponent, so value lists such as '-2,0.5' and
    numbers such as '-1e-3' or '-inf' would be refused. Every korbit option
    but --help takes one value, so any '--option' token followed by a token
    that starts with a negative number is joined with it: a minus and a
    digit, or a minus and one of float()'s spellings inf, infinity and nan
    in any case.
    """
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev
                and prev not in ("--", "--help") and _NEGATIVE.match(arg)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_attach_negative_values(argv))
    _check_threads()
    opt = _Options(args, _load_config(args.config))
    payload, ok = _COMMANDS[args.command][0](opt)
    out = opt.get("out")
    if out:
        reports.write_text(out, payload)
        print(f"wrote {out}")
    else:
        sys.stdout.write(payload)
    opt.warn_unused()
    return 0 if ok else 1


def entry(argv=None) -> int:
    try:
        return main(argv)
    except (KorbitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
