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
    try:  # a config file may give a list, of anything JSON holds
        if isinstance(text, (list, tuple)):
            vals = [float(v) for v in text]
        else:
            vals = [float(v) for v in str(text).replace(",", " ").split()]
    except (TypeError, ValueError):
        raise DomainError(f"covector must be 5 numbers, got {text!r}") from None
    if len(vals) != 5:
        raise DomainError(f"covector must have 5 coordinates, got {len(vals)}")
    return np.array(vals, dtype=float)


def _parse_params(family, raw):
    """Accept 'name=value,...' or positional values in catalog order."""
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
                out[name.strip()] = float(val)
            return out
        values = [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise DomainError(f"could not parse parameters {raw!r}") from None
    return algebra.params_from_sequence(family, values)


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise DomainError("config file must hold a JSON object")
    return cfg


class _Options:
    """Resolution order: command-line flag, then config entry, then default."""

    def __init__(self, args, cfg):
        self._args = args
        self._cfg = cfg
        self._seen = set()

    def get(self, name, default=None):
        self._seen.add(name)
        v = getattr(self._args, name, None)
        if v is not None:
            return v
        if name in self._cfg:
            return self._cfg[name]
        return default

    def require_seed(self):
        seed = self.get("seed")
        if seed is None:
            raise DomainError(
                "this command samples randomly and needs an explicit "
                "--seed (or a 'seed' config entry)")
        return int(seed)

    def warn_unused(self):
        for k in self._cfg:
            if k not in self._seen and k != "command":
                print(f"warning: unused config entry {k!r}", file=sys.stderr)


def _deliver(opt, payload: str) -> None:
    out = opt.get("out")
    if out:
        reports.write_text(out, payload)
        print(f"wrote {out}")
    else:
        sys.stdout.write(payload)


def _families(opt):
    fam = opt.get("family")
    if fam is None:
        raise DomainError("--family is required (a tag like 5.3.1, or all)")
    if str(fam).lower() == "all":
        return list(algebra.FAMILY_TAGS)
    return [algebra.normalize_family(str(fam))]


def _family_params(opt, families):
    raw = opt.get("params")
    if raw is not None and len(families) > 1:
        raise DomainError("--params cannot be combined with --family all")
    return _parse_params(families[0], raw) if raw is not None else None


def _cmd_list_families(opt) -> int:
    fmt = opt.get("format", "text")
    cat = algebra.family_catalog()
    if fmt == "json":
        _deliver(opt, reports.dumps(cat) + "\n")
        return 0
    if fmt != "text":
        raise DomainError(f"unknown format {fmt!r} (text or json)")
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
    _deliver(opt, "\n".join(lines) + "\n")
    return 0


def _cmd_classify(opt) -> int:
    families = _families(opt)
    if len(families) != 1:
        raise DomainError("classify needs a single family")
    family = families[0]
    params = _parse_params(family, opt.get("params"))
    F = _parse_covector(opt.get("covector"))
    snap = float(opt.get("snap_tol", 0.0))
    desc = orbits.classify_orbit(family, params, F, snap_tol=snap)
    fmt = opt.get("format", "text")
    if fmt == "json":
        payload = reports.dumps(orbits.descriptor_summary(desc)) + "\n"
    elif fmt == "text":
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
        payload = "\n".join(lines) + "\n"
    else:
        raise DomainError(f"unknown format {fmt!r} (text or json)")
    _deliver(opt, payload)
    return 0


def _cmd_scan_md(opt) -> int:
    families = _families(opt)
    seed = opt.require_seed()
    n = int(opt.get("n", 100000))
    radius = float(opt.get("radius", 10.0))
    rank_tol = float(opt.get("rank_tol", 1e-9))
    params = _family_params(opt, families)
    reps = []
    ok = True
    for fam in families:
        rep = kirillov.md_scan(fam, params, n=n, seed=seed,
                               rank_tol=rank_tol, radius=radius)
        reps.append(rep.to_json_dict())
        ok = ok and rep.passed
    payload = reports.dumps(reps[0] if len(reps) == 1 else reps) + "\n"
    _deliver(opt, payload)
    return 0 if ok else 1


def _cmd_verify_props(opt) -> int:
    families = _families(opt)
    seed = opt.require_seed()
    n = int(opt.get("n", 500))
    radius = float(opt.get("radius", 2.0))
    member_tol = float(opt.get("member_tol", 1e-8))
    tangency_tol = float(opt.get("tangency_tol", 1e-8))
    rank_tol = float(opt.get("rank_tol", 1e-9))
    grad_tol = float(opt.get("grad_tol", 1e-4))
    case_opt = opt.get("case", "all")
    params = _family_params(opt, families)
    fmt = opt.get("format", "text")
    if fmt not in ("text", "json"):
        raise DomainError(f"unknown format {fmt!r} (text or json)")
    reps = []
    ok = True
    for fam in families:
        if case_opt is None or str(case_opt).lower() == "all":
            cases = orbits.case_indices(fam)
        else:
            cases = (int(case_opt),)
        for c in cases:
            rep = orbits.verify_proposition(
                fam, params, c, n=n, seed=seed, radius=radius,
                member_tol=member_tol, tangency_tol=tangency_tol,
                rank_tol=rank_tol, grad_tol=grad_tol)
            reps.append(rep)
            ok = ok and rep.passed
    if fmt == "json":
        docs = [r.to_json_dict() for r in reps]
        payload = reports.dumps(docs[0] if len(docs) == 1 else docs) + "\n"
    else:
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
        payload = "\n".join(lines) + "\n"
    _deliver(opt, payload)
    return 0 if ok else 1


def _cmd_sample_orbit(opt) -> int:
    families = _families(opt)
    if len(families) != 1:
        raise DomainError("sample-orbit needs a single family")
    family = families[0]
    seed = opt.require_seed()
    params = _parse_params(family, opt.get("params"))
    F = _parse_covector(opt.get("covector"))
    n = int(opt.get("n", 100))
    radius = float(opt.get("radius", 2.0))
    alg = algebra.build_algebra(family, params)
    sample = exp_action.sample_orbit(alg, F, n, seed=seed, radius=radius)
    fmt = opt.get("format", "csv")
    if fmt == "csv":
        payload = reports.points_to_csv(sample.points)
    elif fmt == "json":
        payload = reports.dumps(sample.to_json_dict()) + "\n"
    else:
        raise DomainError(f"unknown format {fmt!r} (csv or json)")
    _deliver(opt, payload)
    return 0


def _cmd_check_foliation(opt) -> int:
    families = _families(opt)
    seed = opt.require_seed()
    pairs = int(opt.get("pairs", 100))
    members = int(opt.get("members", 100))
    radius = float(opt.get("radius", 2.0))
    tol = float(opt.get("tol", 1e-8))
    params = _family_params(opt, families)
    docs = []
    ok = True
    for fam in families:
        rep = foliation.partition_check(fam, params, pairs=pairs, seed=seed,
                                        radius=radius, tol=tol)
        probes = {}
        for c in orbits.case_indices(fam):
            if c == 1:
                continue  # single point, no chart to probe
            probes[str(c)] = foliation.local_triviality_probe(
                fam, params, c, n=members, seed=seed, radius=radius)
        doc = rep.to_json_dict()
        doc["local_triviality"] = probes
        docs.append(doc)
        ok = ok and rep.passed and all(probes.values())
    payload = reports.dumps(docs[0] if len(docs) == 1 else docs) + "\n"
    _deliver(opt, payload)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="korbit",
        description="Coadjoint-orbit checks for the eight five-dimensional "
                    "families with three-dimensional abelian derived ideal.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, stochastic=True):
        sp.add_argument("--config", help="JSON file with option defaults "
                                         "(command-line flags win)")
        sp.add_argument("--out", help="write the payload to this file "
                                      "instead of stdout")
        if stochastic:
            sp.add_argument("--seed", type=int, help="random seed (required)")
            sp.add_argument("--n", type=int, help="sample count")
            sp.add_argument("--radius", type=float,
                            help="coordinate cube half-width for draws")

    sp = sub.add_parser("list-families",
                        help="print the family catalog")
    common(sp, stochastic=False)
    sp.add_argument("--format", choices=("text", "json"))

    sp = sub.add_parser("classify",
                        help="orbit case, shape, and constraint set through "
                             "a covector")
    common(sp, stochastic=False)
    sp.add_argument("--family")
    sp.add_argument("--params", help="name=value pairs or values in catalog "
                                     "order (defaults if omitted)")
    sp.add_argument("--covector", help="5 comma-separated coordinates")
    sp.add_argument("--snap-tol", dest="snap_tol", type=float,
                    help="treat |coordinate| below this as zero")
    sp.add_argument("--format", choices=("text", "json"))

    sp = sub.add_parser("scan-md",
                        help="random covector scan: every orbit dimension "
                             "must be 0 or 2")
    common(sp)
    sp.add_argument("--family", help="a tag or 'all'")
    sp.add_argument("--params")
    sp.add_argument("--rank-tol", dest="rank_tol", type=float)

    sp = sub.add_parser("verify-props",
                        help="sampled verification of the closed-form orbit "
                             "descriptions")
    common(sp)
    sp.add_argument("--family", help="a tag or 'all'")
    sp.add_argument("--params")
    sp.add_argument("--case", help="case index or 'all'")
    sp.add_argument("--member-tol", dest="member_tol", type=float)
    sp.add_argument("--tangency-tol", dest="tangency_tol", type=float)
    sp.add_argument("--rank-tol", dest="rank_tol", type=float)
    sp.add_argument("--grad-tol", dest="grad_tol", type=float)
    sp.add_argument("--format", choices=("text", "json"))

    sp = sub.add_parser("sample-orbit",
                        help="sample coadjoint images of a covector")
    common(sp)
    sp.add_argument("--family")
    sp.add_argument("--params")
    sp.add_argument("--covector")
    sp.add_argument("--format", choices=("csv", "json"))

    sp = sub.add_parser("check-foliation",
                        help="orbit-partition and chart checks")
    common(sp)
    sp.add_argument("--family", help="a tag or 'all'")
    sp.add_argument("--params")
    sp.add_argument("--pairs", type=int)
    sp.add_argument("--members", type=int,
                    help="orbit members per chart probe")
    sp.add_argument("--tol", type=float)

    return p


def _attach_negative_values(argv):
    """Spell '--params -2,0.5' as '--params=-2,0.5'.

    argparse reads a token that starts with '-' as an option unless it is a
    plain number without an exponent, so value lists such as '-2,0.5' and
    numbers such as '-1e-3' would be refused. Every korbit option but
    --help takes one value, so any '--option' token followed by a token
    that starts with a minus and a digit is joined with it.
    """
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev
                and prev not in ("--", "--help") and re.match(r"-\.?\d", arg)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


_DISPATCH = {
    "list-families": _cmd_list_families,
    "classify": _cmd_classify,
    "scan-md": _cmd_scan_md,
    "verify-props": _cmd_verify_props,
    "sample-orbit": _cmd_sample_orbit,
    "check-foliation": _cmd_check_foliation,
}


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_attach_negative_values(argv))
    _check_threads()
    cfg = _load_config(args.config)
    opt = _Options(args, cfg)
    code = _DISPATCH[args.command](opt)
    opt.warn_unused()
    return code


def entry(argv=None) -> int:
    try:
        return main(argv)
    except KorbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
