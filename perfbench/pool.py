"""The benchmark's input pool and the seeded samplers over it.

Compiling a mini-C function through the frontend costs ~50 ms, so the
benchmark compiles a fixed pool once per checkout (the "build" step)
and every run draws its inputs from it:

* ``angha``: ``POOL_SIZE`` functions of ``repro.bench.angha`` generated
  from the fixed seed ``POOL_SEED``, each kept as its C source and its
  precompiled IR;
* ``tsvc``: every ``repro.bench.tsvc`` kernel unrolled by each of
  ``TSVC_FACTORS``, as IR.

A run's ``--seed`` picks a *stratified* sample of the Angha pool: each
family gets its corpus-weight share of the sample, and within a family
the members, sorted by source size, are cut into equal strata with one
member drawn per stratum.  Every seed therefore sees different
functions with the same family mix and size profile, which keeps the
cross-seed spread of the medians small.

The pool is two files keyed by a digest of ``src/repro`` (a checkout
whose program changed rebuilds it): ``<key>.jsonl`` with one record per
line, and ``<key>.index.json`` with what sampling needs.  A run reads
the index and then only the records it drew, so the measuring process
never holds the whole pool.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from typing import Dict, List

POOL_SEED = 2022
POOL_SIZE = 1600
TSVC_FACTORS = (4, 8, 16)


def source_digest(root: str, package: str = "repro") -> str:
    """SHA-256 over every ``.py`` file under ``root/package`` (paths
    and bytes)."""
    digest = hashlib.sha256()
    base = os.path.join(root, package)
    for folder, dirs, files in os.walk(base):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def pool_path(build_dir: str, src_root: str) -> str:
    """The pool's path without suffix."""
    return os.path.join(build_dir, f"pool-{source_digest(src_root)[:16]}")


def build_pool(path: str) -> None:
    """Compile the pool and write both of its files atomically."""
    from repro.bench import angha, tsvc
    from repro.frontend import compile_c
    from repro.ir import print_module

    functions = []
    for cs in angha.generate_sources(count=POOL_SIZE, seed=POOL_SEED):
        ir_text = print_module(compile_c(cs.source, module_name=cs.name))
        functions.append(
            {
                "name": cs.name,
                "family": cs.family,
                "source": cs.source,
                "ir": ir_text,
                # Size by source lines: a stratum key that does not
                # depend on the frontend being measured.
                "weight": cs.source.count("\n"),
            }
        )
    kernels = [
        {
            "name": name,
            "factor": factor,
            "ir": print_module(tsvc.build_unrolled_kernel(name, factor)),
        }
        for factor in TSVC_FACTORS
        for name in tsvc.kernel_names()
    ]
    records = [dict(fn, kind="angha") for fn in functions] + [
        dict(k, kind="tsvc") for k in kernels
    ]
    index = [
        {key: rec[key] for key in ("kind", "name", "family", "weight")
         if key in rec}
        for rec in records
    ]
    for suffix, write in (
        (".jsonl", lambda h: h.writelines(json.dumps(r) + "\n"
                                          for r in records)),
        (".index.json", lambda h: json.dump(index, h)),
    ):
        tmp = f"{path}{suffix}.{os.getpid()}.tmp"
        with open(tmp, "w") as handle:
            write(handle)
        os.replace(tmp, path + suffix)


def pool_exists(path: str) -> bool:
    return all(os.path.exists(path + s) for s in (".jsonl", ".index.json"))


def load_index(path: str) -> List[dict]:
    """Every pool record's kind, name, family and size, with its line
    number under ``line``."""
    with open(path + ".index.json") as handle:
        index = json.load(handle)
    for line, entry in enumerate(index):
        entry["line"] = line
    return index


def load_records(path: str, entries: List[dict]) -> List[dict]:
    """The full records of ``entries``, in the order given."""
    wanted = {entry["line"]: None for entry in entries}
    with open(path + ".jsonl") as handle:
        for line, text in enumerate(handle):
            if line in wanted:
                wanted[line] = json.loads(text)
    return [wanted[entry["line"]] for entry in entries]


def family_weights() -> Dict[str, float]:
    from repro.bench import angha

    return {name: weight for name, (_, weight) in angha.FAMILIES.items()}


def _quotas(count: int, weights: Dict[str, float]) -> Dict[str, int]:
    """Split ``count`` by weight, largest remainders first, so the
    quotas add up to exactly ``count``."""
    total = sum(weights.values())
    raw = {f: count * w / total for f, w in weights.items()}
    quotas = {f: int(r) for f, r in raw.items()}
    by_remainder = sorted(raw, key=lambda f: (quotas[f] - raw[f], f))
    for family in by_remainder[: count - sum(quotas.values())]:
        quotas[family] += 1
    return quotas


def stratified_sample(
    functions: List[dict], count: int, rng: random.Random
) -> List[dict]:
    """Exactly ``count`` Angha index entries, stratified by family and
    source size."""
    by_family: Dict[str, List[dict]] = {}
    for fn in functions:
        by_family.setdefault(fn["family"], []).append(fn)
    picked: List[dict] = []
    for family, quota in sorted(_quotas(count, family_weights()).items()):
        members = sorted(
            by_family[family], key=lambda f: (f["weight"], f["name"])
        )
        if quota > len(members):
            raise ValueError(f"pool holds too few {family} functions")
        for k in range(quota):
            lo = k * len(members) // quota
            hi = (k + 1) * len(members) // quota
            picked.append(members[rng.randrange(lo, hi)])
    rng.shuffle(picked)
    return picked


if __name__ == "__main__":
    # ``python3 perfbench/pool.py <src root> <pool file>``: the build
    # step, run in its own process so the measuring process never
    # carries the frontend's memory.
    sys.path.insert(0, sys.argv[1])
    build_pool(sys.argv[2])
