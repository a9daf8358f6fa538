"""The benchmark's workloads: seeded inputs, one call per item, output checks.

Each workload has
  build(seed) -> list of items      seeded input generation (set-up),
  reset(items)                      empty every per-object cache,
  run(item) -> (output, problem)    one closed-loop call into the engine.

`output` is a canonical text of the item's result; its digest is compared
with the one recorded at the default seed. `problem` is None or a short
reason the result is wrong on any seed (a Tor-symmetry violation, an
unexpected exit code, a failed assertion). Engine calls go through module
attributes looked up at call time, so a traced run sees them.
"""

import contextlib
import io
import random
import re


def clear_caches(objects, keep_opposite=False):
    """Empty the `_cache` of every object; with keep_opposite, algebras keep
    the opposite they were paired with when the inputs were built, because
    modules over that opposite must keep seeing the same object."""
    for obj in objects:
        kept = obj._cache.get("opposite") if keep_opposite else None
        obj._cache.clear()
        if kept is not None:
            obj._cache["opposite"] = kept


class Demo:
    """The built-in worked example through the command line, as a user runs
    it. Every call re-parses the document, so all caches start empty."""

    name = "demo"
    _SEED_LINE = re.compile(r"^seed: .*$", re.MULTILINE)

    def __init__(self, q):
        self.q = q

    def build(self, seed):
        return [["demo", "example-4-5", "--seed", str(seed)]]

    def reset(self, items):
        pass

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.q.cli.main(argv)
        text = out.getvalue()
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif "(expected" in text:
            problem = "a worked-example assertion failed"
        return text, problem

    @classmethod
    def seed_free(cls, text):
        """The report with its seed line blanked: the seed feeds only the
        randomised isomorphism search, so the rest must not depend on it."""
        return cls._SEED_LINE.sub("seed: *", text)


class Pool:
    """Generated extensions checked for the hypotheses only.

    Instances come from the same generator stream as the test suite's
    `extension_pool` fixture, but none is dropped for its verdict. They are
    kept by a fixed quota per dim B instead: the check's cost grows steeply
    with dim B (B^e has dim B squared), so fixed quotas make seeds vary the
    instances but not the mix of sizes. Instances with dim B = 6 get no
    quota: about one in five of them has a pd-1 resolution over the 36-dim
    B^e that costs three times the others, so how many a seed draws moved
    the pass time by a fifth or more.
    """

    name = "pool"
    QUOTA = {1: 2, 2: 4, 3: 6, 4: 10, 5: 14}
    MAX_ATTEMPTS = 3000

    def __init__(self, q):
        self.q = q

    def _stream(self, rng):
        """Extensions exactly as the fixture draws them, one per success."""
        q = self.q
        QQ = q.linalg.QQ
        gen = q.suite.random_quiver_algebra
        for _ in range(self.MAX_ATTEMPTS):
            try:
                if rng.random() < 0.5:
                    b = gen(rng, QQ, max_vertices=2, max_arrows=2, truncate=2)
                    c = gen(rng, QQ, max_vertices=2, max_arrows=2, truncate=2)
                    if b.dim + c.dim > 6:
                        continue
                    m = q.suite.cokernel_pd1_bimodule(rng, c, b)
                    if m is None or m.dim == 0 or m.dim > 4:
                        continue
                    _, ext = q.extensions.triangular_matrix_algebra(b, c, m)
                else:
                    b = gen(rng, QQ, max_vertices=2, max_arrows=2, truncate=2)
                    if b.dim > 5:
                        continue
                    if rng.random() < 0.6:
                        m = q.suite.corner_projective_bimodule(rng, b)
                    else:
                        m = q.suite.cokernel_pd1_bimodule(rng, b)
                    if m is None or m.dim == 0 or m.dim > 4:
                        continue
                    _, ext = q.extensions.trivial_extension(b, m)
            except Exception:  # the fixture skips any failed construction
                continue
            yield ext

    def build(self, seed):
        left = dict(self.QUOTA)
        items = []
        for ext in self._stream(random.Random(seed)):
            if left.get(ext.sub.dim, 0) > 0:
                left[ext.sub.dim] -= 1
                items.append(ext)
                if not any(left.values()):
                    break
        return items

    def reset(self, items):
        clear_caches([o for ext in items
                      for o in (ext, ext.ambient, ext.sub)])

    def run(self, ext):
        q = self.q
        cfg = q.extensions.CheckConfig(cap=6, p_max=5, consequences=False,
                                       bar_check=False)
        rep = q.extensions.check_extension(ext, cfg)
        pd = rep.pd_verdict
        nil = rep.nilpotency
        tables = {k: sorted(v.items()) for k, v in sorted(rep.tor_tables.items())}
        verdict = (ext.provenance, rep.quotient_dim,
                   pd.kind, pd.value, pd.certificate.get("term_dims"),
                   pd.witness[:2] if pd.witness else None,
                   nil.status, nil.value, nil.certificate.get("power_dims"),
                   tables, rep.tor_verdict.status, rep.split_verdict.status,
                   rep.sing_equiv.status, rep.defect_equiv.status,
                   rep.exit_code())
        # Both constructions give A/B projective dimension <= 1 over B^e and
        # supply a retraction, so any other pd or split verdict, and the
        # exit code 1 it would cause, contradicts the construction. Exit 1
        # from a nonvanishing Tor cell is a legitimate verdict.
        problem = None
        if pd.kind != "finite" or pd.value > 1:
            problem = f"pd {pd.kind} {pd.value} contradicts the pd <= 1 construction"
        elif not rep.split_verdict.holds:
            problem = f"split {rep.split_verdict.status} despite the retraction"
        return repr(verdict), problem


class TorGF2:
    """The random-suite Tor-symmetry battery over GF(2): Tor_0..4 of a random
    right and left module over a random monomial algebra of dim <= 5,
    resolving each side in turn.

    The algebras are the random-suite draws at a fixed family seed; the run's
    seed draws the modules, PAIRS_PER_ALGEBRA pairs per algebra. Nearly all
    of the battery's time goes to a few local algebras whose resolutions
    grow, so letting seeds redraw the algebras would change the work several
    fold from seed to seed.
    """

    name = "tor-gf2"
    FAMILY_SEED = 202
    CASES = 600
    MAX_DIM = 5
    PAIRS_PER_ALGEBRA = 4
    I_MAX = 4

    def __init__(self, q):
        self.q = q

    def build(self, seed):
        q = self.q
        field = q.linalg.GF(2)
        family = random.Random(self.FAMILY_SEED)
        algebras = []
        for _ in range(self.CASES):
            try:
                a = q.suite.random_quiver_algebra(family, field)
            except q.errors.QuiverExtError:
                continue
            if a.dim <= self.MAX_DIM:
                algebras.append(a)
        rng = random.Random(seed)
        pairs = []
        for a in algebras:
            for _ in range(self.PAIRS_PER_ALGEBRA):
                try:
                    m = q.suite.random_right_module(rng, a)
                    n = q.suite.random_module(rng, a)
                except q.errors.QuiverExtError:
                    continue
                pairs.append((m, n))
        return pairs

    def reset(self, items):
        objs = {}
        for m, n in items:
            for o in (m, n, m.algebra, n.algebra):
                objs[id(o)] = o
        clear_caches(objs.values(), keep_opposite=True)

    def run(self, pair):
        m, n = pair
        tor = self.q.resolutions.tor
        d1 = tor(m, n, self.I_MAX, resolve="first")
        d2 = tor(m, n, self.I_MAX, resolve="second")
        problem = None if d1 == d2 else f"tor-symmetry violated {d1} vs {d2}"
        return repr(d1), problem


WORKLOADS = {w.name: w for w in (Demo, Pool, TorGF2)}
