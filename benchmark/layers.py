"""Which singmod functions are traced, what each hook counts, and the
per-layer metrics derived from one traced pass.

Every layer metric is measured from outside the package: the wrappers sit on
the public functions of the modules `numerics`, `quadforms`, `modular`,
`cmcycles`, `greens`, `verify`, `cache` and `cli`, and the counts come from
their arguments, results and the caches they expose.
"""

from __future__ import annotations

import os

from tracer import END, INSTANCE_SPAN, NAME, START, Tracer, rebind, self_times, wrap

# (metric name, unit); the order is the order of the printed result
PER_LAYER = [
    ("numerics.integer_recognize.calls", "count"),
    ("numerics.integer_recognize.failures", "count"),
    ("quadforms.enumerate_reduced.calls", "count"),
    ("quadforms.enumerate_reduced.misses", "count"),
    ("quadforms.compose.calls", "count"),
    ("quadforms.compose.self_s", "s"),
    ("quadforms.project_class.calls", "count"),
    ("quadforms.project_class.self_s", "s"),
    ("modular.j_eval.calls", "count"),
    ("modular.j_eval.misses", "count"),
    ("modular.j_eval.self_s", "s"),
    ("modular.j_q_coefficients.max_count", "count"),
    ("modular.j_q_coefficients.self_s", "s"),
    ("modular.modpoly_eval.calls", "count"),
    ("modular.modpoly_eval.zero", "count"),
    ("modular.modpoly_eval.self_s", "s"),
    ("modular.gamma_translates.calls", "count"),
    ("modular.gamma_translates.terms", "count"),
    ("modular.gamma_translates.self_s", "s"),
    ("modular.jvalue_cache.entries", "count"),
    ("cmcycles.cycle_log_norm.probe_calls", "count"),
    ("cmcycles.cycle_log_norm.probe_s", "s"),
    ("cmcycles.cycle_log_norm.main_calls", "count"),
    ("cmcycles.cycle_log_norm.main_s", "s"),
    ("cmcycles.cycle_norm_integer.calls", "count"),
    ("cmcycles.cycle_norm_integer.retries", "count"),
    ("cmcycles.cycle_norm_integer.final_bits_sum", "bit"),
    ("cmcycles.cycle_norm_integer.final_bits_max", "bit"),
    ("cmcycles.norm_bits_sum", "bit"),
    ("cmcycles.bits_yield", "ratio"),
    ("greens.G_k_m.k3.calls", "count"),
    ("greens.G_k_m.k3.self_s", "s"),
    ("greens.G_k_m.k3.terms", "count"),
    ("greens.G_k_m.k3.lattice_yield", "ratio"),
    ("greens.G_k_m.k5.calls", "count"),
    ("greens.G_k_m.k5.self_s", "s"),
    ("greens.G_k_m.k5.terms", "count"),
    ("greens.G_k_m.k5.lattice_yield", "ratio"),
    ("greens.G_k_m.k7.calls", "count"),
    ("greens.G_k_m.k7.self_s", "s"),
    ("greens.G_k_m.k7.terms", "count"),
    ("greens.G_k_m.k7.lattice_yield", "ratio"),
    ("greens.lattice_yield", "ratio"),
    ("greens.tm_count.calls", "count"),
    ("greens.tm_count.self_s", "s"),
    ("verify.verify_nonunit.calls", "count"),
    ("verify.verify_nonunit.self_s", "s"),
    ("verify.verify_chain.calls", "count"),
    ("verify.verify_chain.self_s", "s"),
    ("verify.verify_lower_bound.calls", "count"),
    ("verify.verify_lower_bound.self_s", "s"),
    ("verify.factor_norm.calls", "count"),
    ("verify.factor_norm.self_s", "s"),
    ("verify.sweep.calls", "count"),
    ("verify.sweep.self_s", "s"),
    ("verify.status.ok", "count"),
    ("verify.status.zero", "count"),
    ("verify.status.error", "count"),
    ("cache.load_ints.calls", "count"),
    ("cache.load_ints.hits", "count"),
    ("cache.store_ints.calls", "count"),
    ("cache.store_ints.bytes", "B"),
    ("cache.store_ints.self_s", "s"),
    ("cli.process_s", "s"),
    ("cli.pool_utilisation", "ratio"),
    ("bench.instance.self_s", "s"),
    ("trace.instance_coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
]

_KS = (3, 5, 7)


def hecke_coset_count(m: int) -> int:
    """Number of upper-triangular determinant-m cosets: the divisor sum of m."""
    return sum(a for a in range(1, m + 1) if m % a == 0)


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _duration(tracer: Tracer, idx: int) -> float:
    span = tracer.spans[idx]
    return span[END] - span[START]


# ---------------------------------------------------------------------------
# hooks: pre(tracer, idx, args, kwargs) -> state;
#        post(tracer, idx, state, args, kwargs, result, error)


def _recognize_post(tr, idx, state, args, kwargs, result, error):
    if error is not None:
        tr.add("numerics.integer_recognize.failures")


def _lru_misses(original):
    def pre(tr, idx, args, kwargs):
        return original.cache_info().misses if hasattr(original, "cache_info") else None

    def post(tr, idx, state, args, kwargs, result, error):
        if state is not None:
            tr.add("quadforms.enumerate_reduced.misses",
                   original.cache_info().misses - state)
    return pre, post


def jvalue_cache_size() -> int | None:
    from singmod import modular
    cache = getattr(modular, "_jvalue_cache", None)
    return len(cache) if cache is not None else None


def _j_eval_pre(tr, idx, args, kwargs):
    return jvalue_cache_size()


def _j_eval_post(tr, idx, state, args, kwargs, result, error):
    after = jvalue_cache_size()
    if state is not None and after is not None:
        tr.add("modular.j_eval.misses", after - state)


def _jq_pre(tr, idx, args, kwargs):
    tr.peak("modular.j_q_coefficients.max_count", _arg(args, kwargs, 0, "count"))


def _modpoly_post(tr, idx, state, args, kwargs, result, error):
    if error is None and result.is_zero:
        tr.add("modular.modpoly_eval.zero")
    # one j(z1) plus one j per Hecke coset, whatever the outcome
    tr.add("identity.j_eval_expected",
           1 + hecke_coset_count(_arg(args, kwargs, 0, "m")))


def _translates_post(tr, idx, state, args, kwargs, result, error):
    if error is not None:
        return
    n = len(result)
    tr.add("modular.gamma_translates.terms", n)
    owner = tr.ancestor("greens.G_k_m.")
    if owner is not None:
        tr.add(tr.spans[owner][NAME] + ".enumerated", n)


def _gkm_name(args, kwargs):
    return f"greens.G_k_m.k{_arg(args, kwargs, 0, 'k')}"


def _gkm_post(tr, idx, state, args, kwargs, result, error):
    if error is None:
        tr.add(tr.spans[idx][NAME] + ".terms", result.terms)


def _norm_integer_post(tr, idx, state, args, kwargs, result, error):
    info = tr.span_info(idx)
    tr.add("cmcycles.cycle_norm_integer.retries", max(info.get("main", 0) - 1, 0))
    if error is None:
        bits = info.get("last_bits", 0)
        tr.add("cmcycles.cycle_norm_integer.final_bits_sum", bits)
        tr.peak("cmcycles.cycle_norm_integer.final_bits_max", bits)
        tr.add("cmcycles.norm_bits_sum", abs(result).bit_length())


def _log_norm_pre(tr, idx, args, kwargs):
    # the first call under a cycle_norm_integer span is the probe pass
    owner = tr.ancestor("cmcycles.cycle_norm_integer")
    if owner is None:
        return "main"
    info = tr.span_info(owner)
    kind = "main" if info.get("calls") else "probe"
    info["calls"] = info.get("calls", 0) + 1
    if kind == "main":
        info["main"] = info.get("main", 0) + 1
        info["last_bits"] = _arg(args, kwargs, 2, "ctx").mantissa_bits
    return kind


def _log_norm_post(tr, idx, kind, args, kwargs, result, error):
    tr.add(f"cmcycles.cycle_log_norm.{kind}_calls")
    tr.add(f"cmcycles.cycle_log_norm.{kind}_s", _duration(tr, idx))


def _load_post(tr, idx, state, args, kwargs, result, error):
    if error is None and result is not None:
        tr.add("cache.load_ints.hits")


def _store_post(tr, idx, state, args, kwargs, result, error):
    if error is None:
        from singmod import cache
        path = cache.cache_path(_arg(args, kwargs, 0, "cache_dir"),
                                _arg(args, kwargs, 1, "key"))
        tr.add("cache.store_ints.bytes", os.path.getsize(path))


def _targets():
    """(module, function, span name, pre, post) for every traced function."""
    from singmod import quadforms
    lru_pre, lru_post = _lru_misses(quadforms.enumerate_reduced)
    return [
        ("numerics", "integer_recognize", "numerics.integer_recognize", None, _recognize_post),
        ("quadforms", "enumerate_reduced", "quadforms.enumerate_reduced", lru_pre, lru_post),
        ("quadforms", "compose", "quadforms.compose", None, None),
        ("quadforms", "project_class", "quadforms.project_class", None, None),
        ("modular", "j_eval", "modular.j_eval", _j_eval_pre, _j_eval_post),
        ("modular", "j_q_coefficients", "modular.j_q_coefficients", _jq_pre, None),
        ("modular", "modpoly_eval", "modular.modpoly_eval", None, _modpoly_post),
        ("modular", "gamma_translates", "modular.gamma_translates", None, _translates_post),
        ("cmcycles", "cycle_log_norm", "cmcycles.cycle_log_norm", _log_norm_pre, _log_norm_post),
        ("cmcycles", "cycle_norm_integer", "cmcycles.cycle_norm_integer", None, _norm_integer_post),
        ("greens", "G_k_m", _gkm_name, None, _gkm_post),
        ("greens", "tm_count", "greens.tm_count", None, None),
        ("verify", "verify_nonunit", "verify.verify_nonunit", None, None),
        ("verify", "verify_chain", "verify.verify_chain", None, None),
        ("verify", "verify_lower_bound", "verify.verify_lower_bound", None, None),
        ("verify", "factor_norm", "verify.factor_norm", None, None),
        ("verify", "sweep", "verify.sweep", None, None),
        ("cache", "load_ints", "cache.load_ints", None, _load_post),
        ("cache", "store_ints", "cache.store_ints", None, _store_post),
    ]


def install(tracer: Tracer):
    """Wrap every binding of every target; returns a function that undoes it."""
    import importlib
    import singmod  # noqa: F401  (loads every submodule the package imports)
    importlib.import_module("singmod.cli")
    undo = []
    for module, func, name, pre, post in _targets():
        original = getattr(importlib.import_module(f"singmod.{module}"), func)
        wrapper = wrap(tracer, original, name, pre, post)
        if rebind(original, wrapper) == 0:
            raise RuntimeError(f"singmod.{module}.{func} has no binding to wrap")
        undo.append((original, wrapper))

    def uninstall():
        for original, wrapper in undo:
            rebind(wrapper, original)
    return uninstall


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the recorded spans and counts.

    Metrics that need the workload's own view (statuses, CLI pass walls,
    coverage, overhead) are filled in by the caller.
    """
    own = self_times(tracer.spans)
    counts = tracer.counts
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        base, _, quantity = name.rpartition(".")
        if quantity == "self_s":
            out[name] = own.get(base, 0.0)
        elif name in counts:
            out[name] = counts[name]
        elif name in tracer.maxima:
            out[name] = tracer.maxima[name]
    final_bits = counts.get("cmcycles.cycle_norm_integer.final_bits_sum", 0)
    out["cmcycles.bits_yield"] = (counts.get("cmcycles.norm_bits_sum", 0) / final_bits
                                  if final_bits else 0.0)
    kept_all = enumerated_all = 0
    for k in _KS:
        base = f"greens.G_k_m.k{k}"
        kept = counts.get(base + ".terms", 0)
        enumerated = counts.get(base + ".enumerated", 0)
        out[base + ".lattice_yield"] = kept / enumerated if enumerated else 0.0
        kept_all += kept
        enumerated_all += enumerated
    out["greens.lattice_yield"] = kept_all / enumerated_all if enumerated_all else 0.0
    return out


def instance_total(tracer: Tracer) -> float:
    return sum(s[END] - s[START] for s in tracer.spans if s[NAME] == INSTANCE_SPAN)


def self_time_gap(tracer: Tracer) -> float:
    """|sum of all self times - sum of instance span durations|."""
    return abs(sum(self_times(tracer.spans).values()) - instance_total(tracer))
