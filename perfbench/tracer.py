"""Outside-in tracer: wraps the public entry points of each fanobasket module.

Nothing in `src/` is changed.  `Tracer.install()` replaces every binding of
an entry point, in every fanobasket module that imports it, with a wrapper
that counts calls and accumulates self time (duration minus the time spent
in wrapped callees).  Methods are wrapped once, on their class.  Spans are
aggregated per entry point in memory; `uninstall()` restores the originals.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (metric key, home module, attribute); "Class.method" wraps a method.  The
# layer is the first component of the key.  Keys whose calls or self time are
# not reported on their own still add to their layer's self time.
ENTRY_POINTS = (
    ("search.enumerate", "search", "enumerate_geometric_full"),
    ("search.enumerate_geometric", "search", "enumerate_geometric"),
    ("search.is_geometric_candidate", "search", "is_geometric_candidate"),
    ("search.replay_delta1", "search", "replay_delta1"),
    ("recovery.recover", "recovery", "recover"),
    ("recovery.feasible_tails", "recovery", "feasible_tails"),
    ("recovery.structural_tail", "recovery", "structural_tail"),
    ("basket.construct", "basket", "Basket.__init__"),
    ("basket.delta", "basket", "Basket.delta"),
    ("basket.l_neg", "basket", "Basket.l_neg"),
    ("basket.gamma", "basket", "Basket.gamma"),
    ("basket.plurigenera", "basket", "WeightedBasket.plurigenera"),
    ("basket.anti_plurigenus", "basket", "WeightedBasket.anti_plurigenus"),
    ("canonical.s_set", "canonical", "s_set"),
    ("canonical.unpack", "canonical", "unpack"),
    ("canonical.canonical_chain", "canonical", "canonical_chain"),
    ("canonical.prime_packings", "canonical", "prime_packings"),
    ("canonical.dominated_baskets", "canonical", "dominated_baskets"),
    ("pencil.g_min", "pencil", "g_min"),
    ("pencil.k1_all_points", "pencil", "k1_all_points"),
    ("pencil.k2_thresholds", "pencil", "k2_thresholds"),
    ("pencil.non_pencil_threshold", "pencil", "non_pencil_threshold"),
    ("pencil.thm2_check_840", "pencil", "thm2_check_840"),
    ("indexbound.max_index_report", "indexbound", "max_index_report"),
    ("indexbound.max_index_given_rmax", "indexbound", "max_index_given_rmax"),
    ("indexbound.attainable_indices", "indexbound", "attainable_indices"),
    ("indexbound.admissible_index_sets_with_lcm", "indexbound", "admissible_index_sets_with_lcm"),
    ("birational.replay_birationality", "birational", "replay_birationality"),
    ("reports.json_text", "reports", "ReplayReport.json_text"),
    ("reports.render", "reports", "ReplayReport.render"),
    ("reports.report_to_json", "reports", "ReplayReport.to_json"),
    ("reports.survivor_to_json", "reports", "SurvivorRow.to_json"),
    ("reports.eliminated_to_json", "reports", "EliminatedRow.to_json"),
    ("cli.main", "cli", "main"),
    ("wci.hilbert_coeffs", "wci", "hilbert_coeffs"),
    ("wci.anti_plurigenera_from_hilbert", "wci", "anti_plurigenera_from_hilbert"),
    ("wci.fit_basket", "wci", "fit_basket"),
)

LAYERS = ("search", "recovery", "basket", "canonical", "pencil", "indexbound",
          "birational", "reports", "cli", "wci")


def _useful_recover(result) -> int:
    # recovery.Infeasible is falsy; RecoveredData is a plain (truthy) dataclass
    return 1 if result else 0


# per-key result hooks: key -> (outcome counter name, function of the result)
OUTCOMES = {
    "search.is_geometric_candidate": ("search.survivors", lambda res: 1 if res[0] else 0),
    "recovery.recover": ("recovery.feasible", _useful_recover),
    "canonical.dominated_baskets": ("canonical.closure_size", len),
    "wci.fit_basket": ("wci.fits", len),
}


def package_modules() -> list:
    """Every loaded fanobasket module, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if (name == "fanobasket" or name.startswith("fanobasket.")) and m is not None]


class Tracer:
    """Call counts and self times per entry point, for one process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {key: 0 for key, _, _ in ENTRY_POINTS}
        self.self_s: dict[str, float] = {key: 0.0 for key, _, _ in ENTRY_POINTS}
        self.outcomes: dict[str, int] = {name: 0 for name, _ in OUTCOMES.values()}
        self._child_time: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._child_time
        outcome = OUTCOMES.get(key)
        outcomes = self.outcomes

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if outcome is not None:
                outcomes[outcome[0]] += outcome[1](result)
            return result

        traced.__wrapped__ = fn
        traced.trace_key = key
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for key, home, attr in ENTRY_POINTS:
            owner = sys.modules[f"fanobasket.{home}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(key, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Module or class bindings of an entry point that still hold the
        original function; empty when the tracer is alias-complete."""
        originals = {id(orig) for _, _, orig in self._restore}
        missing = []
        for module in package_modules():
            for attr, value in vars(module).items():
                if id(value) in originals:
                    missing.append(f"{module.__name__}.{attr}")
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        if id(fn) in originals:
                            missing.append(f"{module.__name__}.{attr}.{meth}")
        return missing

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass (no overhead ratio)."""
        c, s, o = self.calls, self.self_s, self.outcomes
        out: dict[str, float] = {}
        for key in ("search.enumerate", "recovery.recover", "recovery.feasible_tails",
                    "basket.plurigenera", "basket.anti_plurigenus", "basket.delta",
                    "basket.l_neg", "basket.gamma", "basket.construct",
                    "canonical.unpack", "canonical.canonical_chain",
                    "canonical.dominated_baskets", "canonical.prime_packings",
                    "pencil.g_min", "pencil.k1_all_points", "pencil.non_pencil_threshold",
                    "pencil.thm2_check_840"):
            out[f"{key}.calls"] = c[key]
            out[f"{key}.self_s"] = s[key]
        out["search.candidates"] = c["search.is_geometric_candidate"]
        out["search.is_geometric_candidate.self_s"] = s["search.is_geometric_candidate"]
        out["search.survivor_ratio"] = _ratio(o["search.survivors"], c["search.is_geometric_candidate"])
        out["recovery.feasible_ratio"] = _ratio(o["recovery.feasible"], c["recovery.recover"])
        out["canonical.s_set.calls"] = c["canonical.s_set"]
        out["canonical.closure_size"] = o["canonical.closure_size"]
        out["indexbound.calls"] = sum(v for k, v in c.items() if k.startswith("indexbound."))
        out["wci.hilbert_coeffs.self_s"] = s["wci.hilbert_coeffs"]
        out["wci.fits"] = o["wci.fits"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in s.items() if k.split(".")[0] == layer)
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
