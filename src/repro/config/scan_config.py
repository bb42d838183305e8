""":class:`ScanConfig` — the entire scan tuning surface as one value.

Before this module existed, every tuning axis of the ⊙ scan traveled
through a different mechanism: positional engine kwargs (``algorithm``,
``up_levels``, ``sparse_linear_tol``), post-hoc setter calls
(``set_executor`` / ``set_sparse_policy``), and two independently
parsed environment variables (``REPRO_SCAN_BACKEND``,
``REPRO_SCAN_SPARSE``).  :class:`ScanConfig` collapses all of them into
one frozen, comparable, JSON-serializable dataclass — configurations
become *values* that can be built, diffed, embedded in
``BENCH_*.json`` records, and handed to :func:`repro.build_engine`.

A field set to ``None`` is **unset**; :meth:`ScanConfig.resolve` is the
single resolution point that fills unset fields, in precedence order:

1. explicit field values (what the config already carries),
2. :func:`repro.configure` scoped overrides (innermost first),
3. environment variables (``REPRO_SCAN_BACKEND``,
   ``REPRO_SCAN_SPARSE``, ``REPRO_SCAN_SPARSE_THRESHOLD``,
   ``REPRO_SCAN_KERNEL``),
4. engine-supplied defaults (e.g. the RNN engine's never-densify
   policy),
5. the global defaults (``auto`` scan shape / 2 levels / ``serial`` /
   ``auto`` dispatch at the default densify threshold / private
   pattern cache).

Spec grammar (``/``-separated segments, each optional, any order)::

    spec      := segment ("/" segment)*
    segment   := algorithm [":" up_levels]      e.g. "auto", "truncated:3"
               | executor-spec                  e.g. "serial", "thread:8"
               | "sparse=" mode [":" threshold] e.g. "sparse=auto:0.4"
               | "up=" int                      truncation depth
               | "densify=" float               densify threshold alone
               | "tol=" float                   sparse linear Jacobian tol
               | "cache=" ("private"|"shared")  pattern-cache policy
               | "kernel=" ("numpy"|"numba")    SpGEMM numeric kernel

``ScanConfig.from_spec(cfg.spec()) == cfg`` holds for every config —
the canonical spec string round-trips losslessly, so a config can live
in a CLI flag or a bench record key just as well as in code.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Union

from repro.backend.registry import ENV_VAR, _parse_spec
from repro.scan.kernels import DEFAULT_KERNEL, KERNEL_ENV_VAR, KERNELS
from repro.scan.sparse_policy import (
    DEFAULT_DENSIFY_THRESHOLD,
    SPARSE_ENV_VAR,
    SPARSE_MODES,
    THRESHOLD_ENV_VAR,
    SparsePolicy,
)

#: Scan algorithms an engine can run (shared by both BPPSA engines).
#: ``"auto"`` is resolved by the engine, per scan input shape and
#: worker count, to one of the concrete truncation depths — see
#: :mod:`repro.scan.shape`.
ALGORITHMS = ("auto", "blelloch", "linear", "hillis_steele", "truncated")

#: Pattern-cache policies: per-engine cache vs. one process-wide cache.
PATTERN_CACHE_POLICIES = ("private", "shared")

#: ``key=value`` spec segments (bare segments are algorithm/executor).
_SPEC_KEYS = ("sparse", "up", "densify", "tol", "cache", "kernel")

# The process-wide PatternCache handed out under ``cache=shared`` —
# built lazily so importing the config plane stays cheap.
_SHARED_PATTERN_CACHE = None
_SHARED_PATTERN_CACHE_LOCK = threading.Lock()

#: Environment variable bounding the shared plan cache (entry count).
SHARED_CACHE_ENV_VAR = "REPRO_SCAN_SHARED_CACHE"

#: Default bound of the process-wide shared plan cache.  Private
#: (per-engine) caches stay unbounded — they live and die with one
#: model's fixed pattern set — but the shared cache serves a whole
#: process (the :mod:`repro.serve` server, every ``cache=shared``
#: engine) across unbounded pattern churn, so it must be an LRU.
DEFAULT_SHARED_CACHE_MAXSIZE = 256


def _shared_cache_maxsize() -> Optional[int]:
    raw = os.environ.get(SHARED_CACHE_ENV_VAR)
    if not raw:
        return DEFAULT_SHARED_CACHE_MAXSIZE
    if raw.strip().lower() in ("none", "unbounded", "0"):
        return None
    try:
        size = int(raw)
    except ValueError:
        raise ValueError(
            f"invalid {SHARED_CACHE_ENV_VAR}={raw!r}: expected a positive "
            'integer entry bound, or "none"/"0" for unbounded'
        ) from None
    if size < 1:
        raise ValueError(
            f"invalid {SHARED_CACHE_ENV_VAR}={raw!r}: bound must be >= 1"
        )
    return size


def shared_pattern_cache():
    """The process-wide :class:`~repro.sparse.PatternCache` singleton
    (``pattern_cache="shared"``): SpGEMM symbolic work amortizes across
    every engine that opts in, not just across iterations of one.

    The singleton is a **bounded LRU** (``$REPRO_SCAN_SHARED_CACHE``
    entries, default :data:`DEFAULT_SHARED_CACHE_MAXSIZE`; the variable
    is read once, when the cache is first built) so that a long-lived
    server churning through distinct Jacobian patterns cannot grow it
    without bound; hit/miss/eviction counters are exposed through
    :meth:`~repro.sparse.PatternCache.stats` and surfaced by
    ``EngineServer.stats()``.
    """
    global _SHARED_PATTERN_CACHE
    with _SHARED_PATTERN_CACHE_LOCK:
        if _SHARED_PATTERN_CACHE is None:
            from repro.sparse import PatternCache

            _SHARED_PATTERN_CACHE = PatternCache(maxsize=_shared_cache_maxsize())
        return _SHARED_PATTERN_CACHE


def _parse_float(value: str, what: str, spec: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"invalid {what} {value!r} in config spec {spec!r}") from None


@dataclass(frozen=True)
class ScanConfig:
    """Declarative configuration of one ⊙-scan gradient engine.

    Every field defaults to ``None`` = *unset* — :meth:`resolve` fills
    unset fields from :func:`repro.configure` overrides, environment
    variables, and defaults (see the module docstring for the
    precedence ladder).  Instances are frozen, hashable, comparable,
    and round-trip through both the spec grammar
    (:meth:`from_spec` / :meth:`spec`) and JSON
    (:meth:`from_dict` / :meth:`to_dict`).

    Fields
    ------
    algorithm:
        ``"auto"`` | ``"blelloch"`` | ``"linear"`` | ``"hillis_steele"``
        | ``"truncated"`` (resolves to ``"auto"``: the engine picks the
        truncation depth with the lowest modeled critical path, which
        is the ``linear`` chain on one worker).
    up_levels:
        Truncation depth for the ``truncated`` algorithm (resolves
        to 2).
    executor:
        Scan-backend spec string — ``"serial"``, ``"thread:8"``,
        ``"process:4"`` (resolves via ``REPRO_SCAN_BACKEND``, falling
        back to ``"serial"``).  Executor *instances* are deliberately
        not representable: a config is pure data.
    sparse:
        Dense-vs-sparse dispatch mode — ``"auto"`` | ``"on"`` |
        ``"off"`` (resolves via ``REPRO_SCAN_SPARSE``, falling back to
        ``"auto"``).  A combined spec like ``"auto:0.4"`` splits into
        ``sparse="auto"`` + ``densify_threshold=0.4`` at construction.
    densify_threshold:
        ``auto``-mode density bound in [0, 1]; ``1.0`` means *never
        densify* (resolves via ``REPRO_SCAN_SPARSE_THRESHOLD``, falling
        back to 0.25).
    sparse_linear_tol:
        When set, linear-layer Jacobians are stored CSR dropping
        entries ≤ tol (the pruned-retraining configuration); stays
        ``None`` (= dense linear Jacobians) unless set.
    pattern_cache:
        ``"private"`` (fresh SpGEMM plan cache per engine — the
        default) or ``"shared"`` (the process-wide cache).
    kernel:
        The SpGEMM numeric-phase implementation — ``"numpy"`` (the
        bitwise reference) or ``"numba"`` (the compiled build, falling
        back to a pure-NumPy fast path when Numba is not installed;
        resolves via ``REPRO_SCAN_KERNEL``, falling back to
        ``"numpy"``).  Every kernel yields bitwise-identical
        gradients — see :mod:`repro.scan.kernels`.
    """

    algorithm: Optional[str] = None
    up_levels: Optional[int] = None
    executor: Optional[str] = None
    sparse: Optional[str] = None
    densify_threshold: Optional[float] = None
    sparse_linear_tol: Optional[float] = None
    pattern_cache: Optional[str] = None
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        # A combined "mode:threshold" sparse value (or a SparsePolicy)
        # normalizes into the two underlying fields.
        sparse = self.sparse
        if isinstance(sparse, SparsePolicy):
            object.__setattr__(self, "sparse", sparse.mode)
            threshold = sparse.densify_threshold
            if threshold is None:  # SparsePolicy's "never densify"
                threshold = 1.0
            self._merge_threshold(threshold, f"SparsePolicy({sparse})")
        elif isinstance(sparse, str) and ":" in sparse:
            mode, _, raw = sparse.partition(":")
            object.__setattr__(self, "sparse", mode)
            self._merge_threshold(
                _parse_float(raw, "densify threshold", sparse), sparse
            )
        self._validate()

    def _merge_threshold(self, threshold: float, origin: str) -> None:
        if (
            self.densify_threshold is not None
            and float(self.densify_threshold) != float(threshold)
        ):
            raise ValueError(
                f"conflicting densify thresholds: sparse spec {origin!r} "
                f"says {threshold!r}, densify_threshold= says "
                f"{self.densify_threshold!r}"
            )
        object.__setattr__(self, "densify_threshold", float(threshold))

    def _validate(self) -> None:
        if self.algorithm is not None and self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.up_levels is not None:
            if not isinstance(self.up_levels, int) or self.up_levels < 0:
                raise ValueError(
                    f"up_levels must be a non-negative int, got {self.up_levels!r}"
                )
        if self.executor is not None:
            if not isinstance(self.executor, str):
                raise TypeError(
                    "ScanConfig.executor must be a backend spec string; "
                    "pass executor instances to the engine directly "
                    f"(got {type(self.executor).__name__})"
                )
            # Grammar check only; backend existence is checked at build
            # time.  An empty name would silently drop out of spec(),
            # and a name colliding with an algorithm would parse back
            # as the algorithm segment — both break the round-trip
            # invariant, so reject them here.
            name, _ = _parse_spec(self.executor)
            if not name:
                raise ValueError("executor spec must name a backend")
            if name in ALGORITHMS:
                raise ValueError(
                    f"executor spec {self.executor!r} collides with the "
                    f"algorithm name {name!r}; the spec grammar cannot "
                    "round-trip such a backend name"
                )
        if self.sparse is not None and self.sparse not in SPARSE_MODES:
            raise ValueError(
                f"sparse mode must be one of {SPARSE_MODES}, got {self.sparse!r}"
            )
        t = self.densify_threshold
        if t is not None and not 0.0 <= float(t) <= 1.0:
            raise ValueError(f"densify_threshold must be in [0, 1], got {t!r}")
        tol = self.sparse_linear_tol
        if tol is not None and float(tol) < 0:
            raise ValueError(f"sparse_linear_tol must be >= 0, got {tol!r}")
        if (
            self.pattern_cache is not None
            and self.pattern_cache not in PATTERN_CACHE_POLICIES
        ):
            raise ValueError(
                f"pattern_cache must be one of {PATTERN_CACHE_POLICIES}, "
                f"got {self.pattern_cache!r}"
            )
        if self.kernel is not None and self.kernel not in KERNELS:
            raise ValueError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def coerce(
        cls,
        value: Union["ScanConfig", str, Mapping[str, Any], None] = None,
        **overrides: Any,
    ) -> "ScanConfig":
        """Coerce *anything configuration-shaped* into a :class:`ScanConfig`.

        ``value`` may be a config (returned as-is when no overrides), a
        spec string (parsed), a mapping (:meth:`from_dict`), or ``None``
        (all-unset).  Explicit ``overrides`` beat whatever the spec or
        mapping said — the top rung of the precedence ladder.
        ``None``-valued overrides mean "not given" and are dropped.
        """
        if value is None:
            cfg = cls()
        elif isinstance(value, cls):
            cfg = value
        elif isinstance(value, str):
            cfg = cls.from_spec(value)
        elif isinstance(value, Mapping):
            cfg = cls.from_dict(value)
        else:
            raise TypeError(
                "config must be a ScanConfig, spec string, mapping, or "
                f"None; got {type(value).__name__}"
            )
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if not overrides:
            return cfg
        unknown = set(overrides) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise TypeError(f"unknown ScanConfig field(s): {sorted(unknown)}")
        # An override like sparse="auto:0.4" carries its own threshold,
        # which supersedes the base config's (explicit beats spec).
        sparse = overrides.get("sparse")
        if "densify_threshold" not in overrides and (
            isinstance(sparse, SparsePolicy)
            or (isinstance(sparse, str) and ":" in sparse)
        ):
            overrides["densify_threshold"] = None
        merged = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)}
        merged.update(overrides)
        return cls(**merged)

    @classmethod
    def from_spec(cls, spec: str) -> "ScanConfig":
        """Parse the ``/``-separated spec grammar (module docstring).

        ``from_spec(cfg.spec()) == cfg`` for every config; the empty
        string parses to the all-unset config.
        """
        if not isinstance(spec, str):
            raise TypeError(f"spec must be a string, got {type(spec).__name__}")
        fields: Dict[str, Any] = {}

        def put(name: str, value: Any) -> None:
            if name in fields:
                raise ValueError(
                    f"duplicate {name!r} in config spec {spec!r}"
                )
            fields[name] = value

        for segment in spec.split("/"):
            segment = segment.strip()
            if not segment:
                continue
            key, sep, value = segment.partition("=")
            if sep:
                if key == "sparse":
                    put("sparse", value)  # "mode[:threshold]" splits in init
                elif key == "up":
                    try:
                        put("up_levels", int(value))
                    except ValueError:
                        raise ValueError(
                            f"invalid up_levels {value!r} in config spec {spec!r}"
                        ) from None
                elif key == "densify":
                    put(
                        "densify_threshold",
                        _parse_float(value, "densify threshold", spec),
                    )
                elif key == "tol":
                    put(
                        "sparse_linear_tol",
                        _parse_float(value, "sparse_linear_tol", spec),
                    )
                elif key == "cache":
                    put("pattern_cache", value)
                elif key == "kernel":
                    put("kernel", value)
                else:
                    raise ValueError(
                        f"unknown key {key!r} in config spec {spec!r} "
                        f"(known keys: {_SPEC_KEYS})"
                    )
                continue
            # Bare segment: an algorithm (optionally "truncated:3") or
            # an executor spec — disambiguated by the algorithm list.
            name = segment.partition(":")[0]
            if name in ALGORITHMS:
                put("algorithm", name)
                _, sep2, depth = segment.partition(":")
                if sep2:
                    try:
                        put("up_levels", int(depth))
                    except ValueError:
                        raise ValueError(
                            f"invalid up_levels {depth!r} in config spec {spec!r}"
                        ) from None
            else:
                if "executor" in fields:
                    raise ValueError(
                        f"two executor segments in config spec {spec!r}: "
                        f"{fields['executor']!r} and {segment!r}"
                    )
                put("executor", segment)
        return cls(**fields)

    def spec(self) -> str:
        """The canonical spec string; unset fields are omitted.

        Inverse of :meth:`from_spec`: parsing the result reconstructs
        an equal config.
        """
        parts = []
        if self.algorithm is not None:
            parts.append(self.algorithm)
        if self.up_levels is not None:
            parts.append(f"up={self.up_levels}")
        if self.executor is not None:
            parts.append(self.executor)
        if self.sparse is not None:
            if self.densify_threshold is not None:
                parts.append(f"sparse={self.sparse}:{self.densify_threshold!r}")
            else:
                parts.append(f"sparse={self.sparse}")
        elif self.densify_threshold is not None:
            parts.append(f"densify={self.densify_threshold!r}")
        if self.sparse_linear_tol is not None:
            parts.append(f"tol={self.sparse_linear_tol!r}")
        if self.pattern_cache is not None:
            parts.append(f"cache={self.pattern_cache}")
        if self.kernel is not None:
            parts.append(f"kernel={self.kernel}")
        return "/".join(parts)

    # ------------------------------------------------------------------
    # JSON (de)serialization — what BENCH_*.json records embed
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, JSON-ready; unset fields serialize as null."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ScanConfig":
        """Reconstruct from :meth:`to_dict` output (missing keys = unset)."""
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - names
        if unknown:
            raise ValueError(f"unknown ScanConfig field(s): {sorted(unknown)}")
        return cls(**{k: d[k] for k in names if d.get(k) is not None})

    # ------------------------------------------------------------------
    # resolution — the single env/default resolution point
    # ------------------------------------------------------------------
    def with_defaults(self, other: "ScanConfig") -> "ScanConfig":
        """A copy where each *unset* field takes ``other``'s value."""
        merged = {
            f.name: (
                getattr(self, f.name)
                if getattr(self, f.name) is not None
                else getattr(other, f.name)
            )
            for f in dataclasses.fields(self)
        }
        return type(self)(**merged)

    def resolve(
        self, defaults: Optional[Mapping[str, Any]] = None
    ) -> "ScanConfig":
        """Fill every unset field; the result is fully concrete.

        Precedence per field: this config's explicit value >
        :func:`repro.configure` scoped overrides (innermost first) >
        environment variables > ``defaults`` (engine-supplied) > the
        global defaults.  Idempotent: resolving a resolved config is a
        no-op.
        """
        from repro.config.context import active_overlays

        cfg = self
        for overlay in reversed(active_overlays()):
            cfg = cfg.with_defaults(overlay)
        # --- environment variables (one parsing point for all three) ---
        updates: Dict[str, Any] = {}
        if cfg.executor is None:
            env_backend = os.environ.get(ENV_VAR)
            if env_backend:
                updates["executor"] = env_backend
        if cfg.sparse is None:
            env_sparse = os.environ.get(SPARSE_ENV_VAR)
            if env_sparse:
                mode, sep, raw = env_sparse.partition(":")
                updates["sparse"] = mode
                if sep and cfg.densify_threshold is None:
                    updates["densify_threshold"] = _parse_float(
                        raw, "densify threshold", env_sparse
                    )
                elif cfg.densify_threshold is None:
                    # A bare env mode is a complete policy spec, like
                    # SparsePolicy.parse("auto") always was: its
                    # threshold comes from the threshold env var or
                    # the global default, never from a code-level
                    # (engine) fallback further down the ladder.
                    env_threshold = os.environ.get(THRESHOLD_ENV_VAR)
                    updates["densify_threshold"] = (
                        _parse_float(env_threshold, THRESHOLD_ENV_VAR, env_threshold)
                        if env_threshold
                        else DEFAULT_DENSIFY_THRESHOLD
                    )
        if cfg.densify_threshold is None and "densify_threshold" not in updates:
            env_threshold = os.environ.get(THRESHOLD_ENV_VAR)
            if env_threshold:
                updates["densify_threshold"] = _parse_float(
                    env_threshold, THRESHOLD_ENV_VAR, env_threshold
                )
        if cfg.kernel is None:
            env_kernel = os.environ.get(KERNEL_ENV_VAR)
            if env_kernel:
                updates["kernel"] = env_kernel  # validated in __post_init__
        if updates:
            cfg = dataclasses.replace(cfg, **updates)
        if defaults:
            defaults = dict(defaults)
            if cfg.sparse is not None:
                # A mode fixed above this rung (explicit, overlay, or
                # env) is a complete policy spec: its threshold
                # resolves above this rung too — from an explicit
                # field or the threshold env var (already applied), or
                # the global default — never from an engine fallback.
                # Keeps RNNBPPSA(sparse="auto") at the historical
                # auto:0.25 and configure(sparse="auto") in parity
                # with REPRO_SCAN_SPARSE=auto.
                defaults.pop("densify_threshold", None)
            cfg = cfg.with_defaults(ScanConfig(**defaults))
        return cfg.with_defaults(_GLOBAL_DEFAULTS)

    # ------------------------------------------------------------------
    # realized pieces — what engines actually consume
    # ------------------------------------------------------------------
    def sparse_policy(self) -> SparsePolicy:
        """The :class:`SparsePolicy` this config describes.

        Unset fields are resolved first, so this is safe to call on a
        partial config; a threshold of 1.0 maps back to the policy's
        ``None`` ("never densify") so ``str(policy)`` stays ``"auto"``.
        """
        cfg = self
        if cfg.sparse is None or cfg.densify_threshold is None:
            cfg = cfg.resolve()
        threshold = cfg.densify_threshold
        if threshold is not None and float(threshold) >= 1.0:
            threshold = None
        return SparsePolicy(mode=cfg.sparse, densify_threshold=threshold)

    def make_pattern_cache(self):
        """The :class:`~repro.sparse.PatternCache` for a new engine:
        the process-wide singleton under ``"shared"``, else ``None``
        (the engine's :class:`~repro.scan.ScanContext` creates a
        private one)."""
        policy = self.pattern_cache
        if policy is None:
            policy = self.resolve().pattern_cache
        return shared_pattern_cache() if policy == "shared" else None

    def __str__(self) -> str:
        return self.spec() or "<unset>"


#: Bottom rung of the precedence ladder (``sparse_linear_tol`` has no
#: default — unset means dense linear Jacobians).
_GLOBAL_DEFAULTS = ScanConfig(
    algorithm="auto",
    up_levels=2,
    executor="serial",
    sparse="auto",
    densify_threshold=DEFAULT_DENSIFY_THRESHOLD,
    pattern_cache="private",
    kernel=DEFAULT_KERNEL,
)
