"""Configuration of the composition algorithm.

The experimental study of the paper toggles individual features of the
algorithm ('no unfolding', 'no right compose', ...) and bounds the output size
blow-up; :class:`ComposerConfig` exposes exactly those knobs plus the operator
registry used for extensibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.exceptions import CompositionError
from repro.operators.registry import OperatorRegistry, default_registry

__all__ = ["ComposerConfig"]


@dataclass(frozen=True)
class ComposerConfig:
    """Tunable parameters of :func:`repro.compose.composer.compose`.

    Attributes
    ----------
    enable_view_unfolding:
        Run the view-unfolding step of ELIMINATE (paper Section 3.2).  The
        'no unfolding' configuration of Figures 2, 3 and 6 sets this to False.
    enable_left_compose:
        Run the left-compose step (Section 3.4).
    enable_right_compose:
        Run the right-compose step (Section 3.5).  The 'no right compose'
        configuration of Figures 2, 3 and 6 sets this to False.
    max_blowup_factor:
        Abort the elimination of a symbol when the candidate output's size
        (total operator count) exceeds this multiple of the input size.  The
        paper uses a factor of 100.
    symbol_order:
        Optional explicit order in which σ2 symbols are attempted.  When
        ``None``, the order of the intermediate signature is used (the paper
        follows "the user-specified ordering on the relation symbols in σ2");
        σ2 symbols the order omits are appended in signature order.  Naming
        a symbol twice is rejected.  Only meaningful with
        ``elimination_order="fixed"``; the cost-guided planner computes its
        own order, so combining the two is rejected.
    elimination_order:
        Selects the plan :func:`~repro.compose.composer.compose` executes
        (see :mod:`repro.compose.planner`).  ``"fixed"`` (the default) is
        the degenerate plan — the paper's behaviour: one component holding
        the whole constraint set, the σ2 symbols walked once in the
        configured order.  ``"cost"`` splits the problem into independent
        connected components of the symbol co-occurrence graph, each
        component orders its eliminations by a cost model fed from the
        cached constraint summaries, and symbols that fail are re-queued
        after the cheaper ones instead of being given up in one pass.
    max_normalization_steps:
        Safety bound on the number of rewriting iterations inside left/right
        normalization (prevents pathological non-termination).
    simplify_output:
        Apply the light algebraic simplification (D/∅ identities, dropping
        trivially-satisfied constraints) to the final result.
    registry:
        Operator registry supplying monotonicity and normalization rules for
        non-basic operators.  Defaults to the library registry with the
        extended operators (semijoin, anti-semijoin, left outerjoin).
    """

    enable_view_unfolding: bool = True
    enable_left_compose: bool = True
    enable_right_compose: bool = True
    max_blowup_factor: float = 100.0
    symbol_order: Optional[Sequence[str]] = None
    max_normalization_steps: int = 500
    simplify_output: bool = True
    elimination_order: str = "fixed"
    registry: OperatorRegistry = field(default_factory=default_registry)

    def __post_init__(self) -> None:
        if self.elimination_order not in ("fixed", "cost"):
            raise CompositionError(
                f"unknown elimination_order {self.elimination_order!r}; "
                "expected 'fixed' or 'cost'"
            )
        if self.elimination_order == "cost" and self.symbol_order is not None:
            raise CompositionError(
                "symbol_order is only honoured with elimination_order='fixed'; "
                "the cost-guided planner computes its own order"
            )
        if self.symbol_order is not None and len(set(self.symbol_order)) < len(self.symbol_order):
            raise CompositionError(
                f"symbol_order names a σ2 symbol more than once: {tuple(self.symbol_order)}"
            )

    # -- convenience constructors matching the paper's configurations -------------

    @classmethod
    def default(cls) -> "ComposerConfig":
        """The 'complete' / 'no keys' configuration: every feature enabled."""
        return cls()

    @classmethod
    def no_view_unfolding(cls) -> "ComposerConfig":
        """The 'no unfolding' configuration of the experiments."""
        return cls(enable_view_unfolding=False)

    @classmethod
    def no_right_compose(cls) -> "ComposerConfig":
        """The 'no right compose' configuration of the experiments."""
        return cls(enable_right_compose=False)

    @classmethod
    def no_left_compose(cls) -> "ComposerConfig":
        """The 'no left compose' configuration (discussed in Section 4.2)."""
        return cls(enable_left_compose=False)

    @classmethod
    def cost_guided(cls) -> "ComposerConfig":
        """The cost-guided planner configuration (see :mod:`repro.compose.planner`)."""
        return cls(elimination_order="cost")

    def fingerprint(self) -> bytes:
        """Deterministic content fingerprint of the configuration.

        Every knob that can change a composition's output is covered — the
        step toggles, the blow-up bound, the symbol order, the normalization
        budget, the simplify switch, the elimination-order mode (fixed vs.
        cost-guided planner), and the operator registry's own
        fingerprint (which includes its mutation ``version``).  Incremental
        recomposition mixes this into every checkpoint token, so changing any
        knob — or registering a rule mid-run — invalidates recorded hops.

        Not cached: the registry is mutable underneath the (frozen) config,
        and recomputing is a handful of repr calls.
        """
        from hashlib import blake2b

        h = blake2b(digest_size=16)
        h.update(
            repr(
                (
                    self.enable_view_unfolding,
                    self.enable_left_compose,
                    self.enable_right_compose,
                    self.max_blowup_factor,
                    tuple(self.symbol_order) if self.symbol_order is not None else None,
                    self.max_normalization_steps,
                    self.simplify_output,
                    self.elimination_order,
                )
            ).encode()
        )
        h.update(self.registry.fingerprint())
        return h.digest()

    def with_registry(self, registry: OperatorRegistry) -> "ComposerConfig":
        """Return a copy using a different operator registry."""
        return replace(self, registry=registry)

    def with_symbol_order(self, order: Sequence[str]) -> "ComposerConfig":
        """Return a copy trying to eliminate symbols in the given order."""
        return replace(self, symbol_order=tuple(order))
